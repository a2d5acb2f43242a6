"""Checkpoint, metrics, report, and run-config persistence."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from cascadekd.checkpoint import (
    MANIFEST_NAME,
    WEIGHTS_NAME,
    load_checkpoint,
    save_checkpoint,
)
from cascadekd.config import default_config, parse_config, write_config
from cascadekd.encoder import ClassifierHead, ModelConfig, init_random
from cascadekd.errors import NumericError, ValidationError
from cascadekd.reporting import MetricsWriter, emit_report, read_metrics


def tiny_model(seed=11):
    config = ModelConfig(vocab_size=16, hidden_dim=8, num_layers=2,
                         num_heads=2, ffn_dim=16, max_seq_len=4,
                         dropout_rate=0.1)
    return init_random(config, seed=seed)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_value_identical(tmp_path):
    model = tiny_model()
    save_checkpoint(tmp_path / "ckpt", model, stage_index=3, step_count=42)
    bundle = load_checkpoint(tmp_path / "ckpt")
    assert bundle.stage_index == 3
    assert bundle.step_count == 42
    assert bundle.head is None
    assert bundle.model.config == model.config
    restored = dict(bundle.model.parameters())
    for name, tensor in model.parameters():
        assert np.array_equal(restored[name].data, tensor.data), name


def test_checkpoint_round_trip_with_head(tmp_path):
    model = tiny_model(seed=3)
    head = ClassifierHead(8, num_classes=3, seed=4)
    save_checkpoint(tmp_path / "ckpt", model, head=head)
    bundle = load_checkpoint(tmp_path / "ckpt")
    assert bundle.head is not None
    assert bundle.head.num_classes == 3
    restored = dict(bundle.head.parameters())
    for name, tensor in head.parameters():
        assert np.array_equal(restored[name].data, tensor.data), name


def test_checkpoint_resave_is_byte_identical(tmp_path):
    model = tiny_model(seed=7)
    save_checkpoint(tmp_path / "a", model, stage_index=1, step_count=9)
    bundle = load_checkpoint(tmp_path / "a")
    save_checkpoint(tmp_path / "b", bundle.model, head=bundle.head,
                    stage_index=bundle.stage_index, step_count=bundle.step_count)
    for name in (MANIFEST_NAME, WEIGHTS_NAME):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_corrupted_weights_fail_digest_check(tmp_path):
    save_checkpoint(tmp_path / "ckpt", tiny_model())
    weights = tmp_path / "ckpt" / WEIGHTS_NAME
    raw = bytearray(weights.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    weights.write_bytes(bytes(raw))
    with pytest.raises(NumericError, match="digest mismatch for tensor"):
        load_checkpoint(tmp_path / "ckpt")


def test_truncated_weights_detected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", tiny_model())
    weights = tmp_path / "ckpt" / WEIGHTS_NAME
    weights.write_bytes(weights.read_bytes()[:-16])
    with pytest.raises(NumericError, match="weights file truncated"):
        load_checkpoint(tmp_path / "ckpt")


def _edit_manifest(directory, mutate):
    path = directory / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def test_version_mismatch_rejected(tmp_path):
    # Format 1 manifests also recorded embeddings_frozen and attention_capture.
    for version in (99, 1):
        save_checkpoint(tmp_path / "ckpt", tiny_model())
        _edit_manifest(tmp_path / "ckpt",
                       lambda m: m.__setitem__("format_version", version))
        with pytest.raises(ValidationError, match=f"checkpoint format {version}, expected 2"):
            load_checkpoint(tmp_path / "ckpt")


def test_unknown_tensor_name_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", tiny_model())
    _edit_manifest(tmp_path / "ckpt",
                   lambda m: m["tensors"][0].__setitem__("name", "nonsense"))
    with pytest.raises(ValidationError, match="unknown tensor 'nonsense'"):
        load_checkpoint(tmp_path / "ckpt")


def test_missing_tensor_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", tiny_model())
    _edit_manifest(tmp_path / "ckpt", lambda m: m["tensors"].pop())
    with pytest.raises(ValidationError, match="checkpoint missing tensors"):
        load_checkpoint(tmp_path / "ckpt")


def test_shape_mismatch_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", tiny_model())

    def flip_shape(manifest):
        record = next(r for r in manifest["tensors"]
                      if len(r["shape"]) == 2 and r["shape"][0] != r["shape"][1])
        record["shape"] = record["shape"][::-1]

    _edit_manifest(tmp_path / "ckpt", flip_shape)
    with pytest.raises(ValidationError, match=r"has shape \(8, 16\), expected \(16, 8\)"):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("delta", [-8, 8])
def test_byte_count_that_does_not_fit_the_shape_rejected(tmp_path, delta):
    # The digest matches the bytes the record names, so only the count is wrong.
    save_checkpoint(tmp_path / "ckpt", tiny_model())
    raw = (tmp_path / "ckpt" / WEIGHTS_NAME).read_bytes()

    def resize(manifest):
        record = manifest["tensors"][0]
        record["nbytes"] += delta
        blob = raw[record["offset"]:record["offset"] + record["nbytes"]]
        record["sha256"] = hashlib.sha256(blob).hexdigest()

    _edit_manifest(tmp_path / "ckpt", resize)
    with pytest.raises(ValidationError, match="bytes"):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("field, mutate", [
    ("stage_index", lambda m: m.pop("stage_index")),
    ("num_heads", lambda m: m["model_config"].pop("num_heads")),
    ("sha256", lambda m: m["tensors"][0].pop("sha256")),
])
def test_missing_manifest_field_rejected(tmp_path, field, mutate):
    save_checkpoint(tmp_path / "ckpt", tiny_model())
    _edit_manifest(tmp_path / "ckpt", mutate)
    with pytest.raises(ValidationError, match=field):
        load_checkpoint(tmp_path / "ckpt")


def _set_field(key, value, in_first_tensor=False):
    def mutate(manifest):
        (manifest["tensors"][0] if in_first_tensor else manifest)[key] = value
        return manifest
    return mutate


def _set_model_config(key, value):
    def mutate(manifest):
        manifest["model_config"][key] = value
        return manifest
    return mutate


@pytest.mark.parametrize("mutate, match", [
    (lambda m: [m], "not a JSON object"),
    (_set_field("offset", "0", in_first_tensor=True), "offset of 'token_embeddings'"),
    (_set_field("offset", -8, in_first_tensor=True), "offset of 'token_embeddings'"),
    (_set_field("nbytes", 1024.0, in_first_tensor=True), "nbytes of 'token_embeddings'"),
    (_set_field("nbytes", True, in_first_tensor=True), "nbytes of 'token_embeddings'"),
    (_set_field("stage_index", "1"), "stage_index must be a non-negative integer"),
    (_set_field("stage_index", False), "stage_index must be a non-negative integer"),
    (_set_field("step_count", -1), "step_count must be a non-negative integer"),
    (_set_field("name", ["token_embeddings"], in_first_tensor=True),
     r"unknown tensor \['token_embeddings'\]"),
    (_set_model_config("hidden_dim", 8.0), "hidden_dim must be an integer, got 8.0"),
    (_set_model_config("num_layers", 2.0), "num_layers must be an integer, got 2.0"),
], ids=["list", "string-offset", "negative-offset", "float-nbytes", "bool-nbytes",
        "string-stage", "bool-stage", "negative-steps", "list-name", "float-hidden-dim",
        "float-num-layers"])
def test_corrupted_manifest_contents_rejected(tmp_path, mutate, match):
    save_checkpoint(tmp_path / "ckpt", tiny_model(), stage_index=1, step_count=9)
    path = tmp_path / "ckpt" / MANIFEST_NAME
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    with pytest.raises(ValidationError, match=match):
        load_checkpoint(tmp_path / "ckpt")


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(ValidationError, match="no checkpoint manifest"):
        load_checkpoint(tmp_path / "nothing_here")


# ---------------------------------------------------------------------------
# metrics log
# ---------------------------------------------------------------------------

def test_metrics_round_trip_and_key_order(tmp_path):
    path = tmp_path / "metrics.jsonl"
    with MetricsWriter(path) as writer:
        writer.write({"step": 0, "loss": 0.5, "stage": 0, "lr": 0.001})
        writer.write({"step": 1, "loss": 0.25, "stage": 0, "lr": 0.002})
    lines = path.read_text().splitlines()
    assert lines[0] == '{"loss": 0.5, "lr": 0.001, "stage": 0, "step": 0}'
    records = read_metrics(path)
    assert [r["step"] for r in records] == [0, 1]
    assert records[1]["loss"] == 0.25


def test_metrics_writer_starts_fresh_file(tmp_path):
    path = tmp_path / "metrics.jsonl"
    with MetricsWriter(path) as writer:
        writer.write({"step": 0})
    with MetricsWriter(path) as writer:
        writer.write({"step": 1})
    assert [r["step"] for r in read_metrics(path)] == [1]


def test_metrics_reader_reports_bad_line(tmp_path):
    path = tmp_path / "metrics.jsonl"
    path.write_text('{"step": 0}\nnot json\n')
    with pytest.raises(ValidationError, match="line 2"):
        read_metrics(path)


# ---------------------------------------------------------------------------
# report tables
# ---------------------------------------------------------------------------

def test_report_golden_layout():
    rows = [("t6", {"en": 0.75, "es": 0.50, "de": 0.25})]
    text = emit_report(rows)
    assert text == ("model     en     es     de    AVG\n"
                    "t6     75.00  50.00  25.00  50.00\n")


def test_report_average_is_exact_mean():
    accs = {"en": 0.8125, "es": 0.40625, "de": 0.15625}
    text = emit_report([("s", accs)])
    expected = sum(accs.values()) / 3 * 100
    assert f"{expected:.2f}" in text.splitlines()[1]


def test_report_rejects_inconsistent_columns():
    rows = [("a", {"en": 0.5, "es": 0.5}), ("b", {"en": 0.5, "de": 0.5})]
    with pytest.raises(ValidationError, match="row 'b' covers"):
        emit_report(rows)


def test_report_warns_on_average_disagreement():
    rows = [("a", {"en": 0.5, "es": 0.7})]
    with pytest.warns(UserWarning, match="differs from recomputed"):
        emit_report(rows, provided_averages={"a": 0.9})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emit_report(rows, provided_averages={"a": 0.6})


def test_report_requires_rows():
    with pytest.raises(ValidationError, match="no accuracies to report"):
        emit_report([])
    with pytest.raises(ValidationError, match="no accuracies to report"):
        emit_report([("a", {})])


# ---------------------------------------------------------------------------
# run configuration files
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    config = default_config()
    write_config(tmp_path / "run.ini", config)
    parsed = parse_config(tmp_path / "run.ini")
    assert parsed == config


def test_config_partial_file_keeps_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[cascade]\nsteps_per_stage = 10\nwarmup_steps = 2\n")
    parsed = parse_config(path)
    assert parsed.cascade.steps_per_stage == 10
    assert parsed.cascade.warmup_steps == 2
    assert parsed.cascade.end_depth == default_config().cascade.end_depth
    assert parsed.model == default_config().model


def test_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[surprise]\nx = 1\n")
    with pytest.raises(ValidationError, match="unknown section"):
        parse_config(path)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[cascade]\nbogus = 1\n")
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config(path)


def test_config_rejects_bad_value(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[cascade]\nsteps_per_stage = banana\n")
    with pytest.raises(ValidationError, match="not a valid int"):
        parse_config(path)


def test_config_bool_coercion(tmp_path):
    path = tmp_path / "run.ini"
    for raw, value in (("off", False), ("on", True)):
        path.write_text(f"[cascade]\nfirst_stage_full_warmup = {raw}\n")
        assert parse_config(path).cascade.first_stage_full_warmup is value


def test_config_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read config file"):
        parse_config(tmp_path / "absent.ini")


def test_config_cross_field_validation(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[model]\nnum_layers = 4\n")
    # cascade still starts at depth 6
    with pytest.raises(ValidationError, match="cascade"):
        parse_config(path)


def test_config_seed_override():
    config = default_config()
    assert config.seeds.corpus != config.seeds.task
    overridden = config.with_seed(99)
    seeds = overridden.seeds
    assert (seeds.corpus, seeds.shuffle, seeds.cascade,
            seeds.finetune, seeds.task) == (99,) * 5
    assert overridden.model == config.model


def test_language_sizes_parsing():
    config = default_config()
    sizes = config.language_sizes()
    assert sizes["en"] == 1048576.0
    assert sizes["ur"] == 1024.0
