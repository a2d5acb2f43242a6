"""Command-line driver: exit codes, artifacts, and the full pipeline."""

import hashlib
import json

import pytest

from cascadekd.checkpoint import WEIGHTS_NAME, load_checkpoint
from cascadekd.cli import main
from cascadekd.config import default_config, parse_config
from cascadekd.encoder import init_random
from cascadekd.reporting import read_metrics

TINY_INI = """\
[model]
vocab_size = 64
hidden_dim = 16
num_layers = 3
num_heads = 2
ffn_dim = 32
max_seq_len = 8
dropout_rate = 0.1

[cascade]
start_depth = 3
end_depth = 2
steps_per_stage = 6
warmup_steps = 2

[pretrain]
peak_lr = 1e-3
batch_size = 8
micro_batch_size = 8

[finetune]
lr = 1e-2
epochs = 2
batch_size = 16
micro_batch_size = 16

[corpus]
languages = aa:102400,bb:256
total_lines = 96
vocab_size = 64
"""

# One stage more: shrinks the pipeline's 2-layer final model to 1 layer,
# or a random 3-layer teacher in two stages.
ONE_MORE_STAGE_INI = TINY_INI.replace("end_depth = 2", "end_depth = 1")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    ini = root / "run.ini"
    ini.write_text(TINY_INI)
    one_more_ini = root / "one_more.ini"
    one_more_ini.write_text(ONE_MORE_STAGE_INI)
    corpus = root / "corpus"
    task = root / "task"
    run = root / "run"
    assert main(["gen-corpus", "--config", str(ini), "--out", str(corpus)]) == 0
    assert main(["gen-task", "--config", str(ini), "--out", str(task),
                 "--language", "aa", "--train-examples", "24",
                 "--eval-examples", "8"]) == 0
    assert main(["cascade", "--config", str(ini), "--corpus", str(corpus),
                 "--out", str(run), "--deterministic"]) == 0
    assert main(["finetune", "--config", str(ini), "--corpus", str(corpus),
                 "--model", str(run / "final"),
                 "--train", str(task / "task_train_aa.tsv"),
                 "--out", str(run), "--deterministic"]) == 0
    result = root / "eval.json"
    assert main(["eval", "--corpus", str(corpus),
                 "--model", str(run / "finetuned"),
                 "--label", "student-2", "--out", str(result),
                 str(task / "task_eval_aa.tsv"),
                 str(task / "task_eval_bb.tsv")]) == 0
    report = root / "report.txt"
    assert main(["report", "--out", str(report), str(result)]) == 0
    return {"root": root, "ini": ini, "one_more_ini": one_more_ini,
            "corpus": corpus, "task": task,
            "run": run, "report": report, "result": result}


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def test_corpus_artifacts(pipeline):
    corpus = pipeline["corpus"]
    for name in ("corpus.tsv", "vocab.json", "languages.csv"):
        assert (corpus / name).exists(), name
    lines = (corpus / "corpus.tsv").read_text().splitlines()
    assert len(lines) == 96
    assert all("\t" in line for line in lines)


def test_task_artifacts(pipeline):
    task = pipeline["task"]
    train = (task / "task_train_aa.tsv").read_text().splitlines()
    assert len(train) == 24
    for lang in ("aa", "bb"):
        rows = (task / f"task_eval_{lang}.tsv").read_text().splitlines()
        assert len(rows) == 8
        assert all(row.split("\t")[0] == lang for row in rows)


def test_cascade_artifacts(pipeline):
    run = pipeline["run"]
    assert (run / "stage_0_depth_2").is_dir()
    final = load_checkpoint(run / "final")
    assert final.model.num_layers == 2
    records = read_metrics(run / "metrics.jsonl")
    assert len(records) == 6
    assert set(records[0]) == {"loss", "lr", "stage", "step"}


def test_finetuned_artifacts(pipeline):
    bundle = load_checkpoint(pipeline["run"] / "finetuned")
    assert bundle.head is not None
    assert bundle.model.num_layers == 2


def test_eval_payload(pipeline):
    payload = json.loads(pipeline["result"].read_text())
    assert payload["label"] == "student-2"
    assert set(payload["per_language"]) == {"aa", "bb"}
    values = list(payload["per_language"].values())
    assert payload["average"] == pytest.approx(sum(values) / len(values))


def test_report_table(pipeline):
    text = pipeline["report"].read_text()
    lines = text.splitlines()
    assert lines[0].startswith("model")
    assert lines[0].rstrip().endswith("AVG")
    assert lines[1].startswith("student-2")


def test_cascade_shrinks_a_checkpoint_to_end_depth(pipeline, tmp_path):
    out = tmp_path / "single"
    assert main(["cascade", "--config", str(pipeline["one_more_ini"]),
                 "--corpus", str(pipeline["corpus"]),
                 "--teacher", str(pipeline["run"] / "final"), "--out", str(out),
                 "--deterministic"]) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "final", "metrics.jsonl", "stage_0_depth_1"]
    assert load_checkpoint(out / "final").model.num_layers == 1
    assert (out / "final" / WEIGHTS_NAME).read_bytes() == \
        (out / "stage_0_depth_1" / WEIGHTS_NAME).read_bytes()
    assert len(read_metrics(out / "metrics.jsonl")) == 6


def test_cascade_rerun_rewrites_metrics(pipeline, tmp_path):
    out = tmp_path / "rerun"
    argv = ["cascade", "--config", str(pipeline["ini"]),
            "--corpus", str(pipeline["corpus"]), "--out", str(out), "--deterministic"]
    assert main(argv) == 0
    first = (out / "metrics.jsonl").read_bytes()
    assert main(argv) == 0
    assert len(read_metrics(out / "metrics.jsonl")) == 6
    assert (out / "metrics.jsonl").read_bytes() == first


def test_a_cascade_without_a_teacher_starts_at_num_layers(pipeline, tmp_path):
    out = tmp_path / "rt"
    assert main(["cascade", "--config", str(pipeline["one_more_ini"]),
                 "--corpus", str(pipeline["corpus"]), "--out", str(out),
                 "--deterministic"]) == 0
    # The config's model has 3 layers, so two stages reach end_depth 1.
    assert (out / "stage_0_depth_2").is_dir() and (out / "stage_1_depth_1").is_dir()
    assert load_checkpoint(out / "final").model.num_layers == 1
    assert len(read_metrics(out / "metrics.jsonl")) == 12


def test_cascade_rerun_reproduces_metrics(pipeline, tmp_path):
    again = tmp_path / "again"
    assert main(["cascade", "--config", str(pipeline["ini"]),
                 "--corpus", str(pipeline["corpus"]),
                 "--out", str(again), "--deterministic"]) == 0
    first = (pipeline["run"] / "metrics.jsonl").read_bytes()
    second = (again / "metrics.jsonl").read_bytes()
    assert first == second
    a = (pipeline["run"] / "final" / WEIGHTS_NAME).read_bytes()
    b = (again / "final" / WEIGHTS_NAME).read_bytes()
    assert a == b


def test_a_cascade_with_dropout_reruns_byte_identically(pipeline, tmp_path):
    runs = [tmp_path / "first", tmp_path / "second"]
    for out in runs:
        assert main(["cascade", "--config", str(pipeline["ini"]),
                     "--corpus", str(pipeline["corpus"]), "--out", str(out)]) == 0
    for name in ("metrics.jsonl", f"final/{WEIGHTS_NAME}"):
        first, second = ((out / name).read_bytes() for out in runs)
        assert first == second
        # Dropout was on: the fixture's --deterministic run differs.
        assert first != (pipeline["run"] / name).read_bytes()


def test_gen_corpus_rerun_is_byte_identical(pipeline, tmp_path):
    out = tmp_path / "corpus2"
    assert main(["gen-corpus", "--config", str(pipeline["ini"]),
                 "--out", str(out)]) == 0
    assert (out / "corpus.tsv").read_bytes() == \
        (pipeline["corpus"] / "corpus.tsv").read_bytes()
    assert (out / "vocab.json").read_bytes() == \
        (pipeline["corpus"] / "vocab.json").read_bytes()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "cascadekd" in capsys.readouterr().out


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["cascade"]) == 1  # missing required arguments
    # `cascade` runs a single stage too; there is no second training command.
    assert main(["distill", "--corpus", "corpus", "--out", "out", "--random-teacher"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, flag", [
    ("init-config", "--deterministic"), ("gen-corpus", "--deterministic"),
    ("gen-task", "--deterministic"), ("eval", "--deterministic"),
    ("eval", "--config=run.ini"), ("eval", "--seed=1")])
def test_a_command_rejects_a_flag_it_would_ignore(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    required = {
        "init-config": ["--out", str(out)],
        "gen-corpus": ["--out", str(out), "--lines", "8"],
        "gen-task": ["--out", str(out), "--language", "en"],
        "eval": ["--corpus", str(tmp_path), "--model", str(tmp_path), "--out", str(out),
                 str(tmp_path / "task_eval_en.tsv")],
    }[command]
    assert main([command, flag] + required) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_validation_errors_exit_one(pipeline, tmp_path, capsys):
    code = main(["gen-task", "--config", str(pipeline["ini"]),
                 "--out", str(tmp_path / "task"), "--language", "zz"])
    assert code == 1
    assert "unknown language 'zz'; have aa, bb" in capsys.readouterr().err
    assert not (tmp_path / "task").exists()
    # eval before finetune: checkpoint has no head
    code = main(["eval", "--corpus", str(pipeline["corpus"]),
                 "--model", str(pipeline["run"] / "final"),
                 str(pipeline["task"] / "task_eval_aa.tsv")])
    assert code == 1
    assert "no classifier head" in capsys.readouterr().err
    # malformed labeled files and vocabulary
    bad_label = tmp_path / "bad_label.tsv"
    bad_label.write_text("aa\tone\tsome text\n")
    short_row = tmp_path / "short_row.tsv"
    short_row.write_text("aa\t1\n")
    vocab = json.loads((pipeline["corpus"] / "vocab.json").read_text())
    broken_corpora = []
    for name, text in (("not_json", "{not json"),
                       ("list_vocab", json.dumps({**vocab, "token_to_id": ["a"]})),
                       ("str_size", json.dumps({**vocab, "vocab_size": "5"}))):
        broken = tmp_path / name
        broken.mkdir()
        (broken / "vocab.json").write_text(text)
        broken_corpora.append((broken, pipeline["task"] / "task_eval_aa.tsv"))
    for corpus, eval_file in [(pipeline["corpus"], bad_label),
                              (pipeline["corpus"], short_row)] + broken_corpora:
        code = main(["eval", "--corpus", str(corpus),
                     "--model", str(pipeline["run"] / "finetuned"), str(eval_file)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
    bad_result = tmp_path / "bad_result.json"
    bad_result.write_text('{"per_language": {}}')
    assert main(["report", str(bad_result)]) == 1
    assert "error:" in capsys.readouterr().err
    # a bad warmup fails before any stage trains
    ini = tmp_path / "bad_warmup.ini"
    ini.write_text(TINY_INI.replace("end_depth = 2", "end_depth = 1")
                   .replace("steps_per_stage = 6", "steps_per_stage = 3")
                   .replace("warmup_steps = 2", "warmup_steps = -1"))
    out = tmp_path / "run"
    code = main(["cascade", "--config", str(ini), "--corpus", str(pipeline["corpus"]),
                 "--out", str(out), "--deterministic"])
    assert code == 1
    assert "warmup_steps -1" in capsys.readouterr().err
    assert not list(out.glob("stage_*"))


def eval_exit_and_error(pipeline, capsys, *eval_files):
    code = main(["eval", "--corpus", str(pipeline["corpus"]),
                 "--model", str(pipeline["run"] / "finetuned")]
                + [str(path) for path in eval_files])
    return code, capsys.readouterr().err


def test_eval_rejects_a_file_of_mixed_languages(pipeline, tmp_path, capsys):
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text((pipeline["task"] / "task_eval_aa.tsv").read_text()
                     + (pipeline["task"] / "task_eval_bb.tsv").read_text())
    code, err = eval_exit_and_error(pipeline, capsys, mixed)
    assert code == 1
    assert str(mixed) in err and "aa, bb" in err


def test_eval_rejects_two_sets_of_one_language(pipeline, capsys):
    aa, bb = (pipeline["task"] / f"task_eval_{lang}.tsv" for lang in ("aa", "bb"))
    code, err = eval_exit_and_error(pipeline, capsys, aa, aa, bb)
    assert code == 1
    assert str(aa) in err and "'aa'" in err


def test_runtime_errors_exit_two(pipeline, tmp_path, capsys):
    # corrupt checkpoint
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(pipeline["run"] / "final", broken)
    weights = broken / WEIGHTS_NAME
    raw = bytearray(weights.read_bytes())
    raw[0] ^= 0xFF
    weights.write_bytes(bytes(raw))
    code = main(["cascade", "--config", str(pipeline["ini"]),
                 "--corpus", str(pipeline["corpus"]),
                 "--teacher", str(broken), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "digest" in capsys.readouterr().err
    # missing corpus directory
    code = main(["cascade", "--config", str(pipeline["ini"]),
                 "--corpus", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "out2")])
    assert code == 2
    capsys.readouterr()


def test_init_config_round_trip(tmp_path):
    path = tmp_path / "fresh.ini"
    assert main(["init-config", "--out", str(path)]) == 0
    assert parse_config(path) == default_config()


def test_the_paper_config_builds_the_published_operating_point(paper_ini, tmp_path):
    config = parse_config(paper_ini)
    plan = config.cascade_plan(config.model.num_layers)
    assert (plan.stages[0].teacher_depth, plan.stages[-1].student_depth,
            len(plan.stages)) == (12, 6, 6)
    assert plan.total_steps == 399_996
    assert [s.steps for s in plan.stages] == [66_666] * 6
    assert [s.warmup_steps for s in plan.stages] == [66_666] + [6_666] * 5
    pretrain = plan.stages[0].optimizer
    assert (pretrain.peak_lr, pretrain.batch_size, pretrain.epsilon) == (1e-7, 256, 1e-9)
    finetune = config.finetune_config(config.seeds.finetune)
    assert (finetune.optimizer.peak_lr, finetune.optimizer.batch_size,
            finetune.optimizer.micro_batch_size, finetune.epochs,
            finetune.optimizer.epsilon) == (2e-5, 32, 32, 3, 2e-7)
    model = init_random(config.model, config.seeds.cascade)
    assert model.num_layers == 12
    assert model.position_embeddings.shape == (128, config.model.hidden_dim)
    written = tmp_path / "paper.ini"
    assert main(["init-config", "--config", str(paper_ini), "--out", str(written)]) == 0
    assert parse_config(written) == config


def test_seed_override_changes_corpus(pipeline, tmp_path):
    out = tmp_path / "seeded"
    assert main(["gen-corpus", "--config", str(pipeline["ini"]),
                 "--seed", "77", "--out", str(out)]) == 0
    assert (out / "corpus.tsv").read_bytes() != \
        (pipeline["corpus"] / "corpus.tsv").read_bytes()


BAD_LANGUAGE_LISTS = {
    "en:nan,es:65536": "language 'en' has size nan",
    "en:inf,es:65536": "language 'en' has size inf",
    "en:0,es:65536": "language 'en' has size 0.0",
    "en:-1,es:65536": "language 'en' has size -1.0",
    "en:1048576,en:1024,es:65536": "language 'en' is listed twice",
    "en:1e308,es:1e308": "language sizes sum to inf",
}


@pytest.mark.parametrize("languages", list(BAD_LANGUAGE_LISTS))
def test_gen_corpus_rejects_a_bad_language_list(tmp_path, capsys, languages):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[corpus]\nlanguages = {languages}\n")
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--config", str(ini), "--out", str(out)]) == 1
    assert f"error: [corpus] {BAD_LANGUAGE_LISTS[languages]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("pretrain", "micro_batch_size", "5"),
    ("pretrain", "peak_lr", "-1"),
    ("pretrain", "peak_lr", "nan"),
    ("pretrain", "peak_lr", "inf"),
    ("pretrain", "epsilon", "nan"),
    ("finetune", "epochs", "-1"),
    ("finetune", "num_classes", "1"),
    ("cascade", "steps_per_stage", "0"),
    ("cascade", "end_depth", "6"),
    ("cascade", "end_depth", "0"),
    ("corpus", "languages", "en:0,es:5"),
    ("corpus", "languages", ":5,es:7"),
    ("corpus", "languages", "en:1e308,es:1e308"),
    ("corpus", "languages", "en:1000,es:1001"),
    # three class markers and the four special tokens need seven ids
    pytest.param("corpus", "vocab_size", "6\n[model]\nvocab_size = 6",
                 id="corpus-vocab_size-6-model-vocab_size-6"),
    ("corpus", "smoothing_target_ratio", "-1"),
    ("corpus", "smoothing_target_ratio", "0.5"),
    ("corpus", "smoothing_target_ratio", "1"),
    ("corpus", "smoothing_target_ratio", "nan"),
    # equal sizes need no exponent, but the ratio is still checked
    pytest.param("corpus", "smoothing_target_ratio", "-1\nlanguages = en:1024,es:1024",
                 id="corpus-smoothing_target_ratio--1-equal-sizes")])
def test_a_bad_section_value_fails_when_the_config_is_parsed(tmp_path, capsys,
                                                             section, key, value):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out.ini"
    assert main(["init-config", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] ") and err.count("\n") == 1
    assert not out.exists()


def test_a_stage_length_below_one_names_its_key(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[cascade]\nsteps_per_stage = 0\n")
    assert main(["init-config", "--config", str(ini), "--out", str(tmp_path / "out.ini")]) == 1
    assert "error: [cascade] steps_per_stage must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [
    (b"peak_lr = 1\n", "no section headers"),
    (b"[pretrain]\npeak_lr = 1\npeak_lr = 2\n",
     "option 'peak_lr' in section 'pretrain' already exists"),
    (b"[pretrain]\npeak_lr = \xff\n", "can't decode byte 0xff")],
    ids=["no-section-header", "repeated-key", "not-utf-8"])
def test_an_ini_that_configparser_rejects_exits_one(tmp_path, capsys, text, reason):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(text)
    out = tmp_path / "out.ini"
    assert main(["init-config", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ini}: not a valid INI file") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("model", "attention_capture", "pre_softmax_scaled"),
    ("pretrain", "embeddings_frozen", "True"),
    ("pretrain", "weight_decay", "0.0"),
    ("pretrain", "dropout", "off"),
    ("finetune", "dropout", "off"),
    ("pretrain", "beta1", "0.9"),
    ("pretrain", "beta2", "0.999"),
    ("corpus", "min_words_per_line", "3"),
    ("corpus", "max_words_per_line", "8")])
def test_a_removed_key_is_an_unknown_key(tmp_path, capsys, section, key, value):
    # An INI written before these keys were removed fails loudly: the first
    # three and the last four are fixed choices now, and `--deterministic`
    # or `[model] dropout_rate` turns dropout off.
    ini = tmp_path / "old.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out.ini"
    assert main(["init-config", "--config", str(ini), "--out", str(out)]) == 1
    assert f"error: unknown key '{key}' in section [{section}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, count", [
    ("--train-examples", "0"), ("--train-examples", "-5"),
    ("--eval-examples", "0"), ("--eval-examples", "-5")])
def test_gen_task_rejects_a_count_below_one_before_any_write(pipeline, tmp_path, capsys,
                                                           flag, count):
    out = tmp_path / "task"
    code = main(["gen-task", "--config", str(pipeline["ini"]), "--out", str(out),
                 "--language", "aa", flag, count])
    assert code == 1
    assert f"{flag} must be >= 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token_to_id", [
    {"[CLS]": 5, "[PAD]": 6, "[SEP]": 7, "[UNK]": 4, "bar": 1, "baz": 2, "foo": 0, "qux": 3},
    {"bar": 1, "baz": 2, "foo": 0, "qux": 3}],
    ids=["specials-moved", "specials-missing"])
def test_a_vocabulary_without_the_special_ids_is_rejected(tmp_path, capsys, token_to_id):
    # Encoding writes [PAD], [UNK], [CLS] and [SEP] as ids 0-3, so a file
    # that maps them elsewhere would encode every line wrongly.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    vocab = corpus / "vocab.json"
    vocab.write_text(json.dumps({"vocab_size": 8, "token_to_id": token_to_id}))
    assert main(["cascade", "--corpus", str(corpus), "--out", str(tmp_path / "run")]) == 1
    assert str(vocab) in capsys.readouterr().err


@pytest.mark.parametrize("case", ["cascade", "cascade-teacher", "finetune", "eval"])
def test_a_vocabulary_wider_than_the_model_is_rejected_before_any_write(
        pipeline, tmp_path, capsys, case):
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--lines", "200"]) == 0
    vocab = corpus / "vocab.json"
    # Built for 256 ids; every model of the pipeline has vocab_size 64.
    assert max(json.loads(vocab.read_text())["token_to_id"].values()) >= 64
    out = tmp_path / "run"
    out.mkdir()
    kept = b'{"loss": 1.0, "lr": 0.0, "stage": 0, "step": 0}\n'
    (out / "metrics.jsonl").write_bytes(kept)
    run, task = pipeline["run"], pipeline["task"]
    argv = {
        "cascade": ["cascade", "--config", str(pipeline["ini"]), "--out", str(out)],
        "cascade-teacher": ["cascade", "--config", str(pipeline["one_more_ini"]),
                            "--teacher", str(run / "final"), "--out", str(out)],
        "finetune": ["finetune", "--model", str(run / "final"), "--out", str(out),
                     "--train", str(task / "task_train_aa.tsv")],
        "eval": ["eval", "--model", str(run / "finetuned"), "--out", str(out / "eval.json"),
                 str(task / "task_eval_aa.tsv")],
    }[case]
    capsys.readouterr()
    assert main(argv + ["--corpus", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert str(vocab) in err and "size 256" in err and "vocab_size 64" in err
    assert list(out.iterdir()) == [out / "metrics.jsonl"]
    assert (out / "metrics.jsonl").read_bytes() == kept


def test_a_cascade_teacher_of_the_wrong_depth_is_rejected_before_any_write(
        pipeline, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    kept = b'{"loss": 1.0, "lr": 0.0, "stage": 0, "step": 0}\n'
    (out / "metrics.jsonl").write_bytes(kept)
    # The final student has 2 layers, which is the config's end_depth.
    assert main(["cascade", "--config", str(pipeline["ini"]),
                 "--corpus", str(pipeline["corpus"]),
                 "--teacher", str(pipeline["run"] / "final"), "--out", str(out)]) == 1
    assert "cannot shrink a 2-layer teacher to end_depth 2" in capsys.readouterr().err
    assert list(out.iterdir()) == [out / "metrics.jsonl"]
    assert (out / "metrics.jsonl").read_bytes() == kept


@pytest.mark.parametrize("payload", [
    {"label": "m", "per_language": [0.5]},
    {"label": "m", "per_language": {"en": "0.5"}},
    {"label": 3, "per_language": {"en": 0.5}},
    {"label": "m", "per_language": {}},
    {"label": "m", "per_language": {"en": 0.5}, "average": "0.5"}],
    ids=["list-per-language", "string-accuracy", "int-label", "empty-per-language",
         "string-average"])
def test_report_rejects_a_malformed_eval_result(tmp_path, capsys, payload):
    path = tmp_path / "result.json"
    path.write_text(json.dumps(payload))
    assert main(["report", str(path)]) == 1
    assert str(path) in capsys.readouterr().err


# sha256 of each file the default chain writes, recorded before the
# language table became `CorpusSpec.sampling_probabilities`; a refactor
# of corpus or task generation must not move them. `config.ini` was
# re-recorded when `[model] attention_capture`, `[pretrain] weight_decay`
# and `[pretrain] embeddings_frozen` were removed, again when
# `[pretrain] dropout` and `[finetune] dropout` were, and again when
# `[pretrain] beta1` and `beta2` and `[corpus] min_words_per_line` and
# `max_words_per_line` were; every other file kept its digest.
DEFAULT_CHAIN_DIGESTS = {
    "config.ini": "e3b261b53ed6d9e82363366ad22dcb4f63609d7bc4b5f936496ec440b0ffcf86",
    "corpus/corpus.tsv": "dc423a15c2288ac4eae6e7a5c54003f91cd9ee7a953715613c74447c12b7b6a1",
    "corpus/languages.csv": "fd9a0c8c8d17c342c5dd1322cd395b2a0b2c2fda0ea64b9ab6b79d0d2c38a10e",
    "corpus/vocab.json": "89056552af316627722ea875106d8236ada9073230a17d8ad87b8d0330bc9b2d",
    "task/task_eval_de.tsv": "e7f8fd526c827b3e146af669dfba75f5198e7cbd596f1c2935b56258c5f8dfa2",
    "task/task_eval_en.tsv": "c0f505d9b938bf6ace6559c6addf6166a0c0307265dff8c3fa2245a0b48587e0",
    "task/task_eval_es.tsv": "d1575860c9da185402de099c01d851f8c26eb0d660d820ce8b1323383cc271c6",
    "task/task_eval_ur.tsv": "8d478efd6ca71053c9086c125443092b701f5e8a89a19a719361b470ed32d448",
    "task/task_train_en.tsv": "73904cf7304f15bc9193967a0fca063823eb57b2fca7c3ea01dea1e2e247d017",
}


def test_default_chain_writes_pinned_bytes(tmp_path):
    ini = tmp_path / "config.ini"
    assert main(["init-config", "--out", str(ini)]) == 0
    assert main(["gen-corpus", "--config", str(ini), "--out", str(tmp_path / "corpus"),
                 "--lines", "2000"]) == 0
    assert main(["gen-task", "--config", str(ini), "--out", str(tmp_path / "task"),
                 "--language", "en"]) == 0
    written = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.rglob("*") if path.is_file()}
    assert written == DEFAULT_CHAIN_DIGESTS


# The pinned chain: a 3-layer, d = 8 teacher shrunk to one layer in two
# 4-step stages, then fine-tuned and scored, with dropout on throughout.
PINNED_CHAIN_INI = """\
[model]
vocab_size = 64
hidden_dim = 8
num_layers = 3
num_heads = 2
ffn_dim = 16
max_seq_len = 8
dropout_rate = 0.1

[cascade]
start_depth = 3
end_depth = 1
steps_per_stage = 4
warmup_steps = 1

[pretrain]
peak_lr = 1e-2
batch_size = 8
micro_batch_size = 8

[finetune]
lr = 1e-2
epochs = 20
batch_size = 16
micro_batch_size = 16

[corpus]
languages = aa:102400,bb:256
vocab_size = 64
"""

# (stage, step, lr, loss) of every metrics.jsonl record.
PINNED_CHAIN_METRICS = [
    (0, 0, 0.0, 0.3060968220115565),
    (0, 1, 0.0025, 0.2941741051163888),
    (0, 2, 0.005, 0.27825794888469724),
    (0, 3, 0.0075, 0.2535608677609162),
    (1, 0, 0.0, 0.47771084975318767),
    (1, 1, 0.01, 0.4418101608474845),
    (1, 2, 0.006666666666666667, 0.31565852139230743),
    (1, 3, 0.0033333333333333335, 0.40046769869738175),
]

# Losses are pinned to this relative tolerance, not to their bits: CI
# runners may dispatch other BLAS kernels, which sum in another order.
# Computing every affine map with `np.einsum` instead of `np.matmul` moved
# these losses by at most 1.8e-16 relative; the smallest one-line change
# to the model that the test must catch (layer-norm eps 1e-12 -> 1e-5)
# moved one by 9.5e-3. The learning rates are closed forms, and the
# accuracies counts over 32 examples, so both are pinned exactly.
PINNED_LOSS_RTOL = 1e-8

PINNED_CHAIN_EVAL = """\
{
  "average": 0.671875,
  "label": "1-layer",
  "per_language": {
    "aa": 0.6875,
    "bb": 0.65625
  }
}
"""


def test_the_training_commands_write_pinned_numbers(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(PINNED_CHAIN_INI)
    corpus, task, run = tmp_path / "corpus", tmp_path / "task", tmp_path / "run"
    result = tmp_path / "eval.json"
    for argv in (
            ["gen-corpus", "--config", str(ini), "--out", str(corpus), "--lines", "200"],
            ["gen-task", "--config", str(ini), "--out", str(task), "--language", "aa",
             "--train-examples", "48", "--eval-examples", "32"],
            ["cascade", "--config", str(ini), "--corpus", str(corpus), "--out", str(run)],
            ["finetune", "--config", str(ini), "--corpus", str(corpus),
             "--model", str(run / "final"), "--train", str(task / "task_train_aa.tsv"),
             "--out", str(run)],
            ["eval", "--corpus", str(corpus), "--model", str(run / "finetuned"),
             "--out", str(result), str(task / "task_eval_aa.tsv"),
             str(task / "task_eval_bb.tsv")]):
        assert main(argv) == 0, argv[0]
    records = read_metrics(run / "metrics.jsonl")
    assert [(r["stage"], r["step"], r["lr"]) for r in records] == \
        [pinned[:3] for pinned in PINNED_CHAIN_METRICS]
    for record, pinned in zip(records, PINNED_CHAIN_METRICS):
        assert record["loss"] == pytest.approx(pinned[3], rel=PINNED_LOSS_RTOL, abs=0.0), record
    assert result.read_text() == PINNED_CHAIN_EVAL
