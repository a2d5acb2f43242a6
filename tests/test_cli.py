"""Command-line driver: exit codes, artifacts, and the full pipeline."""

import json

import pytest

from cascadekd.checkpoint import WEIGHTS_NAME, load_checkpoint
from cascadekd.cli import main
from cascadekd.config import default_config, parse_config
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


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    ini = root / "run.ini"
    ini.write_text(TINY_INI)
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
    return {"root": root, "ini": ini, "corpus": corpus, "task": task,
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


def test_distill_single_stage(pipeline, tmp_path):
    run = pipeline["run"]
    out = tmp_path / "single"
    assert main(["distill", "--config", str(pipeline["ini"]),
                 "--corpus", str(pipeline["corpus"]),
                 "--teacher", str(run / "final"), "--out", str(out),
                 "--steps", "4", "--deterministic"]) == 0
    student = load_checkpoint(out / "student")
    assert student.model.num_layers == 1
    assert len(read_metrics(out / "metrics.jsonl")) == 4


def test_distill_rerun_rewrites_metrics(pipeline, tmp_path):
    out = tmp_path / "rerun"
    argv = ["distill", "--config", str(pipeline["ini"]),
            "--corpus", str(pipeline["corpus"]), "--random-teacher",
            "--out", str(out), "--steps", "4", "--deterministic"]
    assert main(argv) == 0
    first = (out / "metrics.jsonl").read_bytes()
    assert main(argv) == 0
    assert len(read_metrics(out / "metrics.jsonl")) == 4
    assert (out / "metrics.jsonl").read_bytes() == first


def test_distill_random_teacher(pipeline, tmp_path):
    out = tmp_path / "rt"
    assert main(["distill", "--config", str(pipeline["ini"]),
                 "--corpus", str(pipeline["corpus"]),
                 "--random-teacher", "--out", str(out),
                 "--steps", "2", "--deterministic"]) == 0
    # config model has 3 layers, so the student has 2
    assert load_checkpoint(out / "student").model.num_layers == 2
    # teacher source is required and exclusive
    assert main(["distill", "--config", str(pipeline["ini"]),
                 "--corpus", str(pipeline["corpus"]), "--out", str(out)]) == 1
    assert main(["distill", "--config", str(pipeline["ini"]),
                 "--corpus", str(pipeline["corpus"]), "--out", str(out),
                 "--random-teacher", "--teacher", "x"]) == 1


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
    capsys.readouterr()


def test_validation_errors_exit_one(pipeline, tmp_path, capsys):
    code = main(["gen-task", "--config", str(pipeline["ini"]),
                 "--out", str(tmp_path), "--language", "zz"])
    assert code == 1
    assert "unknown language" in capsys.readouterr().err
    # eval before finetune: checkpoint has no head
    code = main(["eval", "--corpus", str(pipeline["corpus"]),
                 "--model", str(pipeline["run"] / "final"),
                 str(pipeline["task"] / "task_eval_aa.tsv")])
    assert code == 1
    assert "no classifier head" in capsys.readouterr().err


def test_runtime_errors_exit_two(pipeline, tmp_path, capsys):
    # corrupt checkpoint
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(pipeline["run"] / "final", broken)
    weights = broken / WEIGHTS_NAME
    raw = bytearray(weights.read_bytes())
    raw[0] ^= 0xFF
    weights.write_bytes(bytes(raw))
    code = main(["distill", "--config", str(pipeline["ini"]),
                 "--corpus", str(pipeline["corpus"]),
                 "--teacher", str(broken), "--out", str(tmp_path / "out"),
                 "--steps", "1"])
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


def test_seed_override_changes_corpus(pipeline, tmp_path):
    out = tmp_path / "seeded"
    assert main(["gen-corpus", "--config", str(pipeline["ini"]),
                 "--seed", "77", "--out", str(out)]) == 0
    assert (out / "corpus.tsv").read_bytes() != \
        (pipeline["corpus"] / "corpus.tsv").read_bytes()
