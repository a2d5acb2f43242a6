"""Command-line driver.

Subcommands cover the whole pipeline: synthesize a corpus and a labeled
task, run the shrink cascade, fine-tune a shrunken checkpoint, score it
per language, and render the accuracy table.

Exit codes: 0 on success, 1 for configuration or usage problems, 2 for
runtime failures (I/O, corrupt checkpoints, numerical blowups).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, default_config, parse_config, write_config
from .corpus import (
    Batch,
    TokenizerVocab,
    batch_stream,
    encode_batch,
    generate_labeled_task,
    generate_synthetic_corpus,
    read_corpus,
    read_labeled,
    shuffle_lines,
    write_corpus,
    write_labeled,
)
from .distill import run_cascade
from .encoder import ModelConfig, init_random
from .errors import CascadeKDError, ValidationError
from .reporting import MetricsWriter, emit_report
from .training import accuracy, fine_tune, zero_shot_eval

CORPUS_FILE = "corpus.tsv"
VOCAB_FILE = "vocab.json"
LANGUAGES_FILE = "languages.csv"
METRICS_FILE = "metrics.jsonl"


def _load_run_config(args) -> RunConfig:
    config = parse_config(args.config) if args.config else default_config()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


def _load_vocab(corpus_dir, model: ModelConfig) -> TokenizerVocab:
    """The corpus vocabulary, rejected unless every id fits the model's
    embedding table."""
    path = Path(corpus_dir) / VOCAB_FILE
    vocab = TokenizerVocab.load(path)
    largest = max(vocab.token_to_id.values())
    if largest >= model.vocab_size:
        raise ValidationError(
            f"{path}: vocabulary of size {vocab.vocab_size} has ids up to {largest}, "
            f"beyond the model's vocab_size {model.vocab_size}")
    return vocab


def _load_texts(corpus_dir) -> list[str]:
    return [text for _, text in read_corpus(Path(corpus_dir) / CORPUS_FILE)]


def _recycling_batches(texts, vocab: TokenizerVocab, max_len: int,
                       batch_size: int, seed: int) -> Iterator[Batch]:
    """Endless batch stream: each pass reshuffles with a fresh seed."""
    if len(texts) < batch_size:
        raise ValidationError(
            f"corpus has {len(texts)} lines, fewer than one batch of {batch_size}")

    def generator():
        pass_index = 0
        while True:
            order = shuffle_lines(texts, seed + pass_index)
            yield from batch_stream(order, vocab, max_len, batch_size)
            pass_index += 1

    return generator()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _labeled_batch(path, vocab: TokenizerVocab, max_len: int) -> tuple[str, Batch]:
    """The file's one language and its examples as one batch."""
    rows = read_labeled(path)
    if not rows:
        raise ValidationError(f"no labeled examples in {path}")
    languages = sorted({lang for lang, _, _ in rows})
    if len(languages) > 1:
        raise ValidationError(
            f"{path}: mixes languages {', '.join(languages)}; give one file per language")
    language = languages[0]
    texts = [text for _, _, text in rows]
    labels = [label for _, label, _ in rows]
    return language, encode_batch(texts, vocab, max_len, labels=labels)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_init_config(args) -> int:
    write_config(args.out, _load_run_config(args))
    print(f"wrote {args.out}")
    return 0


def cmd_gen_corpus(args) -> int:
    config = _load_run_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = config.corpus_spec()
    total = args.lines if args.lines is not None else config.corpus.total_lines
    lines = generate_synthetic_corpus(spec, total, config.seeds.corpus)
    lines = shuffle_lines(lines, config.seeds.shuffle)
    write_corpus(out / CORPUS_FILE, lines)
    with open(out / LANGUAGES_FILE, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows((lang.name, repr(float(lang.size_bytes)))
                                 for lang in spec.languages)
    config.vocabulary(text for _, text in lines).save(out / VOCAB_FILE)
    counts: dict[str, int] = {}
    for lang, _ in lines:
        counts[lang] = counts.get(lang, 0) + 1
    print(f"wrote {total} lines to {out / CORPUS_FILE}")
    for lang in sorted(counts):
        print(f"  {lang}: {counts[lang]}")
    return 0


def cmd_gen_task(args) -> int:
    config = _load_run_config(args)
    spec = config.corpus_spec()
    for flag, count in (("--train-examples", args.train_examples),
                        ("--eval-examples", args.eval_examples)):
        if count < 1:
            raise ValidationError(f"{flag} must be >= 1, got {count}")
    classes = config.finetune.num_classes
    files = [("training", f"task_train_{args.language}.tsv", generate_labeled_task(
        spec, args.language, args.train_examples, config.seeds.task, classes))]
    files += [("eval", f"task_eval_{lang.name}.tsv", generate_labeled_task(
        spec, lang.name, args.eval_examples, config.seeds.task + 6_151 * (i + 1), classes))
        for i, lang in enumerate(spec.languages)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for kind, name, rows in files:
        write_labeled(out / name, rows)
        print(f"wrote {len(rows)} {kind} examples to {out / name}")
    return 0


def cmd_cascade(args) -> int:
    config = _load_run_config(args)
    if args.teacher:
        teacher = load_checkpoint(args.teacher).model
    else:
        teacher = init_random(config.model, config.seeds.cascade)
    plan = config.cascade_plan(teacher.num_layers)
    vocab = _load_vocab(args.corpus, teacher.config)
    batches = _recycling_batches(_load_texts(args.corpus), vocab, teacher.config.max_seq_len,
                                 config.pretrain.batch_size, config.seeds.shuffle)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with MetricsWriter(out / METRICS_FILE) as writer:
        def on_stage_done(stage_result):
            path = out / f"stage_{stage_result.stage_index}_depth_{stage_result.student_depth}"
            save_checkpoint(path, stage_result.model,
                            stage_index=stage_result.stage_index,
                            step_count=len(stage_result.loss_trace))
            first, last = stage_result.loss_trace[0], stage_result.loss_trace[-1]
            print(f"stage {stage_result.stage_index}: depth "
                  f"{stage_result.teacher_depth} -> {stage_result.student_depth}, "
                  f"loss {first:.6g} -> {last:.6g}")

        result = run_cascade(plan, teacher, batches, config.seeds.cascade,
                             dropout=not args.deterministic, metrics=writer.write,
                             on_stage_done=on_stage_done)
    save_checkpoint(out / "final", result.final_model,
                    stage_index=len(plan.stages) - 1,
                    step_count=plan.total_steps)
    print(f"final model: {result.final_model.num_layers} layers -> {out / 'final'}")
    return 0


def cmd_finetune(args) -> int:
    config = _load_run_config(args)
    bundle = load_checkpoint(args.model)
    vocab = _load_vocab(args.corpus, bundle.model.config)
    language, batch = _labeled_batch(args.train, vocab, bundle.model.config.max_seq_len)
    finetune_config = config.finetune_config(config.seeds.finetune)
    if args.deterministic:
        finetune_config = replace(finetune_config, dropout=False)
    model, head = fine_tune(bundle.model, batch, finetune_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "finetuned", model, head=head)
    score = accuracy(model, head, batch)
    print(f"fine-tuned on {language} ({len(batch)} examples), "
          f"train accuracy {score:.4f}")
    return 0


def cmd_eval(args) -> int:
    bundle = load_checkpoint(args.model)
    if bundle.head is None:
        raise ValidationError("checkpoint has no classifier head; run finetune first")
    vocab = _load_vocab(args.corpus, bundle.model.config)
    eval_sets = {}
    for path in args.eval_files:
        language, batch = _labeled_batch(path, vocab, bundle.model.config.max_seq_len)
        if language in eval_sets:
            raise ValidationError(f"{path}: a second eval set for language {language!r}")
        eval_sets[language] = batch
    result = zero_shot_eval(bundle.model, bundle.head, eval_sets)
    label = args.label or f"{bundle.model.num_layers}-layer"
    payload = {"label": label, "per_language": result.per_language,
               "average": result.average}
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_report(args) -> int:
    rows = []
    provided = {}
    for path in args.results:
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            label, accuracies = payload["label"], payload["per_language"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(
                f"{path}: not an eval result: {type(exc).__name__}: {exc}") from None
        if not (isinstance(label, str) and isinstance(accuracies, dict) and accuracies
                and all(map(_is_number, [*accuracies.values(),
                                         payload.get("average", 0.0)]))):
            raise ValidationError(
                f"{path}: not an eval result: needs a string label, a non-empty "
                f"per_language map of accuracies and a numeric average if any")
        rows.append((label, accuracies))
        if "average" in payload:
            provided[label] = payload["average"]
    table = emit_report(rows, provided_averages=provided)
    print(table, end="")
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadekd",
        description="Shrink a deep encoder one layer at a time by "
                    "distilling against adjacent-layer averages.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="INI run configuration; defaults when omitted")
        p.add_argument("--seed", type=int,
                       help="override every seed in the [seeds] section")

    def add_training(p):
        add_config(p)
        p.add_argument("--deterministic", action="store_true",
                       help="train without dropout")

    p = sub.add_parser("init-config", help="write the default configuration")
    add_config(p)
    p.add_argument("--out", required=True, help="path of the INI file to write")
    p.set_defaults(func=cmd_init_config)

    p = sub.add_parser("gen-corpus", help="synthesize the pretraining corpus")
    add_config(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lines", type=int, help="override [corpus] total_lines")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("gen-task", help="synthesize the labeled task")
    add_config(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--language", required=True, help="training language")
    p.add_argument("--train-examples", type=int, default=384)
    p.add_argument("--eval-examples", type=int, default=128)
    p.set_defaults(func=cmd_gen_task)

    p = sub.add_parser("cascade",
                       help="shrink a teacher one layer per stage to [cascade] end_depth")
    add_training(p)
    p.add_argument("--corpus", required=True, help="directory from gen-corpus")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--teacher", help="teacher checkpoint (random init when omitted)")
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on labeled data")
    add_training(p)
    p.add_argument("--corpus", required=True, help="directory from gen-corpus")
    p.add_argument("--model", required=True, help="checkpoint to fine-tune")
    p.add_argument("--train", required=True, help="labeled training file")
    p.add_argument("--out", required=True, help="run output directory")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="score a fine-tuned checkpoint per language")
    p.add_argument("--corpus", required=True, help="directory from gen-corpus")
    p.add_argument("--model", required=True, help="fine-tuned checkpoint")
    p.add_argument("--label", help="row label for later reports")
    p.add_argument("--out", help="also write the result JSON here")
    p.add_argument("eval_files", nargs="+", help="labeled eval files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render eval results as a table")
    p.add_argument("--out", help="also write the table here")
    p.add_argument("results", nargs="+", help="JSON files from eval --out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # runtime failures here.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CascadeKDError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
