"""The benchmark's workloads, driven through cascadekd's public API the way
the `cascadekd` CLI drives it.

Every workload generates its own inputs from one seed and then repeats a
fixed unit of work, a *round*, until the measuring time is used up.
A round always does the same work, so every round of a run must produce
the same losses and accuracies; that is checked. Untraced rounds call the
library's own loops (`run_cascade`, `run_stage`, `fine_tune`,
`zero_shot_eval`) and time each optimizer step from outside. Traced
rounds replay those loops step by step through the same public functions,
with a span around each call, and must reproduce the untraced results
exactly. See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from cascadekd import (
    Adam,
    Batch,
    ClassifierHead,
    DistillStagePlan,
    MetricsWriter,
    ModelConfig,
    OptimizerConfig,
    TokenizerVocab,
    backward,
    batch_stream,
    build_cascade_plan,
    classify,
    cross_entropy,
    emit_report,
    encode_batch,
    fine_tune,
    generate_labeled_task,
    generate_synthetic_corpus,
    init_random,
    load_checkpoint,
    lr_at,
    no_grad,
    predict,
    read_metrics,
    run_cascade,
    run_stage,
    save_checkpoint,
    shuffle_lines,
    top_layer_init,
    total_distill_loss,
    zero_shot_eval,
)
from cascadekd.config import PRETRAIN_EPSILON, default_config
from cascadekd.corpus import CorpusSpec, class_marker
from cascadekd.errors import NonFiniteLossError

from measure import durations, median, self_time_by_parent

METRICS_FILE = "metrics.jsonl"
SETUP_REPEATS = 3
MB = 1e6
CHANCE_ACCURACY = 1.0 / 3.0
LOSS_WINDOW = 10
CLASS_MARKERS = [class_marker(c) for c in range(default_config().finetune.num_classes)]

# Per-layer metrics counted from the graph and from shapes, not timed;
# they repeat exactly for a seed.
COMPUTED = frozenset({"tensor.nodes_per_step", "tensor.graph_mb_per_step",
                      "encoder.matmul_gflop_per_step", "training.loss_nodes_per_step",
                      "checkpoint.mb_written"})


class GateFailure(Exception):
    """An output of the program is wrong; the run must not report a result."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass
class Round:
    """What one round did and how long it took."""

    wall_s: float
    step_s: list[float] = field(default_factory=list)
    examples: int = 0
    stage_losses: list[list[float]] = field(default_factory=list)
    accuracy: Optional[dict[str, float]] = None
    steps: int = 0
    weights_digest: str = ""
    bytes_written: int = 0
    eval_sets: int = 0
    eval_s: float = 0.0


@dataclass
class Counts:
    """Counts computed from the graph and from shapes, never timed."""

    nodes: list[int] = field(default_factory=list)
    loss_nodes: list[int] = field(default_factory=list)
    graph_bytes: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# computed counts
# ---------------------------------------------------------------------------

def _reachable(roots) -> list:
    seen, stack, out = set(), list(roots), []
    while stack:
        tensor = stack.pop()
        if id(tensor) in seen:
            continue
        seen.add(id(tensor))
        out.append(tensor)
        if tensor._ctx is not None:
            stack.extend(tensor._ctx.parents)
    return out


def graph_nodes(roots) -> int:
    """Tape nodes (tensors produced by a recorded op) behind `roots`."""
    return sum(1 for t in _reachable(roots) if t._ctx is not None)


def graph_bytes(root) -> int:
    """Bytes of the arrays the graph behind `root` keeps alive: every
    node's output and the arrays its op saved for backward, plus constant
    inputs; trainable parameters are the model's, not the graph's."""
    buffers = {}
    for tensor in _reachable([root]):
        if tensor._ctx is None and tensor.requires_grad:
            continue
        arrays = [tensor.data]
        if tensor._ctx is not None:
            arrays += [v for v in vars(tensor._ctx).values() if isinstance(v, np.ndarray)]
        for array in arrays:
            while isinstance(array.base, np.ndarray):
                array = array.base
            buffers[id(array)] = array.nbytes
    return sum(buffers.values())


def encoder_matmul_flops(config: ModelConfig, layers: int, batch: int, seq: int) -> int:
    """Forward matmul FLOPs of `layers` encoder layers (2 per multiply-add):
    Q/K/V/output projections, scores, context and the two FFN matmuls."""
    d, f = config.hidden_dim, config.ffn_dim
    return layers * (8 * batch * seq * d * d + 4 * batch * seq * seq * d
                     + 4 * batch * seq * d * f)


def head_matmul_flops(hidden: int, classes: int, batch: int) -> int:
    return 2 * batch * hidden * hidden + 2 * batch * hidden * classes


# The tape's MatMul backward always forms both input gradients, so a
# recorded forward matmul costs twice its FLOPs again in backward.
BACKWARD_FACTOR = 3


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def params_digest(named) -> str:
    digest = hashlib.sha256()
    for name, tensor in named:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(tensor.data).tobytes())
    return digest.hexdigest()


def check_reload(tracer, path: Path, model, head=None):
    """The checkpoint must load digest-verified and equal what was saved."""
    with tracer.span("checkpoint.load"):
        bundle = load_checkpoint(path)
    gate(params_digest(bundle.model.parameters()) == params_digest(model.parameters()),
         f"{path}: reloaded encoder weights differ from the saved model")
    if head is not None:
        gate(bundle.head is not None and
             params_digest(bundle.head.parameters()) == params_digest(head.parameters()),
             f"{path}: reloaded classifier head differs from the saved one")
    return bundle


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def recycling_batches(texts, vocab, max_len: int, batch_size: int,
                      seed: int) -> Iterator[Batch]:
    """Endless batch stream reshuffled each pass, as the CLI feeds stages."""
    pass_index = 0
    while True:
        yield from batch_stream(shuffle_lines(texts, seed + pass_index),
                                vocab, max_len, batch_size)
        pass_index += 1


def check_step_records(path: Path, expected: list[tuple[int, int]],
                       losses: list[float]) -> None:
    records = read_metrics(path)
    keys = [(r["stage"], r["step"]) for r in records]
    gate(len(keys) == len(set(keys)), f"{path}: duplicate (stage, step) records")
    gate(sorted(keys) == sorted(expected),
         f"{path}: {len(keys)} records, expected one per step ({len(expected)})")
    gate([r["loss"] for r in records] == losses, f"{path}: logged losses differ")


def check_finite(losses) -> None:
    gate(all(math.isfinite(x) for x in losses), "a step loss is not finite")


class StepClock:
    """Times optimizer steps from outside the library: each call to `tick`
    ends a step; `restart` marks work between steps that is not a step."""

    def __init__(self):
        self.step_s: list[float] = []
        self._last = time.perf_counter()

    def restart(self) -> None:
        self._last = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        self.step_s.append(now - self._last)
        self._last = now


class StampedBatch(Batch):
    """A labeled batch that ends a step on every `take`: `fine_tune` takes
    exactly one batch per optimizer step, so the gaps between takes are
    step times."""

    clock: StepClock

    def take(self, indices) -> Batch:
        self.clock.tick()
        return super().take(indices)


def traced_accumulate(span, loss_fn, micros, optimizer, lr: float,
                      graphs: Optional[list] = None) -> float:
    """`accumulate_and_step` replayed with spans around backward and Adam.

    `loss_fn` returns the loss and the model outputs it was computed from.
    Objects live exactly as long as in the library, where a step's graphs
    are freed on return: the moment large arrays are freed decides how
    much time goes to page faults. With `graphs` given, each micro-batch's
    scaled loss and outputs are kept there for counting.
    """
    total_examples = sum(len(m) for m in micros)
    optimizer.zero_grad()
    total = 0.0
    for micro in micros:
        weight = len(micro) / total_examples
        loss, outputs = loss_fn(micro)
        with span("tensor.backward"):
            scaled = loss * weight
            backward(scaled)
        total += loss.item() * weight
        if graphs is not None:
            graphs.append((scaled, outputs))
    if not math.isfinite(total):
        raise NonFiniteLossError(f"accumulated loss is {total}")
    with span("training.adam"):
        optimizer.step(lr)
    optimizer.zero_grad()
    return total


def count_graphs(graphs, counts: Counts) -> None:
    """Nodes, loss nodes and bytes of one step's graphs."""
    counts.nodes.append(sum(graph_nodes([g]) for g, _ in graphs))
    counts.loss_nodes.append(sum(graph_nodes([g]) - graph_nodes(outputs)
                                 for g, outputs in graphs))
    counts.graph_bytes.append(sum(graph_bytes(g) for g, _ in graphs))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Seeded inputs built by `setup`, then identical rounds of work."""

    name = ""

    def __init__(self, seed: int, tracer, work_dir: Path):
        self.seed = seed
        self.tracer = tracer
        self.work_dir = work_dir

    def same_result(self, a: Round, b: Round) -> bool:
        return (a.stage_losses, a.accuracy, a.weights_digest) == \
            (b.stage_losses, b.accuracy, b.weights_digest)

    def layer_metrics(self, spans, counts: Counts, traced: list[Round],
                      untraced: list[Round]) -> dict[str, tuple[float, str]]:
        """Per-layer figures from the spans of the traced rounds and set-ups."""
        steps = self_time_by_parent(spans, "training.step")

        def per_step(name: str) -> float:
            return median([step.get(name, 0.0) for step in steps])

        def each(name: str) -> float:
            return median(durations(spans, name))

        flops = self.step_flops()
        compute_s = per_step("encoder.nograd_forward") + per_step("encoder.grad_forward") \
            + per_step("tensor.backward")
        overhead = median([r.wall_s for r in traced]) / median([r.wall_s for r in untraced])
        return {
            "tensor.nodes_per_step": (float(np.mean(counts.nodes)), "count"),
            "tensor.backward_ms_per_step": (per_step("tensor.backward") * 1e3, "ms"),
            "tensor.graph_mb_per_step": (float(np.mean(counts.graph_bytes)) / MB, "MB"),
            "encoder.grad_forward_ms_per_step": (per_step("encoder.grad_forward") * 1e3, "ms"),
            "encoder.nograd_forward_us_per_example":
                (self.nograd_s_per_example(spans, per_step) * 1e6, "us"),
            "encoder.matmul_gflop_per_step": (flops / 1e9, "GFLOP"),
            "encoder.gflop_per_s": (flops / 1e9 / compute_s, "GFLOP/s"),
            "training.loss_ms_per_step": (per_step("training.loss") * 1e3, "ms"),
            "training.loss_nodes_per_step": (float(np.mean(counts.loss_nodes)), "count"),
            "training.adam_ms_per_step": (per_step("training.adam") * 1e3, "ms"),
            "training.step_ms_p50": (each("training.step") * 1e3, "ms"),
            "corpus.generate_lines_per_s": (self.lines_generated / each("corpus.generate"), "1/s"),
            "corpus.vocab_build_s": (each("corpus.vocab_build"), "s"),
            "corpus.encode_examples_per_s": (self.encode_examples_per_s(spans, per_step), "1/s"),
            "corpus.batch_wait_ms_per_step": (per_step("corpus.batch_wait") * 1e3, "ms"),
            "checkpoint.save_ms": (each("checkpoint.save") * 1e3, "ms"),
            "checkpoint.load_ms": (each("checkpoint.load") * 1e3, "ms"),
            "checkpoint.mb_written": (traced[0].bytes_written / MB, "MB"),
            "reporting.write_us_per_record": (each("reporting.write") * 1e6, "us"),
            "trace.overhead_pct": ((overhead - 1.0) * 100.0, "%"),
        }


class DistillWorkload(Workload):
    """Shared by desk-cascade and mid-stage: a seeded corpus, vocabulary
    and teacher, and a recycling batch stream into distillation steps."""

    corpus_lines = 0
    warmup_steps = 1

    def corpus_spec(self) -> CorpusSpec:
        raise NotImplementedError

    def model_config(self) -> ModelConfig:
        raise NotImplementedError

    def optimizer(self) -> OptimizerConfig:
        raise NotImplementedError

    def stage_plans(self, steps: int) -> list[DistillStagePlan]:
        raise NotImplementedError

    def setup(self) -> None:
        span = self.tracer.span
        with span("corpus.generate"):
            lines = generate_synthetic_corpus(self.corpus_spec(), self.corpus_lines, self.seed)
        with span("corpus.shuffle"):
            lines = shuffle_lines(lines, self.seed)
        self.texts = [text for _, text in lines]
        self.lines_generated = len(lines)
        with span("corpus.vocab_build"):
            self.vocab = TokenizerVocab.build(
                self.texts, self.model_config().vocab_size,
                extra_tokens=CLASS_MARKERS)
        with span("encoder.init"):
            self.teacher = init_random(self.model_config(), self.seed)

    def fingerprint(self) -> str:
        """Digest of every generated input: corpus, vocabulary, teacher and
        the first batches of the stream."""
        digest = hashlib.sha256()
        digest.update(json.dumps(self.texts).encode())
        digest.update(json.dumps(self.vocab.token_to_id, sort_keys=True).encode())
        digest.update(params_digest(self.teacher.parameters()).encode())
        stream = self.stream()
        for _ in range(2):
            batch = next(stream)
            digest.update(batch.token_ids.tobytes() + batch.attention_mask.tobytes())
        return digest.hexdigest()

    def stream(self) -> Iterator[Batch]:
        return recycling_batches(self.texts, self.vocab, self.model_config().max_seq_len,
                                 self.optimizer().batch_size, self.seed)

    def warm_up(self, out: Path) -> None:
        self.run_round(out, self.warmup_steps)

    def run_round(self, out: Path, steps: Optional[int] = None) -> Round:
        raise NotImplementedError

    def finish_round(self, out: Path, start: float, stage_losses, final_model,
                     saved, step_s=()) -> Round:
        wall = time.perf_counter() - start
        examples_per_step = self.optimizer().batch_size
        steps = sum(map(len, stage_losses))
        result = Round(wall_s=wall, step_s=list(step_s), examples=steps * examples_per_step,
                       stage_losses=stage_losses, steps=steps,
                       weights_digest=params_digest(final_model.parameters()),
                       bytes_written=dir_bytes(out))
        self.check_round(out, result, saved)
        return result

    def check_round(self, out: Path, result: Round, saved) -> None:
        losses = [x for stage in result.stage_losses for x in stage]
        check_finite(losses)
        expected = [(i, s) for i, stage in enumerate(result.stage_losses)
                    for s in range(len(stage))]
        check_step_records(out / METRICS_FILE, expected, losses)
        for path, model in saved:
            check_reload(self.tracer, path, model)

    def traced_stage(self, plan: DistillStagePlan, teacher, stream, seed: int,
                     stage_index: int, writer, counts: Counts):
        """`run_stage` replayed call by call with a span around each; the
        first step's graphs are counted after that step ends."""
        span = self.tracer.span
        student = top_layer_init(teacher)
        optimizer = Adam(student.trainable_parameters(), plan.optimizer)
        schedule = plan.schedule()
        rng = np.random.default_rng(seed)
        losses = []
        for step in range(plan.steps):
            graphs = [] if step == 0 else None
            with span("training.step"):
                with span("corpus.batch_wait"):
                    batch = next(stream)
                teacher_seed = int(rng.integers(2**63))
                student_seed = int(rng.integers(2**63))

                def loss_fn(micro):
                    with span("encoder.nograd_forward"):
                        with no_grad():
                            t_trace = teacher.forward(micro.token_ids, micro.attention_mask,
                                                      training_mode=True,
                                                      dropout_seed=teacher_seed)
                    with span("encoder.grad_forward"):
                        s_trace = student.forward(micro.token_ids, micro.attention_mask,
                                                  training_mode=True, dropout_seed=student_seed)
                    with span("training.loss"):
                        loss = total_distill_loss(t_trace, s_trace)
                    return loss, s_trace.hidden + s_trace.attentions

                lr = lr_at(schedule, plan.optimizer.peak_lr, step)
                micros = batch.split(plan.optimizer.micro_batch_size)
                try:
                    total = traced_accumulate(span, loss_fn, micros, optimizer, lr, graphs)
                except NonFiniteLossError as exc:
                    raise NonFiniteLossError(f"stage {stage_index} step {step}: {exc}") from None
            with span("reporting.write"):
                writer.write({"stage": stage_index, "step": step, "lr": lr, "loss": total})
            losses.append(total)
            if graphs:
                count_graphs(graphs, counts)
        return student, losses

    def step_flops(self) -> float:
        """Matmul FLOPs of one optimizer step, averaged over the stages."""
        config, batch = self.model_config(), self.optimizer().batch_size
        plans = self.stage_plans(1)
        return sum(encoder_matmul_flops(config, p.teacher_depth, batch, config.max_seq_len)
                   + BACKWARD_FACTOR * encoder_matmul_flops(config, p.student_depth, batch,
                                                            config.max_seq_len)
                   for p in plans) / len(plans)

    def nograd_s_per_example(self, spans, per_step) -> float:
        return per_step("encoder.nograd_forward") / self.optimizer().batch_size

    def encode_examples_per_s(self, spans, per_step) -> float:
        # Batches are encoded as the stream yields them.
        return self.optimizer().batch_size / per_step("corpus.batch_wait")


class DeskCascade(DistillWorkload):
    """The shipped desk model shrunk 6 -> 3, as `cascadekd cascade` does."""

    name = "desk-cascade"
    steps_per_stage = 100
    warmup_steps = 5

    def __init__(self, seed: int, tracer, work_dir: Path):
        super().__init__(seed, tracer, work_dir)
        self.config = default_config().with_seed(seed)
        self.corpus_lines = self.config.corpus.total_lines

    def corpus_spec(self) -> CorpusSpec:
        return self.config.corpus_spec()

    def model_config(self) -> ModelConfig:
        return self.config.model

    def optimizer(self) -> OptimizerConfig:
        return self.config.pretrain_optimizer()

    def plan(self, steps: int):
        return build_cascade_plan(
            self.config.cascade.start_depth, self.config.cascade.end_depth,
            self.optimizer(), steps_per_stage=steps,
            warmup_steps=max(1, steps // 10), first_stage_full_warmup=True)

    def stage_plans(self, steps: int) -> list[DistillStagePlan]:
        return list(self.plan(steps).stages)

    @staticmethod
    def stage_dir(out: Path, stage_index: int, depth: int) -> Path:
        return out / f"stage_{stage_index}_depth_{depth}"

    def run_round(self, out: Path, steps: Optional[int] = None) -> Round:
        plan = self.plan(steps or self.steps_per_stage)
        clock = StepClock()
        saved = []
        out.mkdir(parents=True)
        start = time.perf_counter()
        with MetricsWriter(out / METRICS_FILE) as writer:
            def on_step(record):
                clock.tick()
                writer.write(record)

            def on_stage_done(stage):
                path = self.stage_dir(out, stage.stage_index, stage.student_depth)
                save_checkpoint(path, stage.model, stage_index=stage.stage_index,
                                step_count=len(stage.loss_trace))
                saved.append((path, stage.model))
                clock.restart()

            clock.restart()
            result = run_cascade(plan, self.teacher, self.stream(), self.seed,
                                 metrics=on_step, on_stage_done=on_stage_done)
        save_checkpoint(out / "final", result.final_model,
                        stage_index=len(plan.stages) - 1, step_count=plan.total_steps)
        saved.append((out / "final", result.final_model))
        return self.finish_round(out, start, [s.loss_trace for s in result.stages],
                                 result.final_model, saved, clock.step_s)

    def run_traced_round(self, out: Path, counts: Counts) -> Round:
        """`run_cascade` replayed stage by stage."""
        span = self.tracer.span
        plan = self.plan(self.steps_per_stage)
        seed_rng = np.random.default_rng(self.seed)
        stream = self.stream()
        saved, stage_losses = [], []
        current = self.teacher
        out.mkdir(parents=True)
        start = time.perf_counter()
        with MetricsWriter(out / METRICS_FILE) as writer:
            for i, stage in enumerate(plan.stages):
                stage_seed = int(seed_rng.integers(2**63))
                current, losses = self.traced_stage(stage, current, stream, stage_seed,
                                                    i, writer, counts)
                path = self.stage_dir(out, i, stage.student_depth)
                with span("checkpoint.save"):
                    save_checkpoint(path, current, stage_index=i, step_count=len(losses))
                saved.append((path, current))
                stage_losses.append(losses)
        with span("checkpoint.save"):
            save_checkpoint(out / "final", current, stage_index=len(plan.stages) - 1,
                            step_count=plan.total_steps)
        saved.append((out / "final", current))
        return self.finish_round(out, start, stage_losses, current, saved)

    def check_round(self, out: Path, result: Round, saved) -> None:
        super().check_round(out, result, saved)
        last = result.stage_losses[-1]
        if len(last) >= 2 * LOSS_WINDOW:
            first, end = np.mean(last[:LOSS_WINDOW]), np.mean(last[-LOSS_WINDOW:])
            gate(end < first, f"last stage loss did not fall: {first:.6g} -> {end:.6g}")


class MidStage(DistillWorkload):
    """One 3 -> 2 stage at mid scale, as `cascadekd distill` runs it, with
    each batch of 16 accumulated over two micro-batches of 8."""

    name = "mid-stage"
    steps = 4
    corpus_lines = 512

    def corpus_spec(self) -> CorpusSpec:
        # Lines of 96-126 words fill 98-128 of the 128 positions, so the
        # masked-loss path runs on nearly full sequences.
        return CorpusSpec.from_sizes(default_config().language_sizes(),
                                     min_words_per_line=96, max_words_per_line=126)

    def model_config(self) -> ModelConfig:
        return ModelConfig(vocab_size=256, hidden_dim=256, num_layers=3, num_heads=4,
                           ffn_dim=1024, max_seq_len=128)

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(peak_lr=3e-3, batch_size=16, micro_batch_size=8,
                               epsilon=PRETRAIN_EPSILON)

    def stage_plans(self, steps: int) -> list[DistillStagePlan]:
        return [DistillStagePlan(teacher_depth=3, student_depth=2,
                                 optimizer=self.optimizer(), steps=steps,
                                 warmup_steps=steps)]

    def run_round(self, out: Path, steps: Optional[int] = None) -> Round:
        (plan,) = self.stage_plans(steps or self.steps)
        clock = StepClock()
        out.mkdir(parents=True)
        start = time.perf_counter()
        with MetricsWriter(out / METRICS_FILE) as writer:
            def on_step(record):
                clock.tick()
                writer.write(record)

            clock.restart()
            student, losses = run_stage(plan, self.teacher, self.stream(), self.seed,
                                        metrics=on_step)
        save_checkpoint(out / "student", student, step_count=len(losses))
        return self.finish_round(out, start, [losses], student,
                                 [(out / "student", student)], clock.step_s)

    def run_traced_round(self, out: Path, counts: Counts) -> Round:
        (plan,) = self.stage_plans(self.steps)
        out.mkdir(parents=True)
        start = time.perf_counter()
        with MetricsWriter(out / METRICS_FILE) as writer:
            student, losses = self.traced_stage(plan, self.teacher, self.stream(),
                                                self.seed, 0, writer, counts)
        with self.tracer.span("checkpoint.save"):
            save_checkpoint(out / "student", student, step_count=len(losses))
        return self.finish_round(out, start, [losses], student, [(out / "student", student)])


class FinetuneEval(Workload):
    """A seeded 3-layer desk student fine-tuned on one language and scored
    on four, as `cascadekd finetune` and `cascadekd eval` do."""

    name = "finetune-eval"
    train_language = "en"
    train_examples = 384
    eval_examples = 2048
    vocab_lines = 4096
    student_layers = 3

    def __init__(self, seed: int, tracer, work_dir: Path):
        super().__init__(seed, tracer, work_dir)
        self.config = default_config().with_seed(seed)
        self.student_dir = work_dir / "student"

    def setup(self) -> None:
        span = self.tracer.span
        spec = self.config.corpus_spec()
        classes = self.config.finetune.num_classes
        with span("corpus.generate"):
            lines = generate_synthetic_corpus(spec, self.vocab_lines, self.seed)
            train_rows = generate_labeled_task(spec, self.train_language,
                                               self.train_examples, self.seed, classes)
            # Eval seeds follow `cascadekd gen-task`.
            eval_rows = {lang.name: generate_labeled_task(spec, lang.name, self.eval_examples,
                                                          self.seed + 6_151 * (i + 1), classes)
                         for i, lang in enumerate(spec.languages)}
        self.lines_generated = len(lines) + len(train_rows) + \
            sum(map(len, eval_rows.values()))
        with span("corpus.vocab_build"):
            self.vocab = TokenizerVocab.build(
                (text for _, text in lines), self.config.corpus.vocab_size,
                extra_tokens=[class_marker(c) for c in range(classes)])
        max_len = self.config.model.max_seq_len
        with span("corpus.encode"):
            self.train = encode_batch([r[2] for r in train_rows], self.vocab, max_len,
                                      labels=[r[1] for r in train_rows])
            self.eval_sets = {lang: encode_batch([r[2] for r in rows], self.vocab, max_len,
                                                 labels=[r[1] for r in rows])
                              for lang, rows in eval_rows.items()}
        self.encoded_examples = len(self.train) + sum(map(len, self.eval_sets.values()))
        with span("encoder.init"):
            student = init_random(self.config.model.with_layers(self.student_layers),
                                  self.seed)
        with span("checkpoint.save"):
            save_checkpoint(self.student_dir, student, stage_index=2)
        check_reload(self.tracer, self.student_dir, student)

    def fingerprint(self) -> str:
        """Digest of every generated input: vocabulary, labeled sets and
        the saved student."""
        digest = hashlib.sha256()
        digest.update(json.dumps(self.vocab.token_to_id, sort_keys=True).encode())
        for batch in [self.train, *self.eval_sets.values()]:
            digest.update(batch.token_ids.tobytes() + batch.attention_mask.tobytes()
                          + batch.labels.tobytes())
        digest.update((self.student_dir / "weights.bin").read_bytes())
        return digest.hexdigest()

    def finetune_config(self, epochs: Optional[int] = None):
        config = self.config.finetune_config(self.seed)
        return config if epochs is None else replace(config, epochs=epochs)

    def warm_up(self, out: Path) -> None:
        # A full-size eval: the allocator settles its thresholds for the
        # large eval arrays only after it has freed them once.
        model = load_checkpoint(self.student_dir).model
        model, head = fine_tune(model, self.train, self.finetune_config(epochs=1))
        zero_shot_eval(model, head, self.eval_sets)

    def run_round(self, out: Path) -> Round:
        config = self.finetune_config()
        clock = StepClock()
        data = StampedBatch(self.train.token_ids, self.train.attention_mask, self.train.labels)
        data.clock = clock
        out.mkdir(parents=True)
        start = time.perf_counter()
        model = load_checkpoint(self.student_dir).model
        clock.restart()
        model, head = fine_tune(model, data, config)
        clock.tick()
        save_checkpoint(out / "finetuned", model, head=head)
        bundle = load_checkpoint(out / "finetuned")
        eval_start = time.perf_counter()
        result = zero_shot_eval(bundle.model, bundle.head, self.eval_sets)
        eval_s = time.perf_counter() - eval_start
        emit_report([(f"student-{self.student_layers}", result.per_language)])
        # The first tick ends the head set-up before the first batch, not a step.
        step_s = clock.step_s[1:]
        result = self.finish_round(out, start, config, model, head, result.per_language,
                                   step_s, eval_s)
        gate(len(step_s) == result.steps,
             f"fine_tune took {len(step_s)} batches, expected {result.steps}")
        return result

    def run_traced_round(self, out: Path, counts: Counts) -> Round:
        span = self.tracer.span
        config = self.finetune_config()
        out.mkdir(parents=True)
        start = time.perf_counter()
        with span("checkpoint.load"):
            model = load_checkpoint(self.student_dir).model
        model, head = self.traced_fine_tune(model, config, counts)
        with span("checkpoint.save"):
            save_checkpoint(out / "finetuned", model, head=head)
        with span("checkpoint.load"):
            bundle = load_checkpoint(out / "finetuned")
        accuracy = {}
        for lang, batch in self.eval_sets.items():
            with span("encoder.nograd_forward"):
                predicted = predict(bundle.model, bundle.head, batch)
            accuracy[lang] = float(np.mean(predicted == batch.labels))
        with span("reporting.write"):
            emit_report([(f"student-{self.student_layers}", accuracy)])
        return self.finish_round(out, start, config, model, head, accuracy)

    def finish_round(self, out: Path, start: float, config, model, head, accuracy,
                     step_s=(), eval_s=0.0) -> Round:
        wall = time.perf_counter() - start
        steps = config.epochs * -(-len(self.train) // config.optimizer.batch_size)
        result = Round(wall_s=wall, step_s=list(step_s), examples=config.epochs * len(self.train),
                       accuracy=accuracy, steps=steps,
                       weights_digest=params_digest(model.parameters() + head.parameters()),
                       bytes_written=dir_bytes(out), eval_sets=len(self.eval_sets),
                       eval_s=eval_s)
        check_reload(self.tracer, out / "finetuned", model, head)
        average = sum(accuracy.values()) / len(accuracy)
        gate(average > CHANCE_ACCURACY,
             f"eval accuracy {average:.4f} is not above chance {CHANCE_ACCURACY:.4f}")
        return result

    def traced_fine_tune(self, model, config, counts: Counts):
        """`fine_tune` replayed call by call with a span around each; the
        first step's graphs are counted after that step ends."""
        span = self.tracer.span
        rng = np.random.default_rng(config.seed)
        head = ClassifierHead(model.config.hidden_dim, config.num_classes,
                              seed=int(rng.integers(2**63)))
        params = model.trainable_parameters() + \
            [(f"head.{name}", p) for name, p in head.parameters()]
        optimizer = Adam(params, config.optimizer)
        batch_size = config.optimizer.batch_size
        data = self.train
        for _ in range(config.epochs):
            order = rng.permutation(len(data))
            for start in range(0, len(data), batch_size):
                graphs = [] if not counts.nodes else None
                with span("training.step"):
                    with span("corpus.batch_wait"):
                        batch = data.take(order[start:start + batch_size])
                    dropout_seed = int(rng.integers(2**63))

                    def loss_fn(micro):
                        with span("encoder.grad_forward"):
                            logits = classify(model, head, micro.token_ids,
                                              micro.attention_mask,
                                              training_mode=config.dropout,
                                              dropout_seed=dropout_seed)
                        with span("training.loss"):
                            loss = cross_entropy(logits, micro.labels)
                        return loss, [logits]

                    micros = batch.split(config.optimizer.micro_batch_size)
                    traced_accumulate(span, loss_fn, micros, optimizer,
                                      config.optimizer.peak_lr, graphs)
                if graphs:
                    count_graphs(graphs, counts)
        return model, head

    def step_flops(self) -> float:
        config, batch = self.config.model, self.config.finetune.batch_size
        return BACKWARD_FACTOR * (
            encoder_matmul_flops(config, self.student_layers, batch, config.max_seq_len)
            + head_matmul_flops(config.hidden_dim, self.config.finetune.num_classes, batch))

    def nograd_s_per_example(self, spans, per_step) -> float:
        evaluated = sum(map(len, self.eval_sets.values()))
        forwards = durations(spans, "encoder.nograd_forward")
        return sum(forwards) / (evaluated * len(forwards) / len(self.eval_sets))

    def encode_examples_per_s(self, spans, per_step) -> float:
        return self.encoded_examples / median(durations(spans, "corpus.encode"))


WORKLOADS = {w.name: w for w in (DeskCascade, MidStage, FinetuneEval)}
