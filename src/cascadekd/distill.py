"""Layer-shrinking distillation: top-layer student initialization, the
adjacent-layer-averaging losses, and the single-layer-at-a-time cascade.

A student with n layers is trained against a teacher with n+1 layers.
The supervision target for student layer j is the average of teacher
layers j and j+1: attention records and hidden outputs are matched under
mean-squared error, hidden outputs including the embedding output (index
1) up to the student's top output (index n+1). The per-batch objective is

    (1/n) * (sum_{j=1..n} attention_loss_j + sum_{k=1..n+1} hidden_loss_k)

with the attention loss at a layer averaged over heads. Teacher
activations are constants: no gradient ever reaches teacher weights.

Padded positions carry arbitrary content, so masked-out positions are
excluded from the hidden losses and padded query rows / key columns from
the attention losses; divisors count only included elements.

Each input is checked once, where it enters: `DistillStagePlan` holds the
depth rule and its schedule, `build_cascade_plan` rejects depths unless
start > end >= 1 and stages of fewer than one step, `CascadePlan` checks
that its stages chain, `run_stage` checks its teacher's depth before any
step, and the losses check each trace pair they are given.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .corpus import Batch
from .encoder import EncoderModel, ForwardTrace, ModelConfig
from .errors import DataExhaustedError, NonFiniteLossError, ValidationError
from .tensor import Tensor, mse, no_grad
from .training import (
    Adam,
    OptimizerConfig,
    ScheduleConfig,
    accumulate_and_step,
    lr_at,
)


def top_layer_init(teacher: EncoderModel) -> EncoderModel:
    """Student initialized with the teacher's lowest n layers, top layer cut.

    Layer weights are value-equal copies; the embeddings, which are frozen
    and never updated, are the teacher's own tensors, shared down the cascade.
    """
    if teacher.num_layers < 2:
        raise ValidationError(
            f"teacher with {teacher.num_layers} layer(s) cannot be shrunk")
    config = teacher.config.with_layers(teacher.num_layers - 1)
    student = EncoderModel(config, seed=None)
    for name in EncoderModel.EMBEDDING_PARAM_NAMES:
        setattr(student, name, getattr(teacher, name))
    student.layers = [layer.copy(config) for layer in teacher.layers[:-1]]
    return student


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _check_depths(teacher_depth: int, student_depth: int) -> None:
    """The single-layer shrink: teacher layers j and j+1 supervise student
    layer j, so the teacher has exactly one more layer than the student."""
    if not teacher_depth == student_depth + 1 >= 2:
        raise ValidationError(
            f"teacher depth {teacher_depth} must be student depth {student_depth} + 1 >= 2")


def _check_pair(teacher: ForwardTrace, student: ForwardTrace) -> tuple[np.ndarray, np.ndarray]:
    """Check that `student` is one layer shallower than `teacher`, traced on
    the same batch with the same shapes. Returns the include masks of the
    attention terms (query x key) and of the hidden terms."""
    _check_depths(teacher.depth, student.depth)
    if (len(teacher.hidden), len(student.hidden)) != (teacher.depth + 1, student.depth + 1):
        raise ValidationError("a trace needs one more hidden output than attention layers")
    mask = student.attention_mask
    if teacher.attention_mask.shape != mask.shape or \
            not np.array_equal(teacher.attention_mask, mask):
        raise ValidationError("teacher and student traces come from different batches")
    a_shape, h_shape = student.attentions[0].shape, student.hidden[0].shape
    if teacher.attentions[0].shape[1] != a_shape[1]:
        raise ValidationError(
            f"student has {a_shape[1]} heads, teacher has {teacher.attentions[0].shape[1]}")
    for a in teacher.attentions + student.attentions:
        if a.shape != a_shape:
            raise ValidationError(f"attention shapes differ: {a_shape} vs {a.shape}")
    for h in teacher.hidden + student.hidden:
        if h.shape != h_shape:
            raise ValidationError(f"hidden shapes differ: {h_shape} vs {h.shape}")
    return mask[:, None, :, None] & mask[:, None, None, :], mask[:, :, None]


def _term(student_t: Tensor, teacher_t: Tensor, teacher_next: Tensor,
          include: np.ndarray) -> Tensor:
    """MSE from a student record to the average of two adjacent teacher
    records; the target is a constant, so no gradient reaches the teacher."""
    return mse(student_t, (teacher_t.data + teacher_next.data) * 0.5, include=include)


def distill_terms(teacher: ForwardTrace, student: ForwardTrace) -> list[Tensor]:
    """The objective's 2n+1 terms, `[attn_1..attn_n, hidden_1..hidden_{n+1}]`.

    `attn_j` is the head-averaged MSE between student attention j and the
    average of teacher attentions j and j+1; `hidden_k` is the MSE between
    student hidden output k (1 = embedding output) and the average of
    teacher hidden outputs k and k+1.
    """
    attn_include, hidden_include = _check_pair(teacher, student)
    t_attn, t_hidden = teacher.attentions, teacher.hidden
    terms = [_term(s, t, t_next, attn_include)
             for s, t, t_next in zip(student.attentions, t_attn, t_attn[1:])]
    terms += [_term(s, t, t_next, hidden_include)
              for s, t, t_next in zip(student.hidden, t_hidden, t_hidden[1:])]
    return terms


def total_distill_loss(teacher: ForwardTrace, student: ForwardTrace) -> Tensor:
    """Per-batch distillation objective: the mean over the n student layers
    of the summed `distill_terms`."""
    terms = distill_terms(teacher, student)
    return sum(terms[1:], terms[0]) * (1.0 / student.depth)


# ---------------------------------------------------------------------------
# stage and cascade plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistillStagePlan:
    """One teacher -> student shrink step."""

    teacher_depth: int
    student_depth: int
    optimizer: OptimizerConfig
    steps: int
    warmup_steps: int

    def __post_init__(self):
        _check_depths(self.teacher_depth, self.student_depth)
        self.schedule()  # a bad step count or warmup fails here, not mid-cascade

    def schedule(self) -> ScheduleConfig:
        """The stage's trapezoid; warmup longer than the stage is clamped."""
        return ScheduleConfig(total_steps=self.steps,
                              warmup_steps=min(self.warmup_steps, self.steps))


@dataclass(frozen=True)
class CascadePlan:
    """Ordered shrink steps, at least one, each stage's student the next
    stage's teacher."""

    stages: tuple[DistillStagePlan, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValidationError("a cascade plan needs at least one stage")
        for stage, following in zip(self.stages, self.stages[1:]):
            if following.teacher_depth != stage.student_depth:
                raise ValidationError("stages do not chain depths exactly")

    @property
    def total_steps(self) -> int:
        return sum(stage.steps for stage in self.stages)


def build_cascade_plan(start_depth: int, end_depth: int, optimizer: OptimizerConfig,
                       steps_per_stage: int, warmup_steps: int,
                       first_stage_full_warmup: bool = True) -> CascadePlan:
    """Plan the chain start_depth -> start_depth-1 -> ... -> end_depth.

    The first stage defaults to warming up over all of its steps (training
    the deepest assistant decays more reliably that way): its warmup_steps
    is steps_per_stage. Later stages warm up over `warmup_steps`, then decay.
    """
    if not start_depth > end_depth >= 1:
        raise ValidationError(f"cannot shrink a {start_depth}-layer teacher to end_depth "
                              f"{end_depth}: need {start_depth} > end_depth >= 1")
    if steps_per_stage < 1:
        raise ValidationError(f"steps_per_stage must be >= 1, got {steps_per_stage}")
    stages = []
    for i, depth in enumerate(range(start_depth, end_depth, -1)):
        full = i == 0 and first_stage_full_warmup
        stages.append(DistillStagePlan(
            teacher_depth=depth, student_depth=depth - 1, optimizer=optimizer,
            steps=steps_per_stage,
            warmup_steps=steps_per_stage if full else warmup_steps))
    return CascadePlan(stages=tuple(stages))


# ---------------------------------------------------------------------------
# stage and cascade execution
# ---------------------------------------------------------------------------

MetricsCallback = Callable[[dict], None]

# A teacher forward of fewer matmul FLOPs than this per micro-batch runs on
# the calling thread: below it, two threads trading the GIL cost more than
# the worker's overlap gains. Measured crossover on a 2-core host with one
# BLAS thread: the worker took 1.23x the step time at 28 MFLOP and 0.95x
# at 36 MFLOP.
_WORKER_MIN_TEACHER_FLOPS = 32_000_000


def _teacher_on_worker(plan: DistillStagePlan, teacher: ModelConfig) -> bool:
    """Whether `run_stage` runs a teacher of this config on a worker thread:
    decided from the matmul FLOPs of its forward on a full micro-batch."""
    flops = teacher.forward_matmul_flops(plan.optimizer.micro_batch_size, teacher.max_seq_len)
    return flops >= _WORKER_MIN_TEACHER_FLOPS


class _CallingThread(Executor):
    """Runs each submitted call at once on the calling thread; an error is
    kept in the future and raised when its result is read, as a worker's is."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def run_stage(plan: DistillStagePlan, teacher: EncoderModel, data_stream: Iterator[Batch],
              seed: int, dropout: bool = True, stage_index: int = 0,
              metrics: Optional[MetricsCallback] = None) -> tuple[EncoderModel, list[float]]:
    """Distill `teacher` into a one-layer-shallower student.

    The student starts as `top_layer_init(teacher)` and takes `plan.steps`
    optimizer steps minimizing the total distillation loss; the teacher is
    never modified. Returns the student and the per-step loss trace.

    Within each optimizer step, the teacher's no-grad forward is submitted
    one micro-batch ahead of the student's forward and backward passes
    (micro-batch pipelining as in GPipe), and the pipeline drains at the
    end of the step. It runs on one worker thread when its matmul FLOPs on
    a full micro-batch reach `_WORKER_MIN_TEACHER_FLOPS`, so a second core
    does the teacher's work; a smaller teacher runs on the calling thread
    at the point of submission, and no thread is started. The choice
    depends on shapes only. Either way results are bit-identical to running
    the two in turn. Each step pulls its batch from `data_stream` and draws
    its (teacher, student) dropout seeds when it starts, so the stream is
    read exactly `plan.steps` times and a stream that runs out fails at
    the step that lacked a batch.
    """
    if teacher.num_layers != plan.teacher_depth:
        raise ValidationError(
            f"teacher has {teacher.num_layers} layers, plan expects {plan.teacher_depth}")
    student = top_layer_init(teacher)
    optimizer = Adam(student.trainable_parameters(), plan.optimizer)
    schedule = plan.schedule()
    rng = np.random.default_rng(seed)

    def teacher_forward(micro: Batch, teacher_seed: int) -> ForwardTrace:
        with no_grad():
            return teacher.forward(micro.token_ids, micro.attention_mask,
                                   training_mode=dropout, dropout_seed=teacher_seed)

    loss_trace: list[float] = []
    executor = ThreadPoolExecutor(max_workers=1) if _teacher_on_worker(plan, teacher.config) \
        else _CallingThread()
    with executor as worker:
        for step in range(plan.steps):
            try:
                batch = next(data_stream)
            except StopIteration:
                raise DataExhaustedError(
                    f"stage {stage_index}: data stream exhausted at step {step} "
                    f"of {plan.steps}") from None
            teacher_seed = int(rng.integers(2**63))
            student_seed = int(rng.integers(2**63))
            micros = batch.split(plan.optimizer.micro_batch_size)
            ahead = [worker.submit(teacher_forward, m, teacher_seed) for m in micros[:1]]
            following = iter(micros[1:])

            def loss_fn(micro: Batch) -> Tensor:
                current = ahead.pop()
                successor = next(following, None)
                if successor is not None:
                    ahead.append(worker.submit(teacher_forward, successor, teacher_seed))
                # The student's forward needs no teacher trace, so it runs
                # first: a step's first micro-batch overlaps it too.
                s_trace = student.forward(micro.token_ids, micro.attention_mask,
                                          training_mode=dropout, dropout_seed=student_seed)
                return total_distill_loss(current.result(), s_trace)

            lr = lr_at(schedule, plan.optimizer.peak_lr, step)
            try:
                loss = accumulate_and_step(loss_fn, micros, optimizer, lr)
            except NonFiniteLossError as exc:
                raise NonFiniteLossError(f"stage {stage_index} step {step}: {exc}") from None
            loss_trace.append(loss)
            if metrics is not None:
                metrics({"stage": stage_index, "step": step, "lr": lr, "loss": loss})
    return student, loss_trace


@dataclass
class StageResult:
    stage_index: int
    teacher_depth: int
    student_depth: int
    model: EncoderModel
    loss_trace: list[float]
    batch_range: tuple[int, int]


@dataclass
class CascadeResult:
    final_model: EncoderModel
    stages: list[StageResult] = field(default_factory=list)


def run_cascade(plan: CascadePlan, teacher: EncoderModel, data_stream: Iterable[Batch],
                seed: int, dropout: bool = True,
                metrics: Optional[MetricsCallback] = None,
                on_stage_done: Optional[Callable[[StageResult], None]] = None) -> CascadeResult:
    """Run every stage of the plan, each student becoming the next teacher.

    Stages consume contiguous, pairwise-disjoint slices of the batch
    stream, in order: `run_stage` reads exactly `stage.steps` batches, so
    `batch_range` on each result is the slice the plan assigns it. A
    teacher whose depth does not start the plan fails before any step.
    """
    stream = iter(data_stream)
    seed_rng = np.random.default_rng(seed)
    result = CascadeResult(final_model=teacher)
    start = 0
    for i, stage in enumerate(plan.stages):
        stage_seed = int(seed_rng.integers(2**63))
        student, trace = run_stage(stage, result.final_model, stream, stage_seed,
                                   dropout=dropout, stage_index=i, metrics=metrics)
        stage_result = StageResult(
            stage_index=i, teacher_depth=stage.teacher_depth,
            student_depth=stage.student_depth, model=student, loss_trace=trace,
            batch_range=(start, start + stage.steps))
        if on_stage_done is not None:
            on_stage_done(stage_result)
        result.stages.append(stage_result)
        result.final_model = student
        start += stage.steps
    return result
