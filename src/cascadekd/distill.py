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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .corpus import Batch
from .encoder import EncoderModel, ForwardTrace
from .errors import (
    DataExhaustedError,
    DepthMismatchError,
    DimensionMismatchError,
    HeadCountMismatchError,
    InvalidConfigError,
    LayerIndexOutOfRangeError,
    NonFiniteLossError,
    TeacherTooShallowError,
)
from .tensor import Tensor, mse, no_grad
from .training import (
    Adam,
    OptimizerConfig,
    ScheduleConfig,
    accumulate_and_step,
    lr_at,
)

ADJACENT_AVERAGE = "adjacent_average"


@dataclass(frozen=True)
class LayerMapSpec:
    """How teacher layers supervise student layers: the average of teacher
    layers j and j+1 maps to student layer j (single-layer shrink)."""

    student_depth: int
    teacher_depth: int
    strategy: str = ADJACENT_AVERAGE

    def __post_init__(self):
        if self.strategy != ADJACENT_AVERAGE:
            raise InvalidConfigError(f"unknown layer-map strategy {self.strategy!r}")
        if self.student_depth < 1:
            raise InvalidConfigError("student_depth must be >= 1")
        if self.teacher_depth != self.student_depth + 1:
            raise DepthMismatchError(
                f"teacher depth {self.teacher_depth} must be student depth "
                f"{self.student_depth} + 1")

    @classmethod
    def for_traces(cls, teacher: ForwardTrace, student: ForwardTrace) -> "LayerMapSpec":
        if teacher.depth != student.depth + 1:
            raise DepthMismatchError(
                f"teacher has {teacher.depth} attention layers, student has "
                f"{student.depth}; expected a single-layer shrink")
        return cls(student_depth=student.depth, teacher_depth=teacher.depth)


def top_layer_init(teacher: EncoderModel) -> EncoderModel:
    """Student initialized with the teacher's lowest n layers, top layer cut.

    Layer weights are value-equal copies; frozen embeddings are shared with
    the teacher (they are never updated), otherwise copied.
    """
    if teacher.num_layers < 2:
        raise TeacherTooShallowError(
            f"teacher with {teacher.num_layers} layer(s) cannot be shrunk")
    config = teacher.config.with_layers(teacher.num_layers - 1)
    student = EncoderModel(config, seed=None, embeddings_frozen=teacher.embeddings_frozen)
    if teacher.embeddings_frozen:
        for name in EncoderModel.EMBEDDING_PARAM_NAMES:
            setattr(student, name, getattr(teacher, name))
    else:
        for name in EncoderModel.EMBEDDING_PARAM_NAMES:
            getattr(student, name).data = getattr(teacher, name).data.copy()
    student.layers = [layer.copy(config) for layer in teacher.layers[:-1]]
    return student


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _check_same_batch(teacher: ForwardTrace, student: ForwardTrace) -> np.ndarray:
    if teacher.attention_mask.shape != student.attention_mask.shape or \
            not np.array_equal(teacher.attention_mask, student.attention_mask):
        raise DimensionMismatchError("teacher and student traces come from different batches")
    return student.attention_mask


def attention_layer_loss(teacher: ForwardTrace, student: ForwardTrace, j: int) -> Tensor:
    """Head-averaged MSE between student attention at layer j (1-based) and
    the average of teacher attentions at layers j and j+1."""
    LayerMapSpec.for_traces(teacher, student)
    if not 1 <= j <= student.depth:
        raise LayerIndexOutOfRangeError(f"attention layer {j} outside 1..{student.depth}")
    a_s = student.attention_at(j)
    a_t = teacher.attention_at(j).detach()
    a_t_next = teacher.attention_at(j + 1).detach()
    if a_s.shape[1] != a_t.shape[1]:
        raise HeadCountMismatchError(
            f"student has {a_s.shape[1]} heads, teacher has {a_t.shape[1]}")
    if a_s.shape != a_t.shape:
        raise DimensionMismatchError(
            f"attention shapes differ: {a_s.shape} vs {a_t.shape}")
    target = (a_t + a_t_next) * 0.5
    mask = _check_same_batch(teacher, student)
    return mse(a_s, target, include=mask[:, None, :, None] & mask[:, None, None, :])


def hidden_layer_loss(teacher: ForwardTrace, student: ForwardTrace, k: int) -> Tensor:
    """MSE between student hidden output k (1-based, 1 = embedding output)
    and the average of teacher hidden outputs k and k+1."""
    LayerMapSpec.for_traces(teacher, student)
    if not 1 <= k <= student.depth + 1:
        raise LayerIndexOutOfRangeError(f"hidden output {k} outside 1..{student.depth + 1}")
    h_s = student.hidden_at(k)
    h_t = teacher.hidden_at(k).detach()
    h_t_next = teacher.hidden_at(k + 1).detach()
    if h_s.shape != h_t.shape:
        raise DimensionMismatchError(f"hidden shapes differ: {h_s.shape} vs {h_t.shape}")
    target = (h_t + h_t_next) * 0.5
    mask = _check_same_batch(teacher, student)
    return mse(h_s, target, include=mask[:, :, None])


def total_distill_loss(teacher: ForwardTrace, student: ForwardTrace) -> Tensor:
    """Per-batch distillation objective over all mapped layers."""
    LayerMapSpec.for_traces(teacher, student)
    n = student.depth
    total = attention_layer_loss(teacher, student, 1)
    for j in range(2, n + 1):
        total = total + attention_layer_loss(teacher, student, j)
    for k in range(1, n + 2):
        total = total + hidden_layer_loss(teacher, student, k)
    return total * (1.0 / n)


# ---------------------------------------------------------------------------
# stage and cascade plans
# ---------------------------------------------------------------------------

DEFAULT_STAGE_STEPS = 66_666


@dataclass(frozen=True)
class DistillStagePlan:
    """One teacher -> student shrink step."""

    teacher_depth: int
    student_depth: int
    optimizer: OptimizerConfig
    steps: int = DEFAULT_STAGE_STEPS
    schedule_mode: str = ScheduleConfig.STANDARD
    warmup_steps: int = 6_666

    def __post_init__(self):
        if self.student_depth < 1:
            raise InvalidConfigError("student_depth must be >= 1")
        if self.teacher_depth != self.student_depth + 1:
            raise DepthMismatchError("a stage shrinks by exactly one layer")
        if self.steps < 1:
            raise InvalidConfigError("steps must be >= 1")

    def schedule(self) -> ScheduleConfig:
        if self.schedule_mode == ScheduleConfig.FULL_WARMUP:
            return ScheduleConfig.full_warmup(self.steps)
        return ScheduleConfig(total_steps=self.steps,
                              warmup_steps=min(self.warmup_steps, self.steps))


@dataclass(frozen=True)
class CascadePlan:
    """Ordered shrink steps from start_depth down to end_depth."""

    start_depth: int
    end_depth: int
    stages: tuple[DistillStagePlan, ...]

    def __post_init__(self):
        if self.end_depth < 1 or self.start_depth < self.end_depth:
            raise InvalidConfigError(
                f"bad cascade depths {self.start_depth} -> {self.end_depth}")
        if len(self.stages) != self.start_depth - self.end_depth:
            raise InvalidConfigError(
                f"{len(self.stages)} stages cannot take {self.start_depth} "
                f"layers to {self.end_depth}")
        depth = self.start_depth
        for stage in self.stages:
            if stage.teacher_depth != depth or stage.student_depth != depth - 1:
                raise InvalidConfigError("stages do not chain depths exactly")
            depth -= 1

    @property
    def total_steps(self) -> int:
        return sum(stage.steps for stage in self.stages)


def build_cascade_plan(start_depth: int, end_depth: int, optimizer: OptimizerConfig,
                       steps_per_stage: int = DEFAULT_STAGE_STEPS,
                       warmup_steps: int = 6_666,
                       first_stage_full_warmup: bool = True) -> CascadePlan:
    """Plan the chain start_depth -> start_depth-1 -> ... -> end_depth.

    The first stage defaults to warming up over all of its steps (training
    the deepest assistant decays more reliably that way); later stages use
    the standard warmup/decay split.
    """
    stages = []
    for i, depth in enumerate(range(start_depth, end_depth, -1)):
        mode = ScheduleConfig.FULL_WARMUP if (i == 0 and first_stage_full_warmup) \
            else ScheduleConfig.STANDARD
        stages.append(DistillStagePlan(
            teacher_depth=depth, student_depth=depth - 1, optimizer=optimizer,
            steps=steps_per_stage, schedule_mode=mode, warmup_steps=warmup_steps))
    return CascadePlan(start_depth=start_depth, end_depth=end_depth, stages=tuple(stages))


# ---------------------------------------------------------------------------
# stage and cascade execution
# ---------------------------------------------------------------------------

MetricsCallback = Callable[[dict], None]


def run_stage(plan: DistillStagePlan, teacher: EncoderModel, data_stream: Iterator[Batch],
              seed: int, dropout: bool = True, stage_index: int = 0,
              metrics: Optional[MetricsCallback] = None) -> tuple[EncoderModel, list[float]]:
    """Distill `teacher` into a one-layer-shallower student.

    The student starts as `top_layer_init(teacher)` and takes `plan.steps`
    optimizer steps minimizing the total distillation loss; the teacher is
    never modified. Returns the student and the per-step loss trace.
    """
    if teacher.num_layers != plan.teacher_depth:
        raise DepthMismatchError(
            f"teacher has {teacher.num_layers} layers, plan expects {plan.teacher_depth}")
    student = top_layer_init(teacher)
    optimizer = Adam(student.trainable_parameters(), plan.optimizer)
    schedule = plan.schedule()
    rng = np.random.default_rng(seed)

    loss_trace: list[float] = []
    for step in range(plan.steps):
        try:
            batch = next(data_stream)
        except StopIteration:
            raise DataExhaustedError(
                f"data stream exhausted at step {step} of {plan.steps}") from None
        teacher_seed = int(rng.integers(2**63))
        student_seed = int(rng.integers(2**63))

        def loss_fn(micro: Batch) -> Tensor:
            with no_grad():
                t_trace = teacher.forward(micro.token_ids, micro.attention_mask,
                                          training_mode=dropout, dropout_seed=teacher_seed)
            s_trace = student.forward(micro.token_ids, micro.attention_mask,
                                      training_mode=dropout, dropout_seed=student_seed)
            return total_distill_loss(t_trace, s_trace)

        micros = batch.split(plan.optimizer.micro_batch_size)
        try:
            loss = accumulate_and_step(loss_fn, micros, optimizer, schedule, step)
        except NonFiniteLossError as exc:
            raise NonFiniteLossError(f"stage {stage_index} step {step}: {exc}") from None
        loss_trace.append(loss)
        if metrics is not None:
            lr = lr_at(schedule, plan.optimizer.peak_lr, step)
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
    checkpoint_path: Optional[str] = None


@dataclass
class CascadeResult:
    final_model: EncoderModel
    stages: list[StageResult] = field(default_factory=list)


class _CountingStream:
    """Wraps a batch iterator so each stage's consumed slice is on record."""

    def __init__(self, batches: Iterable[Batch]):
        self._it = iter(batches)
        self.offset = 0

    def __iter__(self):
        return self

    def __next__(self) -> Batch:
        batch = next(self._it)
        self.offset += 1
        return batch


def run_cascade(plan: CascadePlan, teacher: EncoderModel, data_stream: Iterable[Batch],
                seed: int, dropout: bool = True,
                metrics: Optional[MetricsCallback] = None,
                on_stage_done: Optional[Callable[[StageResult], None]] = None) -> CascadeResult:
    """Run every stage of the plan, each student becoming the next teacher.

    Stages consume contiguous, pairwise-disjoint slices of the batch
    stream, in order; `batch_range` on each result records the slice.
    """
    if teacher.num_layers != plan.start_depth:
        raise DepthMismatchError(
            f"teacher has {teacher.num_layers} layers, plan starts at {plan.start_depth}")
    stream = _CountingStream(data_stream)
    seed_rng = np.random.default_rng(seed)
    result = CascadeResult(final_model=teacher)
    current = teacher
    for i, stage in enumerate(plan.stages):
        stage_seed = int(seed_rng.integers(2**63))
        start_offset = stream.offset
        try:
            student, trace = run_stage(stage, current, stream, stage_seed,
                                       dropout=dropout, stage_index=i, metrics=metrics)
        except (DataExhaustedError, NonFiniteLossError) as exc:
            raise type(exc)(f"cascade stage {i} ({stage.teacher_depth}->"
                            f"{stage.student_depth}): {exc}") from None
        stage_result = StageResult(
            stage_index=i, teacher_depth=stage.teacher_depth,
            student_depth=stage.student_depth, model=student, loss_trace=trace,
            batch_range=(start_offset, stream.offset))
        if on_stage_done is not None:
            on_stage_done(stage_result)
        result.stages.append(stage_result)
        current = student
    result.final_model = current
    return result
