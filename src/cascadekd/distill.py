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

`run_stage` runs the teacher's no-grad forwards beside the student's
passes: a small teacher in a forked child process, one optimizer step
ahead, and a large one on a worker thread, one micro-batch ahead (see
`_WORKER_MIN_TEACHER_FLOPS`). Either way the values are those of running
the two in turn, and no process or thread outlives the call.

Each input is checked once, where it enters: `DistillStagePlan` holds the
depth rule and its schedule, `build_cascade_plan` rejects depths unless
start > end >= 1 and stages of fewer than one step, `CascadePlan` checks
that its stages chain, `run_stage` checks its teacher's depth before any
step, and the losses check each trace pair they are given.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .corpus import Batch
from .encoder import EncoderModel, ForwardTrace, ModelConfig
from .errors import CascadeKDError, DataExhaustedError, NonFiniteLossError, ValidationError
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

# On Linux, a teacher whose forward on a full micro-batch takes fewer
# matmul FLOPs than this runs in a forked child process, one optimizer step
# ahead; any other runs on a worker thread, one micro-batch ahead. On a
# 2-core host with one BLAS thread, the child's steady-state step time was
# 0.71x the thread's at 28 MFLOP (6 desk layers), 0.75x at 38 MFLOP and
# 0.86-0.95x up to 5.2 GFLOP. But a stage's first step overlaps nothing
# on the child, and on the mid-scale benchmark's 4-step stages the child
# gave 0.83x the thread's throughput (median of 3 pairs), so the bound
# stays below mid scale.
_WORKER_MIN_TEACHER_FLOPS = 32_000_000

# How long `run_stage` waits for the teacher's child process to exit after
# closing its pipe, before it terminates the child.
_CHILD_EXIT_TIMEOUT_S = 1.0


def _teacher_in_child(plan: DistillStagePlan, teacher: ModelConfig) -> bool:
    """Whether `run_stage` runs a teacher of this config in a child process
    rather than on a worker thread: on Linux, below
    `_WORKER_MIN_TEACHER_FLOPS` matmul FLOPs of its forward on a full
    micro-batch."""
    flops = teacher.forward_matmul_flops(plan.optimizer.micro_batch_size, teacher.max_seq_len)
    return sys.platform == "linux" and flops < _WORKER_MIN_TEACHER_FLOPS


class _Step(NamedTuple):
    """One step's micro-batches and its (teacher, student) dropout seeds."""

    micros: list[Batch]
    teacher_seed: int
    student_seed: int


_TeacherForward = Callable[[np.ndarray, np.ndarray, int], ForwardTrace]
_Draw = Callable[[], Optional[_Step]]


class _TeacherThread:
    """The teacher's forwards on one worker thread, one micro-batch ahead
    within each step. A step pulls its batch and submits its first
    micro-batch when it starts; each later micro-batch is submitted when
    its predecessor's loss begins, and the pipeline drains with the step."""

    def __init__(self, forward: _TeacherForward, draw: _Draw):
        self._forward, self._draw = forward, draw
        self._pool = ThreadPoolExecutor(max_workers=1)

    def start_step(self, first: bool, last: bool) -> Optional[tuple[_Step, Iterator[Future]]]:
        current = self._draw()
        if current is None:
            return None
        ahead = deque([self._submit(current.micros[0], current.teacher_seed)])
        return current, self._pipeline(ahead, current)

    def _submit(self, micro: Batch, seed: int) -> Future:
        return self._pool.submit(self._forward, micro.token_ids, micro.attention_mask, seed)

    def _pipeline(self, ahead: deque[Future], current: _Step) -> Iterator[Future]:
        # Popped as yielded, so no trace outlives the loss that reads it.
        for successor in current.micros[1:]:
            ahead.append(self._submit(successor, current.teacher_seed))
            yield ahead.popleft()
        yield ahead.popleft()

    def close(self) -> None:
        self._pool.shutdown()


class _TeacherProcess:
    """The teacher's forwards in a forked child process, one optimizer step
    ahead. When a step starts, its traces are taken from the child, then
    the next step's batch is pulled and its micro-batches are sent to the
    child, which computes them while this process runs the student.

    The child is forked, so it inherits the teacher rather than unpickling
    it, and it runs nothing but the teacher's forward. Each step is one
    request, its micro-batches' token ids and masks with the teacher's
    seed, and one reply, each micro-batch's trace arrays or the error its
    forward raised. One reply per step lets the child compute every
    micro-batch of the step before it blocks on sending, and it blocks
    only while this process is not sending, since requests go out only
    after the last reply is in."""

    def __init__(self, forward: _TeacherForward, draw: _Draw):
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._child = context.Process(target=_serve_teacher,
                                      args=(forward, child_conn, self._conn), daemon=True)
        self._child.start()
        child_conn.close()
        self._draw = draw
        self._ahead: Optional[_Step] = None

    def start_step(self, first: bool, last: bool) -> Optional[tuple[_Step, Iterator[Future]]]:
        if first:
            self._ahead = self._request()
        current = self._ahead
        if current is None:
            return None
        traces = deque(self._receive())
        self._ahead = None if last else self._request()
        # Popped as read, so no trace outlives the loss that reads it.
        return current, (traces.popleft() for _ in current.micros)

    def _request(self) -> Optional[_Step]:
        """Pulls the next step and sends its micro-batches to the child."""
        drawn = self._draw()
        if drawn is not None:
            request = [(m.token_ids, m.attention_mask) for m in drawn.micros], drawn.teacher_seed
            try:
                self._conn.send(request)
            except OSError:
                raise self._died() from None
        return drawn

    def _receive(self) -> list[Future]:
        """The child's reply to the last request, as one finished future
        per micro-batch: a trace of constant tensors, or the error the
        child's forward raised."""
        try:
            replies = self._conn.recv()
        except (EOFError, OSError):
            raise self._died() from None
        traces = []
        for reply in replies:
            trace = Future()
            if isinstance(reply, Exception):
                trace.set_exception(reply)
            else:
                hidden, attentions, mask = reply
                trace.set_result(ForwardTrace(hidden=[Tensor(h) for h in hidden],
                                              attentions=[Tensor(a) for a in attentions],
                                              attention_mask=mask))
            traces.append(trace)
        return traces

    def _died(self) -> CascadeKDError:
        self._child.join(_CHILD_EXIT_TIMEOUT_S)
        return CascadeKDError(f"the teacher's process exited with code {self._child.exitcode}")

    def close(self) -> None:
        """Closes the pipe, which ends the child's loop, and joins the
        child; a child that does not exit in time is terminated."""
        self._conn.close()
        self._child.join(_CHILD_EXIT_TIMEOUT_S)
        if self._child.exitcode is None:
            self._child.terminate()
            self._child.join()
        self._child.close()


def _serve_teacher(forward: _TeacherForward, conn, parent_conn) -> None:
    """The child's loop: answers each request with one reply holding, per
    micro-batch, its trace's arrays or the error its forward raised, until
    the parent closes its end of the pipe. SIGINT is left to the parent."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_conn.close()  # else the pipe would stay open after the parent closes it
    try:
        while True:
            micros, seed = conn.recv()
            replies = []
            for token_ids, attention_mask in micros:
                try:
                    trace = forward(token_ids, attention_mask, seed)
                    replies.append(([h.data for h in trace.hidden],
                                    [a.data for a in trace.attentions], trace.attention_mask))
                except Exception as exc:
                    replies.append(exc)
            conn.send(replies)
    except (EOFError, OSError):
        return


def run_stage(plan: DistillStagePlan, teacher: EncoderModel, data_stream: Iterator[Batch],
              seed: int, dropout: bool = True, stage_index: int = 0,
              metrics: Optional[MetricsCallback] = None) -> tuple[EncoderModel, list[float]]:
    """Distill `teacher` into a one-layer-shallower student.

    The student starts as `top_layer_init(teacher)` and takes `plan.steps`
    optimizer steps minimizing the total distillation loss; the teacher is
    never modified. Returns the student and the per-step loss trace.

    The teacher's no-grad forwards run beside the student's passes, in one
    of two ways chosen from shapes by `_teacher_in_child`:
    - below `_WORKER_MIN_TEACHER_FLOPS` on Linux, in a forked child process
      one optimizer step ahead (`_TeacherProcess`): step s pulls batch s+1
      when it starts, so a stream that runs out there lets step s finish
      and report, and fails at step s+1;
    - otherwise on one worker thread, one micro-batch ahead within each
      step (`_TeacherThread`, micro-batch pipelining as in GPipe): step s
      pulls batch s when it starts, and fails there if there is none.
    Either way each step draws its (teacher, student) dropout seeds when
    its batch is pulled, the stream is read exactly `plan.steps` times, a
    teacher error is raised at the step whose trace it belongs to, and
    results are bit-identical to running the two in turn. The child is
    joined, and the thread shut down, before `run_stage` returns or raises.
    """
    if teacher.num_layers != plan.teacher_depth:
        raise ValidationError(
            f"teacher has {teacher.num_layers} layers, plan expects {plan.teacher_depth}")
    student = top_layer_init(teacher)
    optimizer = Adam(student.trainable_parameters(), plan.optimizer)
    schedule = plan.schedule()
    rng = np.random.default_rng(seed)

    def draw() -> Optional[_Step]:
        try:
            batch = next(data_stream)
        except StopIteration:
            return None
        teacher_seed = int(rng.integers(2**63))
        student_seed = int(rng.integers(2**63))
        return _Step(batch.split(plan.optimizer.micro_batch_size), teacher_seed, student_seed)

    def teacher_forward(token_ids: np.ndarray, attention_mask: np.ndarray,
                        teacher_seed: int) -> ForwardTrace:
        with no_grad():
            return teacher.forward(token_ids, attention_mask,
                                   training_mode=dropout, dropout_seed=teacher_seed)

    loss_trace: list[float] = []
    runner = (_TeacherProcess if _teacher_in_child(plan, teacher.config) else _TeacherThread)(
        teacher_forward, draw)
    try:
        for step in range(plan.steps):
            started = runner.start_step(first=step == 0, last=step + 1 == plan.steps)
            if started is None:
                raise DataExhaustedError(
                    f"stage {stage_index}: data stream exhausted at step {step} "
                    f"of {plan.steps}")
            current, traces = started

            def loss_fn(micro: Batch) -> Tensor:
                teacher_trace = next(traces)
                # The student's forward needs no teacher trace, so it runs
                # first: a step's first micro-batch overlaps it too.
                s_trace = student.forward(micro.token_ids, micro.attention_mask,
                                          training_mode=dropout,
                                          dropout_seed=current.student_seed)
                return total_distill_loss(teacher_trace.result(), s_trace)

            lr = lr_at(schedule, plan.optimizer.peak_lr, step)
            try:
                loss = accumulate_and_step(loss_fn, current.micros, optimizer, lr)
            except NonFiniteLossError as exc:
                raise NonFiniteLossError(f"stage {stage_index} step {step}: {exc}") from None
            loss_trace.append(loss)
            if metrics is not None:
                metrics({"stage": stage_index, "step": step, "lr": lr, "loss": loss})
    finally:
        runner.close()
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
