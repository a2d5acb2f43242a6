"""Distillation: student initialization, the adjacent-layer-averaging
losses against hand values and an explicit-loop reference, stage and
cascade execution, and the pipelined teacher's contract."""

import itertools
import math
import multiprocessing
import os
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from cascadekd import distill, tensor
from cascadekd.config import default_config, parse_config
from cascadekd.corpus import Batch
from cascadekd.distill import (
    CascadePlan,
    DistillStagePlan,
    build_cascade_plan,
    distill_terms,
    run_cascade,
    run_stage,
    top_layer_init,
    total_distill_loss,
)
from cascadekd.encoder import (
    EncoderModel,
    ForwardTrace,
    ModelConfig,
    init_random,
)
from cascadekd.errors import (
    CascadeKDError,
    DataExhaustedError,
    NonFiniteLossError,
    ValidationError,
)
from cascadekd.tensor import Tensor, backward, no_grad
from cascadekd.training import (
    Adam,
    FineTuneConfig,
    OptimizerConfig,
    ScheduleConfig,
    accumulate_and_step,
    fine_tune,
    lr_at,
)

from oracles import reference_distill_loss


def toy_config(**overrides):
    base = dict(vocab_size=16, hidden_dim=8, num_layers=2, num_heads=2,
                ffn_dim=16, max_seq_len=6, dropout_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def trace_from_arrays(hidden, attentions, mask):
    return ForwardTrace(hidden=[Tensor(h) for h in hidden],
                        attentions=[Tensor(a) for a in attentions],
                        attention_mask=np.asarray(mask, dtype=bool))


def random_trace_pair(rng, n, batch=2, seq=5, dim=4, heads=2, padded=True):
    t_hidden = [rng.normal(size=(batch, seq, dim)) for _ in range(n + 2)]
    t_attn = [rng.normal(size=(batch, heads, seq, seq)) for _ in range(n + 1)]
    s_hidden = [rng.normal(size=(batch, seq, dim)) for _ in range(n + 1)]
    s_attn = [rng.normal(size=(batch, heads, seq, seq)) for _ in range(n)]
    mask = np.ones((batch, seq), dtype=bool)
    if padded:
        for b in range(batch):
            mask[b, rng.integers(1, seq + 1):] = False
    teacher = trace_from_arrays(t_hidden, t_attn, mask)
    student = trace_from_arrays(s_hidden, s_attn, mask)
    return teacher, student, (t_hidden, t_attn, s_hidden, s_attn, mask)


def random_batches(rng, count, batch=4, seq=6, vocab=16):
    out = []
    for _ in range(count):
        ids = rng.integers(0, vocab, size=(batch, seq))
        mask = np.ones((batch, seq), dtype=bool)
        for i in range(batch):
            mask[i, rng.integers(2, seq + 1):] = False
        out.append(Batch(ids, mask))
    return out


# ---------------------------------------------------------------------------
# student initialization
# ---------------------------------------------------------------------------

def test_top_layer_init_copies_lower_layers():
    teacher = init_random(toy_config(num_layers=3), seed=1)
    student = top_layer_init(teacher)
    assert student.num_layers == 2
    assert student.config.num_layers == 2
    for s_layer, t_layer in zip(student.layers, teacher.layers[:2]):
        for (name, s_param), (_, t_param) in zip(s_layer.parameters(),
                                                 t_layer.parameters()):
            assert np.array_equal(s_param.data, t_param.data), name
    # copies, not views: mutating the student leaves the teacher alone
    student.layers[0].wq.data[0, 0] += 1.0
    assert student.layers[0].wq.data[0, 0] != teacher.layers[0].wq.data[0, 0]


def test_top_layer_init_shares_frozen_embeddings():
    teacher = init_random(toy_config(), seed=2)
    student = top_layer_init(teacher)
    assert student.token_embeddings is teacher.token_embeddings
    assert student.position_embeddings is teacher.position_embeddings


def test_top_layer_init_rejects_single_layer_teacher():
    teacher = init_random(toy_config(num_layers=1), seed=4)
    with pytest.raises(ValidationError, match="cannot be shrunk"):
        top_layer_init(teacher)


def test_a_teacher_must_be_one_layer_deeper_than_its_student():
    opt = optimizer_config()
    DistillStagePlan(teacher_depth=4, student_depth=3, optimizer=opt, steps=1, warmup_steps=0)
    for teacher_depth, student_depth in ((5, 3), (1, 0), (3, 3)):
        with pytest.raises(ValidationError, match=rf"teacher depth {teacher_depth} must be "
                                                  rf"student depth {student_depth} \+ 1 >= 2"):
            DistillStagePlan(teacher_depth=teacher_depth, student_depth=student_depth,
                             optimizer=opt, steps=1, warmup_steps=0)
    rng = np.random.default_rng(0)
    teacher, student, _ = random_trace_pair(rng, n=2)
    with pytest.raises(ValidationError, match=r"teacher depth 2 must be student depth 2 \+ 1"):
        distill_terms(student, student)
    with pytest.raises(ValidationError, match=r"teacher depth 2 must be student depth 3 \+ 1"):
        distill_terms(student, teacher)


# ---------------------------------------------------------------------------
# loss hand values
# ---------------------------------------------------------------------------

def one_position_traces(t_attn_pairs, s_attn, t_hidden, s_hidden):
    """Traces for B=1, T=1 built from plain numbers.

    t_attn_pairs: per teacher layer, one value per head
    s_attn: per student layer, one value per head
    t_hidden / s_hidden: per hidden output, one value (dim 1)
    """
    mask = np.ones((1, 1), dtype=bool)
    teacher = trace_from_arrays(
        [np.full((1, 1, 1), v) for v in t_hidden],
        [np.array(heads, dtype=float).reshape(1, len(heads), 1, 1)
         for heads in t_attn_pairs],
        mask)
    student = trace_from_arrays(
        [np.full((1, 1, 1), v) for v in s_hidden],
        [np.array(heads, dtype=float).reshape(1, len(heads), 1, 1)
         for heads in s_attn],
        mask)
    return teacher, student


def test_attention_loss_hand_value():
    # teacher 0.3 and 0.5 average to 0.4; student 0.5 misses by 0.1
    teacher, student = one_position_traces(
        t_attn_pairs=[[0.3], [0.5]], s_attn=[[0.5]],
        t_hidden=[0.0, 0.0, 0.0], s_hidden=[0.0, 0.0])
    assert np.isclose(distill_terms(teacher, student)[0].item(), 0.01)


def test_attention_loss_averages_heads():
    # head misses of 0.1 and 0.3 give per-head losses 0.01 and 0.09
    teacher, student = one_position_traces(
        t_attn_pairs=[[0.3, 1.0], [0.5, 0.6]], s_attn=[[0.5, 1.1]],
        t_hidden=[0.0, 0.0, 0.0], s_hidden=[0.0, 0.0])
    assert np.isclose(distill_terms(teacher, student)[0].item(), (0.01 + 0.09) / 2.0)


def test_hidden_loss_hand_value():
    # teacher outputs 1 and 3 average to 2; student 1 misses by 1
    teacher, student = one_position_traces(
        t_attn_pairs=[[0.0], [0.0]], s_attn=[[0.0]],
        t_hidden=[1.0, 3.0, 0.0], s_hidden=[1.0, 0.0])
    # terms: attn_1, hidden_1, hidden_2
    assert np.isclose(distill_terms(teacher, student)[1].item(), 1.0)


def test_total_loss_hand_value():
    teacher, student = one_position_traces(
        t_attn_pairs=[[0.3], [0.5]], s_attn=[[0.5]],
        t_hidden=[1.0, 3.0, 5.0], s_hidden=[1.0, 4.0])
    # attention: 0.01; hidden: (1-2)^2 = 1 and (4-4)^2 = 0; n = 1
    assert np.isclose(total_distill_loss(teacher, student).item(), 1.01)


def test_loss_rejects_mismatched_traces():
    rng = np.random.default_rng(2)
    teacher, student, arrays = random_trace_pair(rng, n=2, padded=False)
    fat_teacher, fat_student, _ = random_trace_pair(rng, n=2, heads=4,
                                                    padded=False)
    for loss in (distill_terms, total_distill_loss):
        with pytest.raises(ValidationError, match="student has 2 heads, teacher has 4"):
            loss(fat_teacher, student)
    t_hidden, t_attn, s_hidden, s_attn, mask = arrays
    other_mask = np.ones((2, 5), dtype=bool)
    other_mask[0, 2:] = False
    restamped = trace_from_arrays(s_hidden, s_attn, other_mask)
    for loss in (distill_terms, total_distill_loss):
        with pytest.raises(ValidationError, match="different batches"):
            loss(teacher, restamped)
    # a hidden output of another width, at the bottom and at the top
    for k in (0, len(t_hidden) - 1):
        wide = list(t_hidden)
        wide[k] = np.zeros((2, 5, 6))
        with pytest.raises(ValidationError, match="hidden shapes differ"):
            total_distill_loss(trace_from_arrays(wide, t_attn, mask), student)
    short = trace_from_arrays(t_hidden[:-1], t_attn, mask)
    with pytest.raises(ValidationError, match="one more hidden output than attention layers"):
        total_distill_loss(short, student)


def test_total_loss_is_the_mean_of_the_layer_losses():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        teacher, student, _ = random_trace_pair(rng, n=n)
        terms = [t.item() for t in distill_terms(teacher, student)]
        assert len(terms) == 2 * n + 1
        assert total_distill_loss(teacher, student).item() == sum(terms) * (1.0 / n)


# ---------------------------------------------------------------------------
# loss against the explicit-loop reference
# ---------------------------------------------------------------------------

def test_total_loss_matches_reference():
    rng = np.random.default_rng(3)
    for i in range(30):
        n = int(rng.integers(1, 4))
        teacher, student, arrays = random_trace_pair(rng, n=n,
                                                     padded=bool(i % 2))
        t_hidden, t_attn, s_hidden, s_attn, mask = arrays
        expected = reference_distill_loss(t_hidden, t_attn,
                                          s_hidden, s_attn, mask)
        got = total_distill_loss(teacher, student).item()
        assert abs(got - expected) <= 1e-10


def test_masked_positions_cannot_affect_loss():
    rng = np.random.default_rng(4)
    teacher, student, arrays = random_trace_pair(rng, n=2)
    t_hidden, t_attn, s_hidden, s_attn, mask = arrays
    base = total_distill_loss(teacher, student).item()
    # rewrite everything at padded positions with garbage
    pad = ~mask
    garbage_hidden = [h.copy() for h in t_hidden + s_hidden]
    for h in garbage_hidden:
        h[pad] = 1e6
    garbage_attn = [a.copy() for a in t_attn + s_attn]
    for a in garbage_attn:
        for b in range(mask.shape[0]):
            a[b][:, pad[b], :] = -1e6
            a[b][:, :, pad[b]] = 1e6
    teacher2 = trace_from_arrays(garbage_hidden[:4], garbage_attn[:3], mask)
    student2 = trace_from_arrays(garbage_hidden[4:], garbage_attn[3:], mask)
    assert total_distill_loss(teacher2, student2).item() == base


def graph_nodes(loss):
    """Recorded ops behind `loss`."""
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or t._ctx is None:
            continue
        seen.add(id(t))
        stack.extend(t._ctx.parents)
    return len(seen)


def test_padding_does_not_change_the_loss_graph():
    rng = np.random.default_rng(11)
    teacher, student, arrays = random_trace_pair(rng, n=2, padded=False)
    t_hidden, t_attn, s_hidden, s_attn, mask = arrays
    padded = mask.copy()
    padded[:, 3:] = False
    nodes = []
    for m in (mask, padded):
        t = trace_from_arrays(t_hidden, t_attn, m)
        s = trace_from_arrays(s_hidden, s_attn, m)
        for h in s.hidden + s.attentions:
            h.requires_grad = True
        nodes.append(graph_nodes(total_distill_loss(t, s)))
    assert nodes[0] == nodes[1]


def test_teacher_receives_no_gradient():
    teacher = init_random(toy_config(num_layers=3), seed=5)
    student = init_random(toy_config(num_layers=2), seed=6)
    ids = np.array([[1, 2, 3, 4, 5, 6]])
    mask = np.array([[True, True, True, True, False, False]])
    t_trace = teacher.forward(ids, mask)
    s_trace = student.forward(ids, mask)
    loss = total_distill_loss(t_trace, s_trace)
    backward(loss)
    for name, param in teacher.parameters():
        assert param.grad is None, name
    assert any(param.grad is not None for _, param in
               student.trainable_parameters())


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def optimizer_config(**overrides):
    base = dict(peak_lr=1e-3, batch_size=4, micro_batch_size=4, epsilon=1e-9)
    base.update(overrides)
    return OptimizerConfig(**base)


def test_build_cascade_plan_counts(paper_ini):
    config = parse_config(paper_ini)
    plan = config.cascade_plan(config.model.num_layers)
    assert len(plan.stages) == 6
    assert plan.total_steps == 399_996
    assert plan.stages[0].warmup_steps == plan.stages[0].steps
    assert all(s.warmup_steps == 6_666 for s in plan.stages[1:])
    depths = [(s.teacher_depth, s.student_depth) for s in plan.stages]
    assert depths == [(12, 11), (11, 10), (10, 9), (9, 8), (8, 7), (7, 6)]


def test_cascade_plan_validation():
    opt = optimizer_config()
    steps = dict(steps=3, warmup_steps=1)
    with pytest.raises(ValidationError, match="needs at least one stage"):
        CascadePlan(stages=())
    wrong = (DistillStagePlan(teacher_depth=3, student_depth=2, optimizer=opt, **steps),
             DistillStagePlan(teacher_depth=3, student_depth=2, optimizer=opt, **steps))
    with pytest.raises(ValidationError, match="do not chain depths exactly"):
        CascadePlan(stages=wrong)
    for start, end in ((3, 3), (3, 4), (2, 0)):
        with pytest.raises(ValidationError,
                           match=f"cannot shrink a {start}-layer teacher to end_depth {end}"):
            build_cascade_plan(start, end, opt, steps_per_stage=3, warmup_steps=1)
    with pytest.raises(ValidationError, match="steps_per_stage must be >= 1, got 0"):
        build_cascade_plan(6, 3, opt, steps_per_stage=0, warmup_steps=0)
    with pytest.raises(ValidationError, match="total_steps must be >= 1"):
        DistillStagePlan(teacher_depth=3, student_depth=2, optimizer=opt, steps=0,
                         warmup_steps=0)
    with pytest.raises(ValidationError, match="warmup_steps -1 outside"):
        build_cascade_plan(6, 3, opt, steps_per_stage=3, warmup_steps=-1)


def test_stage_schedule_clamps_warmup():
    opt = optimizer_config()
    standard = DistillStagePlan(teacher_depth=3, student_depth=2, optimizer=opt,
                                steps=100, warmup_steps=10)
    assert standard.schedule() == ScheduleConfig(total_steps=100, warmup_steps=10)
    long = DistillStagePlan(teacher_depth=3, student_depth=2, optimizer=opt,
                            steps=100, warmup_steps=500)
    assert long.schedule() == ScheduleConfig(total_steps=100, warmup_steps=100)


# ---------------------------------------------------------------------------
# stage and cascade execution
# ---------------------------------------------------------------------------

def test_run_stage_basics():
    rng = np.random.default_rng(7)
    teacher = init_random(toy_config(num_layers=2), seed=8)
    before = {name: param.data.copy() for name, param in teacher.parameters()}
    plan = DistillStagePlan(teacher_depth=2, student_depth=1,
                            optimizer=optimizer_config(), steps=5,
                            warmup_steps=2)
    batches = iter(random_batches(rng, 5))
    records = []
    student, trace = run_stage(plan, teacher, batches, seed=0,
                               dropout=False, metrics=records.append)
    assert student.num_layers == 1
    assert len(trace) == 5
    assert all(np.isfinite(trace))
    for name, param in teacher.parameters():
        assert np.array_equal(param.data, before[name]), name
    assert student.token_embeddings is teacher.token_embeddings
    assert [r["step"] for r in records] == list(range(5))
    assert all(set(r) == {"stage", "step", "lr", "loss"} for r in records)


def test_run_stage_exhausted_stream():
    # Every step that had a batch finishes and reports before the error,
    # which names the first step without one.
    teacher = init_random(toy_config(num_layers=2), seed=9)
    plan = DistillStagePlan(teacher_depth=2, student_depth=1,
                            optimizer=optimizer_config(micro_batch_size=2), steps=5,
                            warmup_steps=2)
    for path in TEACHER_PATHS:
        rng = np.random.default_rng(8)
        records = []
        with teacher_path(path) as watch:
            with pytest.raises(DataExhaustedError, match="at step 3 of 5"):
                run_stage(plan, teacher, iter(random_batches(rng, 3)), seed=0,
                          dropout=False, metrics=watch(records.append))
        assert [r["step"] for r in records] == [0, 1, 2]


def test_run_stage_depth_check():
    rng = np.random.default_rng(9)
    teacher = init_random(toy_config(num_layers=2), seed=10)
    plan = DistillStagePlan(teacher_depth=3, student_depth=2,
                            optimizer=optimizer_config(), steps=1, warmup_steps=1)
    with pytest.raises(ValidationError, match="teacher has 2 layers, plan expects 3"):
        run_stage(plan, teacher, iter(random_batches(rng, 1)), seed=0)


def test_run_stage_deterministic():
    teacher = init_random(toy_config(num_layers=2, dropout_rate=0.1), seed=11)
    plan = DistillStagePlan(teacher_depth=2, student_depth=1,
                            optimizer=optimizer_config(), steps=4,
                            warmup_steps=2)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(12)
        _, trace = run_stage(plan, teacher, iter(random_batches(rng, 4)),
                             seed=13, dropout=True)
        runs.append(trace)
    assert runs[0] == runs[1]


def test_run_cascade_chains_and_slices():
    rng = np.random.default_rng(10)
    teacher = init_random(toy_config(num_layers=3), seed=14)
    plan = build_cascade_plan(3, 1, optimizer_config(), steps_per_stage=3,
                              warmup_steps=1)
    done = []
    result = run_cascade(plan, teacher, iter(random_batches(rng, 6)), seed=15,
                         dropout=False, on_stage_done=lambda s: done.append(s.stage_index))
    assert result.final_model.num_layers == 1
    assert done == [0, 1]
    assert [s.batch_range for s in result.stages] == [(0, 3), (3, 6)]
    assert [(s.teacher_depth, s.student_depth) for s in result.stages] \
        == [(3, 2), (2, 1)]
    assert result.stages[0].model.num_layers == 2
    stream = iter(random_batches(rng, 6))
    with pytest.raises(ValidationError, match="teacher has 1 layers, plan expects 3"):
        run_cascade(plan, result.final_model, stream, seed=0)
    assert len(list(stream)) == 6  # no step pulled a batch


def test_run_cascade_errors_carry_one_stage_prefix():
    # `run_stage` names the stage itself; the cascade adds no second prefix.
    rng = np.random.default_rng(23)
    teacher = init_random(toy_config(num_layers=3), seed=24)
    plan = build_cascade_plan(3, 1, optimizer_config(), steps_per_stage=3,
                              warmup_steps=1)
    with pytest.raises(DataExhaustedError,
                       match=r"^stage 1: data stream exhausted at step \d+ of \d+$"):
        run_cascade(plan, teacher, iter(random_batches(rng, 4)), seed=25,
                    dropout=False)


# ---------------------------------------------------------------------------
# the pipelined teacher
# ---------------------------------------------------------------------------

TEACHER_PATHS = ("process", "thread")


@contextmanager
def recording_product_threads():
    """Yields the list of thread idents that weight-gradient products run
    on, one per product, while the block runs."""
    idents = []
    product = tensor._weight_product

    def recording_product(*args):
        idents.append(threading.get_ident())
        return product(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor, "_weight_product", recording_product)
        yield idents


@contextmanager
def teacher_path(path):
    """Forces `run_stage` to run the teacher in its child process or on its
    worker thread. Yields `watch`, which wraps a metrics callback to record
    at each step whether a child process is alive. On leaving, checks that
    one was alive at every step exactly on the process path, that some
    forward ran off the main thread exactly on the thread path, and that
    the student's weight-gradient products ran on the teacher's worker
    thread on the thread path and on the main thread on the process path."""
    in_child = path == "process"
    alive, off_main, teacher_threads = [], [], set()
    forward = EncoderModel.forward

    def recording_forward(self, *args, **kwargs):
        off_main.append(threading.current_thread() is not threading.main_thread())
        teacher_threads.add(threading.get_ident())
        return forward(self, *args, **kwargs)

    def watch(metrics=None):
        def record(r):
            alive.append(bool(multiprocessing.active_children()))
            if metrics is not None:
                metrics(r)
        return record

    with pytest.MonkeyPatch.context() as patch, recording_product_threads() as products:
        patch.setattr(distill, "_WORKER_MIN_TEACHER_FLOPS", math.inf if in_child else 0)
        patch.setattr(EncoderModel, "forward", recording_forward)
        yield watch
    assert alive and set(alive) == {in_child}, path
    assert any(off_main) != in_child, path
    main = threading.main_thread().ident
    assert products and set(products) == ({main} if in_child else teacher_threads - {main}), path


def sequential_stage(plan, teacher, batches, seed):
    """`run_stage` as a plain loop: each micro-batch's teacher forward runs
    just before its student forward, on the calling thread."""
    student = top_layer_init(teacher)
    optimizer = Adam(student.trainable_parameters(), plan.optimizer)
    rng = np.random.default_rng(seed)
    losses = []
    for step in range(plan.steps):
        batch = next(batches)
        teacher_seed, student_seed = int(rng.integers(2**63)), int(rng.integers(2**63))

        def loss_fn(micro):
            with no_grad():
                t_trace = teacher.forward(micro.token_ids, micro.attention_mask,
                                          training_mode=True, dropout_seed=teacher_seed)
            s_trace = student.forward(micro.token_ids, micro.attention_mask,
                                      training_mode=True, dropout_seed=student_seed)
            return total_distill_loss(t_trace, s_trace)

        lr = lr_at(plan.schedule(), plan.optimizer.peak_lr, step)
        losses.append(accumulate_and_step(
            loss_fn, batch.split(plan.optimizer.micro_batch_size), optimizer, lr))
    return student, losses


def test_pipelined_stage_equals_sequential_loop():
    teacher = init_random(toy_config(num_layers=3, dropout_rate=0.2), seed=16)
    plan = DistillStagePlan(teacher_depth=3, student_depth=2,
                            optimizer=optimizer_config(batch_size=6, micro_batch_size=2),
                            steps=4, warmup_steps=2)

    def batches():
        return iter(random_batches(np.random.default_rng(17), 4, batch=6))

    plain, plain_losses = sequential_stage(plan, teacher, batches(), seed=18)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as finely as possible
    try:
        for path in TEACHER_PATHS:
            with teacher_path(path) as watch:
                piped, piped_losses = run_stage(plan, teacher, batches(), seed=18,
                                                metrics=watch())
            assert piped_losses == plain_losses, path
            for (name, a), (_, b) in zip(piped.parameters(), plain.parameters()):
                assert np.array_equal(a.data, b.data), (path, name)
    finally:
        sys.setswitchinterval(interval)


class CountingStream:
    def __init__(self, batches):
        self._it = iter(batches)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        batch = next(self._it)
        self.pulled += 1
        return batch


def test_run_stage_pulls_exactly_its_steps_from_the_stream():
    rng = np.random.default_rng(19)
    teacher = init_random(toy_config(num_layers=2), seed=20)
    for path, micro in itertools.product(TEACHER_PATHS, (1, 2, 4)):
        plan = DistillStagePlan(teacher_depth=2, student_depth=1,
                                optimizer=optimizer_config(micro_batch_size=micro),
                                steps=3, warmup_steps=1)
        stream = CountingStream(itertools.cycle(random_batches(rng, 2)))
        pulled = []
        with teacher_path(path) as watch:
            run_stage(plan, teacher, stream, seed=0,
                      metrics=watch(lambda r: pulled.append((r["step"], stream.pulled))))
        assert stream.pulled == plan.steps
        # On the thread path each step pulls its own batch when it starts;
        # on the process path it pulls the next step's, and none later.
        ahead = 1 if path == "process" else 0
        assert pulled == [(step, min(step + 1 + ahead, plan.steps))
                          for step in range(plan.steps)], (path, micro)


class FailingForward:
    """Stands in for a model's `forward` and raises on its `fail_at`-th call."""

    def __init__(self, forward, fail_at, error):
        self.forward, self.fail_at, self.error = forward, fail_at, error
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.error
        return self.forward(*args, **kwargs)


@pytest.mark.parametrize("error, message", [
    (RuntimeError("teacher failed"), "^teacher failed$"),
    (NonFiniteLossError("teacher failed"), "^stage 4 step 2: teacher failed$"),
])
def test_teacher_error_surfaces_at_its_micro_batch_step(error, message):
    # Two micro-batches per step: the fifth teacher call is step 2's first
    # micro-batch, submitted when step 2 starts.
    plan = DistillStagePlan(teacher_depth=2, student_depth=1,
                            optimizer=optimizer_config(micro_batch_size=2), steps=4,
                            warmup_steps=1)
    for path in TEACHER_PATHS:
        rng = np.random.default_rng(21)
        teacher = init_random(toy_config(num_layers=2), seed=22)
        records = []
        with teacher_path(path) as watch:
            teacher.forward = FailingForward(teacher.forward, fail_at=5, error=error)
            with pytest.raises(type(error), match=message):
                run_stage(plan, teacher, iter(random_batches(rng, 4)), seed=0, stage_index=4,
                          metrics=watch(records.append))
        assert [r["step"] for r in records] == [0, 1], path


def test_the_teacher_runs_on_the_worker_only_past_the_flop_rule(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    rng = np.random.default_rng(27)

    def children_per_step(config, plan, seq):
        """Runs two steps of `plan`; the child processes alive at each."""
        alive = []
        run_stage(replace(plan, steps=2, warmup_steps=1), init_random(config, seed=26),
                  iter(random_batches(rng, 2, batch=plan.optimizer.batch_size, seq=seq,
                                      vocab=config.vocab_size)), seed=0,
                  metrics=lambda r: alive.append(len(multiprocessing.active_children())))
        return alive

    main = threading.main_thread().ident
    desk = default_config()
    (plan, *_) = desk.cascade_plan(desk.model.num_layers).stages
    assert distill._teacher_in_child(plan, desk.model)
    with recording_product_threads() as products:
        assert children_per_step(desk.model, plan, desk.model.max_seq_len) == [1, 1]
    assert started == []
    assert products and set(products) == {main}
    # The benchmark's mid-scale stage: a 3 -> 2 shrink at d=256, T=128. The
    # rule reads `max_seq_len`, so batches of 4 columns keep this cheap.
    mid = ModelConfig(vocab_size=256, hidden_dim=256, num_layers=3, num_heads=4,
                      ffn_dim=1024, max_seq_len=128)
    mid_plan = DistillStagePlan(teacher_depth=3, student_depth=2, steps=4, warmup_steps=4,
                                optimizer=OptimizerConfig(peak_lr=3e-3, batch_size=16,
                                                          micro_batch_size=8, epsilon=1e-9))
    assert not distill._teacher_in_child(mid_plan, mid)
    with recording_product_threads() as products:
        assert children_per_step(mid, mid_plan, seq=4) == [0, 0]
    assert len(started) == 1
    assert products and set(products) == {started[0].ident}
    # Fine-tuning has no teacher, and no worker takes its products.
    (batch,) = random_batches(rng, 1, batch=4, vocab=desk.model.vocab_size)
    labeled = Batch(batch.token_ids, batch.attention_mask, labels=np.arange(4) % 2)
    with recording_product_threads() as products:
        fine_tune(init_random(desk.model.with_layers(1), seed=30), labeled,
                  FineTuneConfig(optimizer=optimizer_config(), epochs=1, num_classes=2))
    assert len(started) == 1
    assert products and set(products) == {main}
    # Off Linux every teacher runs on the worker thread.
    monkeypatch.setattr(sys, "platform", "darwin")
    assert not distill._teacher_in_child(plan, desk.model)


def test_no_process_outlives_run_stage(monkeypatch):
    # Every way out of a stage joins its child: a normal end, a teacher
    # error, an exhausted stream, a non-finite loss and a killed child.
    monkeypatch.setattr(distill, "_WORKER_MIN_TEACHER_FLOPS", math.inf)
    plan = DistillStagePlan(teacher_depth=2, student_depth=1,
                            optimizer=optimizer_config(micro_batch_size=2), steps=4,
                            warmup_steps=1)

    def teacher(failing=False, nan=False):
        model = init_random(toy_config(num_layers=2), seed=28)
        if failing:
            model.forward = FailingForward(model.forward, fail_at=3,
                                           error=RuntimeError("teacher failed"))
        if nan:
            model.layers[-1].wo.data[:] = np.nan
        return model

    def kill_at_step_1(record):
        if record["step"] == 1:
            (child,) = multiprocessing.active_children()
            os.kill(child.pid, signal.SIGKILL)

    cases = [
        (teacher(), 4, None, None),
        (teacher(failing=True), 4, None, (RuntimeError, "^teacher failed$")),
        (teacher(), 2, None, (DataExhaustedError, "at step 2 of 4")),
        (teacher(nan=True), 4, None, (NonFiniteLossError, "^stage 0 step 0: ")),
        (teacher(), 4, kill_at_step_1, (CascadeKDError, "exited with code -9$")),
    ]
    for model, count, metrics, error in cases:
        pids = []

        def record(r):
            pids.extend(child.pid for child in multiprocessing.active_children())
            if metrics is not None:
                metrics(r)

        batches = iter(random_batches(np.random.default_rng(29), count))
        if error is None:
            run_stage(plan, model, batches, seed=0, metrics=record)
        else:
            with pytest.raises(error[0], match=error[1]):
                run_stage(plan, model, batches, seed=0, metrics=record)
        for pid in set(pids):  # reaped, not only exited
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert multiprocessing.active_children() == [], error
