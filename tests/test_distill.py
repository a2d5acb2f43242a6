"""Distillation: student initialization, the adjacent-layer-averaging
losses against hand values and an explicit-loop reference, stage and
cascade execution."""

import numpy as np
import pytest

from cascadekd.corpus import Batch
from cascadekd.distill import (
    CascadePlan,
    DistillStagePlan,
    LayerMapSpec,
    attention_layer_loss,
    build_cascade_plan,
    hidden_layer_loss,
    run_cascade,
    run_stage,
    top_layer_init,
    total_distill_loss,
)
from cascadekd.encoder import (
    PRE_SOFTMAX_SCALED,
    EncoderModel,
    ForwardTrace,
    ModelConfig,
    init_random,
)
from cascadekd.errors import (
    DataExhaustedError,
    DepthMismatchError,
    DimensionMismatchError,
    HeadCountMismatchError,
    InvalidConfigError,
    LayerIndexOutOfRangeError,
    TeacherTooShallowError,
)
from cascadekd.tensor import Tensor, backward, no_grad
from cascadekd.training import OptimizerConfig, ScheduleConfig

from oracles import reference_distill_loss


def toy_config(**overrides):
    base = dict(vocab_size=16, hidden_dim=8, num_layers=2, num_heads=2,
                ffn_dim=16, max_seq_len=6, dropout_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def trace_from_arrays(hidden, attentions, mask):
    return ForwardTrace(hidden=[Tensor(h) for h in hidden],
                        attentions=[Tensor(a) for a in attentions],
                        attention_mask=np.asarray(mask, dtype=bool),
                        capture_mode=PRE_SOFTMAX_SCALED)


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
    teacher = init_random(toy_config(), seed=2, embeddings_frozen=True)
    student = top_layer_init(teacher)
    assert student.token_embeddings is teacher.token_embeddings
    assert student.position_embeddings is teacher.position_embeddings


def test_top_layer_init_copies_unfrozen_embeddings():
    teacher = init_random(toy_config(), seed=3, embeddings_frozen=False)
    student = top_layer_init(teacher)
    assert student.token_embeddings is not teacher.token_embeddings
    assert np.array_equal(student.token_embeddings.data,
                          teacher.token_embeddings.data)
    student.token_embeddings.data[0, 0] += 1.0
    assert (student.token_embeddings.data[0, 0]
            != teacher.token_embeddings.data[0, 0])


def test_top_layer_init_rejects_single_layer_teacher():
    teacher = init_random(toy_config(num_layers=1), seed=4)
    with pytest.raises(TeacherTooShallowError):
        top_layer_init(teacher)


def test_layer_map_spec_validation():
    spec = LayerMapSpec(student_depth=3, teacher_depth=4)
    assert spec.strategy == "adjacent_average"
    with pytest.raises(DepthMismatchError):
        LayerMapSpec(student_depth=3, teacher_depth=5)
    with pytest.raises(InvalidConfigError):
        LayerMapSpec(student_depth=0, teacher_depth=1)
    rng = np.random.default_rng(0)
    teacher, student, _ = random_trace_pair(rng, n=2)
    with pytest.raises(DepthMismatchError):
        LayerMapSpec.for_traces(student, student)


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
    assert np.isclose(attention_layer_loss(teacher, student, 1).item(), 0.01)


def test_attention_loss_averages_heads():
    # head misses of 0.1 and 0.3 give per-head losses 0.01 and 0.09
    teacher, student = one_position_traces(
        t_attn_pairs=[[0.3, 1.0], [0.5, 0.6]], s_attn=[[0.5, 1.1]],
        t_hidden=[0.0, 0.0, 0.0], s_hidden=[0.0, 0.0])
    assert np.isclose(attention_layer_loss(teacher, student, 1).item(),
                      (0.01 + 0.09) / 2.0)


def test_hidden_loss_hand_value():
    # teacher outputs 1 and 3 average to 2; student 1 misses by 1
    teacher, student = one_position_traces(
        t_attn_pairs=[[0.0], [0.0]], s_attn=[[0.0]],
        t_hidden=[1.0, 3.0, 0.0], s_hidden=[1.0, 0.0])
    assert np.isclose(hidden_layer_loss(teacher, student, 1).item(), 1.0)


def test_total_loss_hand_value():
    teacher, student = one_position_traces(
        t_attn_pairs=[[0.3], [0.5]], s_attn=[[0.5]],
        t_hidden=[1.0, 3.0, 5.0], s_hidden=[1.0, 4.0])
    # attention: 0.01; hidden: (1-2)^2 = 1 and (4-4)^2 = 0; n = 1
    assert np.isclose(total_distill_loss(teacher, student).item(), 1.01)


def test_loss_index_bounds():
    rng = np.random.default_rng(1)
    teacher, student, _ = random_trace_pair(rng, n=2)
    for j in (0, 3):
        with pytest.raises(LayerIndexOutOfRangeError):
            attention_layer_loss(teacher, student, j)
    for k in (0, 4):
        with pytest.raises(LayerIndexOutOfRangeError):
            hidden_layer_loss(teacher, student, k)


def test_loss_rejects_mismatched_traces():
    rng = np.random.default_rng(2)
    teacher, student, arrays = random_trace_pair(rng, n=2, padded=False)
    fat_teacher, fat_student, _ = random_trace_pair(rng, n=2, heads=4,
                                                    padded=False)
    with pytest.raises(HeadCountMismatchError):
        attention_layer_loss(fat_teacher, student, 1)
    _, _, s_hidden, s_attn, _ = arrays
    other_mask = np.ones((2, 5), dtype=bool)
    other_mask[0, 2:] = False
    restamped = trace_from_arrays(s_hidden, s_attn, other_mask)
    with pytest.raises(DimensionMismatchError):
        attention_layer_loss(teacher, restamped, 1)
    with pytest.raises(DimensionMismatchError):
        hidden_layer_loss(teacher, restamped, 1)


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
    base = dict(peak_lr=1e-3, batch_size=4, micro_batch_size=4)
    base.update(overrides)
    return OptimizerConfig(**base)


def test_build_cascade_plan_counts():
    plan = build_cascade_plan(12, 6, optimizer_config())
    assert len(plan.stages) == 6
    assert plan.total_steps == 399_996
    assert plan.stages[0].schedule_mode == ScheduleConfig.FULL_WARMUP
    assert all(s.schedule_mode == ScheduleConfig.STANDARD
               for s in plan.stages[1:])
    depths = [(s.teacher_depth, s.student_depth) for s in plan.stages]
    assert depths == [(12, 11), (11, 10), (10, 9), (9, 8), (8, 7), (7, 6)]


def test_cascade_plan_validation():
    opt = optimizer_config()
    stages = (DistillStagePlan(teacher_depth=3, student_depth=2, optimizer=opt),)
    with pytest.raises(InvalidConfigError):
        CascadePlan(start_depth=3, end_depth=1, stages=stages)
    wrong = (DistillStagePlan(teacher_depth=2, student_depth=1, optimizer=opt),)
    with pytest.raises(InvalidConfigError):
        CascadePlan(start_depth=3, end_depth=2, stages=wrong)
    with pytest.raises(DepthMismatchError):
        DistillStagePlan(teacher_depth=4, student_depth=2, optimizer=opt)


def test_stage_schedule_modes():
    opt = optimizer_config()
    standard = DistillStagePlan(teacher_depth=3, student_depth=2, optimizer=opt,
                                steps=100, warmup_steps=10)
    sched = standard.schedule()
    assert sched.mode == ScheduleConfig.STANDARD
    assert sched.warmup_steps == 10
    full = DistillStagePlan(teacher_depth=3, student_depth=2, optimizer=opt,
                            steps=100, schedule_mode=ScheduleConfig.FULL_WARMUP)
    sched = full.schedule()
    assert sched.mode == ScheduleConfig.FULL_WARMUP
    assert sched.warmup_steps == 100


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
    rng = np.random.default_rng(8)
    teacher = init_random(toy_config(num_layers=2), seed=9)
    plan = DistillStagePlan(teacher_depth=2, student_depth=1,
                            optimizer=optimizer_config(), steps=5,
                            warmup_steps=2)
    with pytest.raises(DataExhaustedError):
        run_stage(plan, teacher, iter(random_batches(rng, 3)), seed=0,
                  dropout=False)


def test_run_stage_depth_check():
    rng = np.random.default_rng(9)
    teacher = init_random(toy_config(num_layers=2), seed=10)
    plan = DistillStagePlan(teacher_depth=3, student_depth=2,
                            optimizer=optimizer_config(), steps=1)
    with pytest.raises(DepthMismatchError):
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
    with pytest.raises(DepthMismatchError):
        run_cascade(plan, result.final_model, iter(random_batches(rng, 6)),
                    seed=0)
