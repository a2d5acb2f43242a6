"""Optimization: schedule values, Adam against a functional replay,
accumulation invariance and its offloaded error path, fine-tuning, and
evaluation."""

import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cascadekd.corpus import Batch, TokenizerVocab, encode_batch
from cascadekd.encoder import ClassifierHead, EncoderModel, ModelConfig, init_random
from cascadekd.errors import NonFiniteLossError, ValidationError
from cascadekd import training
from cascadekd.tensor import Tensor, linear, mse, offload_weight_grads
from cascadekd.training import (
    PREDICT_SLICE,
    Adam,
    FineTuneConfig,
    OptimizerConfig,
    ScheduleConfig,
    accumulate_and_step,
    accuracy,
    fine_tune,
    lr_at,
    predict,
    zero_shot_eval,
)

from oracles import reference_adam, reference_lr


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_optimizer_config_validation():
    OptimizerConfig(peak_lr=1e-3, batch_size=8, micro_batch_size=4, epsilon=1e-9)
    with pytest.raises(ValidationError, match="peak_lr must be >= 0"):
        OptimizerConfig(peak_lr=-1.0, batch_size=1, epsilon=1e-9)
    with pytest.raises(ValidationError, match="betas must lie in"):
        OptimizerConfig(peak_lr=1e-3, batch_size=1, epsilon=1e-9, beta1=1.0)
    with pytest.raises(ValidationError, match="epsilon must be > 0"):
        OptimizerConfig(peak_lr=1e-3, batch_size=1, epsilon=0.0)
    with pytest.raises(ValidationError, match="not divisible by micro_batch_size"):
        OptimizerConfig(peak_lr=1e-3, batch_size=10, micro_batch_size=4, epsilon=1e-9)


def test_schedule_config_validation():
    ScheduleConfig(total_steps=10, warmup_steps=0)
    with pytest.raises(ValidationError, match="warmup_steps 11 outside"):
        ScheduleConfig(total_steps=10, warmup_steps=11)
    with pytest.raises(ValidationError, match="total_steps must be >= 1"):
        ScheduleConfig(total_steps=0, warmup_steps=0)


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

def test_lr_hand_values():
    sched = ScheduleConfig(total_steps=66_666, warmup_steps=6_666)
    assert lr_at(sched, 1e-7, 0) == 0.0
    assert lr_at(sched, 1e-7, 6_666) == 1e-7
    assert lr_at(sched, 1e-7, 66_666) == 0.0
    assert lr_at(sched, 1e-7, 3_333) == 1e-7 * 3_333 / 6_666
    full = ScheduleConfig(total_steps=66_666, warmup_steps=66_666)
    assert lr_at(full, 1e-7, 33_333) == 5e-8
    assert lr_at(full, 1e-7, 66_666) == 1e-7


def test_lr_monotone_shape():
    sched = ScheduleConfig(total_steps=100, warmup_steps=30)
    values = [lr_at(sched, 1.0, s) for s in range(101)]
    assert all(b >= a for a, b in zip(values[:31], values[1:31]))
    assert all(b <= a for a, b in zip(values[30:], values[31:]))
    assert max(values) == 1.0


def test_lr_step_bounds():
    sched = ScheduleConfig(total_steps=10, warmup_steps=2)
    with pytest.raises(ValidationError, match="step -1 outside"):
        lr_at(sched, 1.0, -1)
    with pytest.raises(ValidationError, match="step 11 outside"):
        lr_at(sched, 1.0, 11)


def test_lr_matches_reference_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(50):
        total = int(rng.integers(1, 10_000))
        warmup = int(rng.integers(0, total + 1))
        full = bool(rng.integers(0, 2))
        if full:
            warmup = total
        sched = ScheduleConfig(total_steps=total, warmup_steps=warmup)
        peak = float(rng.uniform(1e-9, 1e-2))
        for step in rng.integers(0, total + 1, size=20):
            got = lr_at(sched, peak, int(step))
            want = reference_lr(total, warmup, full, peak, int(step))
            assert got == want


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_first_step_value():
    # with bias correction the first update is exactly lr*g/(|g|+eps)
    p = Tensor(np.array([1.0]), requires_grad=True)
    config = OptimizerConfig(peak_lr=0.1, epsilon=1e-9, batch_size=1)
    p.grad = np.array([2.0])
    Adam([("p", p)], config).step(0.1)
    expected = 1.0 - 0.1 * 2.0 / (2.0 + 1e-9)
    assert np.isclose(p.data[0], expected, rtol=1e-15)


def test_adam_zero_betas_is_normalized_sgd():
    config = OptimizerConfig(peak_lr=0.01, beta1=0.0, beta2=0.0,
                             epsilon=1e-9, batch_size=1)
    p = Tensor(np.array([0.5, -0.5]), requires_grad=True)
    opt = Adam([("p", p)], config)
    for g in ([1.0, -4.0], [0.25, 0.25], [-9.0, 1.0]):
        before = p.data.copy()
        grad = np.array(g)
        p.grad = grad
        opt.step(0.01)
        step = before - p.data
        assert np.allclose(step, 0.01 * grad / (np.abs(grad) + 1e-9))


def test_adam_zero_gradient_keeps_params():
    config = OptimizerConfig(peak_lr=0.5, batch_size=1, epsilon=1e-9)
    p = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    opt = Adam([("p", p)], config)
    for _ in range(5):
        opt.step(0.5)
    assert np.array_equal(p.data, [3.0, -1.0])


def test_adam_matches_functional_replay():
    rng = np.random.default_rng(1)
    config = OptimizerConfig(peak_lr=0.03, batch_size=1, epsilon=1e-9)
    start = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(20)]
    p = Tensor(start.copy(), requires_grad=True)
    opt = Adam([("p", p)], config)
    for g in grads:
        p.grad = g
        opt.step(0.03)
    want = reference_adam(start, grads, 0.03, config.beta1, config.beta2, config.epsilon)
    assert np.allclose(p.data, want, rtol=1e-12, atol=0)


def test_adam_shape_check_and_duplicate_names():
    config = OptimizerConfig(peak_lr=0.1, batch_size=1, epsilon=1e-9)
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    p.grad = np.zeros(3)
    with pytest.raises(ValidationError, match=r"gradient shape \(3,\)"):
        Adam([("p", p)], config).step(0.1)
    with pytest.raises(ValidationError, match="duplicate parameter names"):
        Adam([("p", p), ("p", p)], config)


# ---------------------------------------------------------------------------
# gradient accumulation
# ---------------------------------------------------------------------------

def toy_loss_setup(rng, rows=8, dim=3, vocab=10):
    table = Tensor(rng.normal(size=(vocab, dim)), requires_grad=True)
    targets = rng.normal(size=(vocab, dim))
    ids = rng.integers(0, vocab, size=(rows, 4))
    mask = np.ones((rows, 4), dtype=bool)
    batch = Batch(ids, mask)

    def loss_fn(micro):
        # Row lookup as a one-hot product, so the table takes a gradient.
        one_hot = Tensor(np.eye(vocab)[micro.token_ids])
        picked = linear(one_hot, table, Tensor(np.zeros(dim)))
        want = Tensor(targets[micro.token_ids])
        return mse(picked, want)

    return table, batch, loss_fn


def test_accumulation_invariant_to_micro_batching():
    rng = np.random.default_rng(2)
    table, batch, loss_fn = toy_loss_setup(rng)
    start = table.data.copy()
    lr = lr_at(ScheduleConfig(total_steps=4, warmup_steps=0), 0.05, 1)
    results = []
    for micro_size in (1, 2, 4, 8):
        table.data = start.copy()
        config = OptimizerConfig(peak_lr=0.05, batch_size=8,
                                 micro_batch_size=micro_size, epsilon=1e-9)
        opt = Adam([("table", table)], config)
        loss = accumulate_and_step(loss_fn, batch.split(micro_size), opt, lr)
        results.append((loss, table.data.copy()))
    base_loss, base_param = results[0]
    for loss, param in results[1:]:
        assert np.isclose(loss, base_loss, rtol=1e-12)
        assert np.allclose(param, base_param, rtol=1e-10, atol=1e-14)


def test_accumulation_weights_ragged_micros():
    rng = np.random.default_rng(3)
    table, batch, loss_fn = toy_loss_setup(rng, rows=5)
    config = OptimizerConfig(peak_lr=0.0, batch_size=5, micro_batch_size=1, epsilon=1e-9)
    opt = Adam([("table", table)], config)
    micros = batch.split(3)  # sizes 3 and 2
    with_split = accumulate_and_step(loss_fn, micros, opt, 0.0)
    whole = loss_fn(batch).item()
    assert np.isclose(with_split, whole, rtol=1e-12)


def test_accumulation_frees_each_micro_batch_graph():
    rng = np.random.default_rng(5)
    table, batch, loss_fn = toy_loss_setup(rng)
    config = OptimizerConfig(peak_lr=0.1, batch_size=8, micro_batch_size=2, epsilon=1e-9)
    opt = Adam([("table", table)], config)
    graphs = []
    earlier_alive = []

    def tracking_loss_fn(micro):
        earlier_alive.append([ref() is not None for ref in graphs])
        loss = loss_fn(micro)
        graphs.append(weakref.ref(loss._ctx))
        return loss

    accumulate_and_step(tracking_loss_fn, batch.split(2), opt, 0.1)
    assert earlier_alive == [[False] * i for i in range(4)]
    assert [ref() for ref in graphs] == [None] * 4


class RecordingPool(ThreadPoolExecutor):
    """A single-worker pool that keeps every future it hands out."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.futures = []

    def submit(self, *args, **kwargs):
        self.futures.append(super().submit(*args, **kwargs))
        return self.futures[-1]


@pytest.mark.parametrize("blocked", [True, False])
def test_offloaded_accumulation_fails_like_inline_and_leaves_nothing_pending(blocked):
    # Micro-batch 2 of 3 has a non-finite loss. With the worker blocked,
    # micro-batch 1's products are still queued when it raises, and are
    # cancelled; unblocked, each is cancelled, waited for or done.
    rng = np.random.default_rng(6)
    table, batch, loss_fn = toy_loss_setup(rng, rows=6)
    config = OptimizerConfig(peak_lr=0.1, batch_size=6, micro_batch_size=2, epsilon=1e-9)

    def failing_loss_fn(micro):
        loss = loss_fn(micro)
        return loss * np.nan if micro is micros[1] else loss

    micros = batch.split(2)
    with pytest.raises(NonFiniteLossError) as inline:
        accumulate_and_step(failing_loss_fn, micros, Adam([("table", table)], config), 0.1)
    table.grad = None
    release = threading.Event()
    with RecordingPool() as pool:
        blocker = pool.submit(release.wait, 30) if blocked else None
        try:
            with offload_weight_grads(pool):
                with pytest.raises(NonFiniteLossError) as offloaded:
                    accumulate_and_step(failing_loss_fn, micros,
                                        Adam([("table", table)], config), 0.1)
                products = [f for f in pool.futures if f is not blocker]
                assert products and all(f.done() for f in products)
                if blocked:
                    assert all(f.cancelled() for f in products)
                assert table.grad is None
        finally:
            release.set()
    assert str(offloaded.value) == str(inline.value) == "loss is not finite"
    assert table.grad is None


def test_accumulation_rejects_empty_micro_batches():
    rng = np.random.default_rng(4)
    table, batch, loss_fn = toy_loss_setup(rng)
    config = OptimizerConfig(peak_lr=0.1, batch_size=8, micro_batch_size=8, epsilon=1e-9)
    opt = Adam([("table", table)], config)
    with pytest.raises(ValidationError, match="no micro-batches"):
        accumulate_and_step(loss_fn, [], opt, 0.0)


# ---------------------------------------------------------------------------
# fine-tuning and evaluation
# ---------------------------------------------------------------------------

def marker_task(rng, vocab, examples=48, classes=3, seq=6):
    lines = []
    labels = []
    filler = ["aa", "bb", "cc"]
    for _ in range(examples):
        label = int(rng.integers(0, classes))
        words = [f"LBL{label}"] + [filler[rng.integers(0, 3)]
                                   for _ in range(3)]
        lines.append(" ".join(words))
        labels.append(label)
    return encode_batch(lines, vocab, seq, labels=labels)


def small_vocab():
    return TokenizerVocab.build(["aa bb cc"], vocab_size=16,
                                extra_tokens=("LBL0", "LBL1", "LBL2"))


def small_model(seed=0):
    config = ModelConfig(vocab_size=16, hidden_dim=8, num_layers=1,
                         num_heads=2, ffn_dim=16, max_seq_len=6,
                         dropout_rate=0.1)
    return init_random(config, seed=seed)


def test_fine_tune_learns_marker_task():
    # width 8 sits on a class-symmetry saddle for thousands of steps;
    # width 16 separates all three markers within a few epochs
    rng = np.random.default_rng(5)
    vocab = small_vocab()
    config = ModelConfig(vocab_size=16, hidden_dim=16, num_layers=1,
                         num_heads=2, ffn_dim=32, max_seq_len=6,
                         dropout_rate=0.1)
    model = init_random(config, seed=6)
    frozen_before = model.token_embeddings.data.copy()
    data = marker_task(rng, vocab)
    ft = FineTuneConfig(
        optimizer=OptimizerConfig(peak_lr=1e-2, batch_size=16,
                                  micro_batch_size=16, epsilon=2e-7),
        epochs=12, num_classes=3, seed=7)
    model, head = fine_tune(model, data, ft)
    assert accuracy(model, head, data) >= 0.95
    assert np.array_equal(model.token_embeddings.data, frozen_before)


def test_fine_tune_zero_epochs_keeps_head_at_init():
    rng = np.random.default_rng(6)
    vocab = small_vocab()
    data = marker_task(rng, vocab, examples=8)
    config = FineTuneConfig(
        optimizer=OptimizerConfig(peak_lr=1e-2, batch_size=8,
                                  micro_batch_size=8, epsilon=1e-9),
        epochs=0, num_classes=3, seed=8)
    model = small_model(seed=9)
    params_before = {n: p.data.copy() for n, p in model.parameters()}
    _, head_a = fine_tune(model, data, config)
    _, head_b = fine_tune(small_model(seed=9), data, config)
    for (name, pa), (_, pb) in zip(head_a.parameters(), head_b.parameters()):
        assert np.array_equal(pa.data, pb.data), name
    for name, p in model.parameters():
        assert np.array_equal(p.data, params_before[name]), name


def test_fine_tune_label_validation():
    rng = np.random.default_rng(7)
    vocab = small_vocab()
    data = marker_task(rng, vocab, examples=8)
    config = FineTuneConfig(
        optimizer=OptimizerConfig(peak_lr=1e-2, batch_size=8,
                                  micro_batch_size=8, epsilon=1e-9),
        epochs=1, num_classes=2, seed=0)
    with pytest.raises(ValidationError, match=r"labels outside \[0, 2\)"):
        fine_tune(small_model(), data, config)
    unlabeled = Batch(data.token_ids, data.attention_mask)
    with pytest.raises(ValidationError, match="batch has no labels"):
        fine_tune(small_model(), unlabeled,
                  FineTuneConfig(optimizer=config.optimizer, epochs=1, num_classes=2,
                                 seed=0))


def test_zero_shot_eval_unweighted_average():
    # zero weights predict class 0 everywhere
    config = ModelConfig(vocab_size=16, hidden_dim=8, num_layers=1,
                         num_heads=2, ffn_dim=16, max_seq_len=4,
                         dropout_rate=0.0)
    model = EncoderModel(config, seed=None)
    head = ClassifierHead(8, num_classes=3, seed=None)
    ids = np.full((4, 4), 2, dtype=np.int64)
    mask = np.ones((4, 4), dtype=bool)
    set_a = Batch(ids, mask, labels=[0, 0, 0, 0])
    big_ids = np.full((8, 4), 2, dtype=np.int64)
    big_mask = np.ones((8, 4), dtype=bool)
    set_b = Batch(big_ids, big_mask, labels=[0, 0, 1, 1, 1, 1, 1, 1])
    result = zero_shot_eval(model, head, {"a": set_a, "b": set_b})
    assert result.per_language == {"a": 1.0, "b": 0.25}
    assert np.isclose(result.average, 0.625)  # not the size-weighted 0.5
    assert np.all(predict(model, head, set_a) == 0)


def test_zero_shot_eval_errors():
    model = small_model()
    head = ClassifierHead(8, num_classes=3, seed=None)
    with pytest.raises(ValidationError, match="no eval sets given"):
        zero_shot_eval(model, head, {})
    empty = Batch(np.zeros((0, 4), dtype=np.int64),
                  np.zeros((0, 4), dtype=bool), labels=[])
    with pytest.raises(ValidationError, match="eval set for 'x' is empty"):
        zero_shot_eval(model, head, {"x": empty})


def test_predict_checks_head_width_for_every_batch():
    model = small_model()
    empty = Batch(np.zeros((0, 6), dtype=np.int64), np.zeros((0, 6), dtype=bool))
    assert predict(model, ClassifierHead(8, num_classes=3, seed=1), empty).shape == (0,)
    wrong = ClassifierHead(4, num_classes=3, seed=1)
    for size in (0, 300):
        batch = Batch(np.ones((size, 6), dtype=np.int64), np.ones((size, 6), dtype=bool))
        with pytest.raises(ValidationError, match="head dim 4 != model hidden dim 8"):
            predict(model, wrong, batch)


def test_predict_records_no_graph_on_any_thread(monkeypatch):
    model = small_model(seed=17)
    head = ClassifierHead(8, num_classes=3, seed=18)
    assert all(t.requires_grad for _, t in model.trainable_parameters())
    calls = []
    lock = threading.Lock()

    def records():
        return (Tensor([1.0], requires_grad=True) * 2.0)._ctx is not None

    def recording_classify(*args, **kwargs):
        logits = original(*args, **kwargs)
        with lock:
            calls.append((threading.get_ident(), records(), logits._ctx is None))
        return logits

    original = training.classify
    monkeypatch.setattr(training, "classify", recording_classify)
    rng = np.random.default_rng(19)
    size = 5 * PREDICT_SLICE + 3
    batch = Batch(rng.integers(0, 16, size=(size, 6)), np.ones((size, 6), dtype=bool))
    predict(model, head, batch)
    assert len(calls) == 6
    assert [grad for _, grad, _ in calls] == [False] * 6
    assert all(constant for _, _, constant in calls)
    assert threading.get_ident() not in {thread for thread, _, _ in calls}
    assert records()


def test_predict_memory_does_not_grow_with_batch_size():
    model = small_model(seed=14)
    head = ClassifierHead(8, num_classes=3, seed=15)
    rng = np.random.default_rng(16)
    seq = model.config.max_seq_len

    def peak_bytes(size):
        batch = Batch(rng.integers(0, 16, size=(size, seq)), np.ones((size, seq), dtype=bool))
        tracemalloc.start()
        try:
            predict(model, head, batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Both sizes keep two slices in flight, so the denominator does not
    # depend on whether two slices happen to overlap on the two threads.
    assert peak_bytes(4096) <= 2 * peak_bytes(512)
