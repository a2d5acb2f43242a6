"""Autodiff core: forward values against hand-worked cases, backward
mechanics, the losses and a composite graph against central differences,
per-thread grad mode and the lean tape. Every op's own finite-difference
check is a row of the table property in `test_properties.py`."""

import os
import platform
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import cascadekd
from cascadekd.errors import NonFiniteLossError, ValidationError
from cascadekd import distill
from cascadekd.tensor import (
    Tensor,
    attention_context,
    attention_scores,
    backward,
    cross_entropy,
    feed_forward,
    layer_norm,
    linear,
    mse,
    no_grad,
    softmax_rows,
)

from oracles import fd_denominator_floor, finite_difference_grad, max_relative_error, total


def check_grads(build, tensors, tol=1e-6, h=1e-5):
    """Compare analytic gradients of the scalar build() against central
    differences on every tensor."""
    for t in tensors:
        t.grad = None
    loss = build()
    backward(loss)
    floor = fd_denominator_floor(loss.item(), h=h, tol=tol)
    for t in tensors:
        def f():
            with no_grad():
                return build().item()

        fd = finite_difference_grad(f, t.data, h=h)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert max_relative_error(analytic, fd, floor) < tol


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_arithmetic_forward():
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor([4.0, 5.0, 6.0])
    assert np.allclose((a + b).data, [5, 7, 9])
    assert np.allclose((a * b).data, [4, 10, 18])
    assert np.allclose((a + 1.0).data, [2, 3, 4])
    assert np.allclose((2.0 * a).data, [2, 4, 6])


def test_shape_ops_forward():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    assert np.allclose(x[:, 1].data, x.data[:, 1])


def identity_feed_forward(x: Tensor) -> Tensor:
    """`feed_forward` with 1x1 identity maps: GELU alone, elementwise."""
    return feed_forward(x, Tensor([[1.0]]), Tensor([0.0]), Tensor([[1.0]]), Tensor([0.0]))


def test_gelu_values():
    # exact form: x * Phi(x) with the Gaussian CDF
    x = Tensor([[0.0], [1.0], [-10.0], [10.0]])
    out = identity_feed_forward(x).data[:, 0]
    assert out[0] == 0.0
    assert np.isclose(out[1], 0.8413447460685429)
    assert abs(out[2]) < 1e-8
    assert np.isclose(out[3], 10.0)


def test_tanh_values():
    x = Tensor([0.0, 1e3, -1e3])
    assert np.allclose(x.tanh().data, [0.0, 1.0, -1.0])


def test_softmax_hand_value():
    out = softmax_rows(Tensor([[0.0, np.log(3.0)]]))
    assert np.allclose(out.data, [[0.25, 0.75]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = Tensor(rng.normal(size=(3, 4, 5)) * 10)
        out = softmax_rows(x)
        assert np.allclose(out.data.sum(axis=-1), 1.0)


def test_softmax_masked_entries_are_exact_zeros():
    mask = np.array([[True, True, False, False]])
    out = softmax_rows(Tensor(np.ones((1, 4))), mask=mask)
    assert np.all(out.data[0, 2:] == 0.0)
    assert np.isclose(out.data[0, :2].sum(), 1.0)


def test_softmax_all_masked_row_raises():
    mask = np.zeros((1, 3), dtype=bool)
    with pytest.raises(ValidationError, match="every entry masked"):
        softmax_rows(Tensor(np.ones((1, 3))), mask=mask)


def test_mse_values_and_errors():
    assert mse(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item() == 0.0
    assert mse(Tensor([3.0]), Tensor([0.0])).item() == 9.0
    assert np.isclose(mse(Tensor([[1.0, 3.0]]), Tensor([[0.0, 0.0]])).item(), 5.0)
    with pytest.raises(ValidationError, match="mse shapes differ"):
        mse(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]]))
    with pytest.raises(ValidationError, match="mse of empty tensors"):
        mse(Tensor(np.zeros((0, 2))), Tensor(np.zeros((0, 2))))
    with pytest.raises(ValidationError, match="mse mask does not broadcast"):
        mse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), include=np.ones(2, dtype=bool))
    with pytest.raises(ValidationError, match="every element excluded"):
        mse(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3))), include=np.zeros((2, 1), dtype=bool))


def test_masked_mse_equals_explicit_masked_mean():
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
    include = rng.random((2, 3, 1)) < 0.6
    include[0, 0, 0] = True
    full = np.broadcast_to(include, x.shape)
    expected = ((x - y) ** 2)[full].mean()
    assert np.isclose(mse(Tensor(x), Tensor(y), include=include).item(), expected,
                      rtol=1e-14, atol=0.0)
    everything = np.ones((2, 3, 4), dtype=bool)
    assert mse(Tensor(x), Tensor(y), include=everything).item() == mse(Tensor(x), Tensor(y)).item()


def test_cross_entropy_values():
    logits = Tensor([[0.0, 0.0, 0.0]])
    labels = np.array([0])
    assert np.isclose(cross_entropy(logits, labels).item(), np.log(3.0))
    # shift invariance
    shifted = Tensor(np.array([[5.0, 5.0, 5.0]]) + 1e3)
    assert np.isclose(cross_entropy(shifted, labels).item(), np.log(3.0))


def test_cross_entropy_equals_log_sum_exp_form():
    rng = np.random.default_rng(21)
    logits = rng.normal(size=(6, 4)) * 3.0
    labels = rng.integers(0, 4, size=6)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    want = (np.log(np.exp(shifted).sum(axis=-1)) - shifted[np.arange(6), labels]).mean()
    assert cross_entropy(Tensor(logits), labels).item() == want


def test_cross_entropy_errors():
    with pytest.raises(ValidationError, match=r"labels must lie in \[0, 3\)"):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ValidationError, match=r"labels must lie in \[0, 3\)"):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))
    with pytest.raises(ValidationError, match="at least 2 classes"):
        cross_entropy(Tensor(np.zeros((2, 1))), np.array([0, 0]))
    with pytest.raises(ValidationError, match=r"logits must be \(batch, classes\)"):
        cross_entropy(Tensor(np.zeros(3)), np.array([0]))
    with pytest.raises(ValidationError, match="does not match batch 2"):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))


def test_linear_forward_equals_matmul_plus_bias():
    rng = np.random.default_rng(22)
    x, w, b = (rng.normal(size=shape) for shape in ((2, 3, 4), (4, 5), (5,)))
    assert np.array_equal(linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)


def split_heads(t, heads):
    batch, seq, d = t.shape
    return np.transpose(t.reshape(batch, seq, heads, d // heads), (0, 2, 1, 3))


def test_attention_forward_equals_composition():
    # The step-by-step numpy composition: affine maps, head split by
    # reshape and permute, batched products, the scale, and the merge.
    rng = np.random.default_rng(26)
    heads, head_dim = 3, 2
    x = rng.normal(size=(2, 5, heads * head_dim))
    wq, wk = (rng.normal(size=(6, 6)) for _ in range(2))
    bq, bk = (rng.normal(size=6) for _ in range(2))
    k = split_heads(x @ wk + bk, heads)
    for rows in (slice(1, 3), slice(None)):
        q = split_heads(x[:, rows] @ wq + bq, heads)
        composed = (q @ np.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(head_dim))
        scores = attention_scores(*(Tensor(a) for a in (x, wq, bq, wk, bk)), heads, rows=rows)
        assert np.array_equal(scores.data, composed)

    probs = softmax_rows(scores)
    v = rng.normal(size=(2, 5, 6))
    merged = np.transpose(probs.data @ split_heads(v, heads), (0, 2, 1, 3)).reshape(2, 5, 6)
    assert np.array_equal(attention_context(probs, Tensor(v), heads).data, merged)


def test_feed_forward_forward_equals_composition():
    rng = np.random.default_rng(27)
    x = rng.normal(size=(2, 3, 4)) * 3.0
    w_in, b_in = rng.normal(size=(4, 7)), rng.normal(size=7)
    w_out, b_out = rng.normal(size=(7, 4)), rng.normal(size=4)
    pre = x @ w_in + b_in
    composed = (pre * (0.5 * (1.0 + erf(pre / np.sqrt(2.0))))) @ w_out + b_out
    for grad in (False, True):
        args = [Tensor(a, requires_grad=grad) for a in (x, w_in, b_in, w_out, b_out)]
        assert np.array_equal(feed_forward(*args).data, composed)


def test_layer_norm_forward_equals_composition():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(3, 4, 6)) * 10.0 + 3.0
    gain, bias = rng.normal(size=6), rng.normal(size=6)
    centered = x - x.sum(axis=-1, keepdims=True) * (1.0 / 6)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / 6)
    composed = centered * ((var + 1e-12) ** -0.5) * gain + bias
    normed = layer_norm(Tensor(x), Tensor(gain), Tensor(bias), 1e-12)
    assert np.array_equal(normed.data, composed)


def test_linear_and_layer_norm_shape_errors():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ValidationError, match="linear shapes do not fit"):
        linear(x, Tensor(np.zeros((3, 5))), Tensor(np.zeros(5)))
    with pytest.raises(ValidationError, match="linear shapes do not fit"):
        linear(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(1)))
    with pytest.raises(ValidationError, match="linear shapes do not fit"):
        linear(x, Tensor(np.zeros(4)), Tensor(np.zeros(())))
    with pytest.raises(ValidationError, match="layer_norm shapes do not fit"):
        layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), 1e-12)
    with pytest.raises(ValidationError, match="layer_norm shapes do not fit"):
        layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(1)), 1e-12)


def test_fused_encoder_op_shape_errors():
    x = Tensor(np.zeros((2, 3, 4)))
    sq, vec = Tensor(np.zeros((4, 4))), Tensor(np.zeros(4))
    with pytest.raises(ValidationError, match="attention_scores shapes do not fit"):
        attention_scores(x, sq, vec, sq, vec, heads=3)
    with pytest.raises(ValidationError, match="attention_scores shapes do not fit"):
        attention_scores(x, sq, vec, Tensor(np.zeros((4, 2))), vec, heads=2)
    with pytest.raises(ValidationError, match="attention_scores shapes do not fit"):
        attention_scores(Tensor(np.zeros((3, 4))), sq, vec, sq, vec, heads=2)
    with pytest.raises(ValidationError, match="attention_scores shapes do not fit"):
        attention_scores(x, sq, vec, sq, vec, heads=2, rows=0)
    probs = Tensor(np.zeros((2, 2, 3, 3)))
    with pytest.raises(ValidationError, match="attention_context shapes do not fit"):
        attention_context(probs, x, heads=4)
    with pytest.raises(ValidationError, match="attention_context shapes do not fit"):
        attention_context(probs, Tensor(np.zeros((2, 4, 4))), heads=2)
    # Fewer query rows than keys are fine; more, or a key extent that is
    # not T, are not.
    assert attention_context(Tensor(np.zeros((2, 2, 1, 3))), x, heads=2).shape == (2, 1, 4)
    for shape in ((2, 2, 4, 3), (2, 2, 1, 2), (2, 2, 3)):
        with pytest.raises(ValidationError, match="attention_context shapes do not fit"):
            attention_context(Tensor(np.zeros(shape)), x, heads=2)
    w_in, b_in, w_out = Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)), Tensor(np.zeros((5, 4)))
    with pytest.raises(ValidationError, match="feed_forward shapes do not fit"):
        feed_forward(x, w_in, b_in, Tensor(np.zeros((4, 5))), vec)
    with pytest.raises(ValidationError, match="feed_forward shapes do not fit"):
        feed_forward(x, w_in, Tensor(np.zeros(4)), w_out, vec)
    with pytest.raises(ValidationError, match="feed_forward shapes do not fit"):
        feed_forward(x, w_in, b_in, w_out, Tensor(np.zeros(5)))


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------

def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValidationError, match="needs a scalar loss"):
        backward(x + x)


def test_backward_rejects_nonfinite():
    x = Tensor([np.inf], requires_grad=True)
    with pytest.raises(NonFiniteLossError, match="loss is not finite"):
        backward(total(x))


def test_grad_accumulates_across_branches():
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0 + x * 5.0
    backward(total(y))
    assert np.allclose(x.grad, [8.0])


def test_shared_gradient_arrays_are_not_merged_in_place():
    # Add returns one array to both parents: x merges two more gradients
    # into it, u and v each keep it, and a second pass accumulates onto
    # every leaf.
    x, y, u, v = (Tensor([1.0, 2.0], requires_grad=True) for _ in range(4))
    for passes in (1, 2):
        backward(total((x + y) + x * 3.0 + x * 5.0 + (u + v)))
        assert np.array_equal(x.grad, [9.0 * passes] * 2)
        for leaf in (y, u, v):
            assert np.array_equal(leaf.grad, [1.0 * passes] * 2)
        assert not np.shares_memory(x.grad, y.grad)
        assert not np.shares_memory(u.grad, v.grad)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap policy is glibc's mallopt")
def test_import_keeps_freed_heap_pages_mapped():
    # 100 arrays of 96 kB sit under glibc's default mmap threshold; with the
    # default trim threshold the freed heap is returned to the OS each round
    # and faulted back in the next.
    import resource

    script = """
import resource
import numpy as np
import cascadekd

def churn():
    arrays = [np.ones(96 * 1024 // 8) for _ in range(100)]
    del arrays

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = Path(cascadekd.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    pages_per_round = 100 * 96 * 1024 // resource.getpagesize()
    assert int(done.stdout) / 50 < 0.1 * pages_per_round


def test_no_grad_blocks_taping():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 2.0
    assert y._ctx is None
    z = x * 2.0
    backward(total(z))
    assert np.allclose(x.grad, [2.0])


def test_no_grad_in_one_thread_leaves_another_recording():
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def records():
        return (Tensor([1.0], requires_grad=True) * 2.0)._ctx is not None

    def hold_no_grad():
        with no_grad():
            with no_grad():
                entered.set()
                release.wait(timeout=30)
            seen["inner exit"] = records()
        seen["outer exit"] = records()

    holder = threading.Thread(target=hold_no_grad)
    holder.start()
    try:
        assert entered.wait(timeout=30)
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        assert y._ctx is not None
        with no_grad():
            assert (x * 2.0)._ctx is None
        assert records()
    finally:
        release.set()
        holder.join(timeout=30)
    assert not holder.is_alive()
    assert seen == {"inner exit": False, "outer exit": True}
    backward(total(y))
    assert np.array_equal(x.grad, [2.0])


def test_distillation_targets_are_freed_while_the_loss_is_alive(monkeypatch):
    targets = []

    def recording_mse(x, y, include=None):
        targets.append(weakref.ref(y))
        return mse(x, y, include=include)

    monkeypatch.setattr(distill, "mse", recording_mse)
    rng = np.random.default_rng(28)
    mask = np.array([[True, True, False]])
    teacher = distill.ForwardTrace([Tensor(rng.normal(size=(1, 3, 2))) for _ in range(3)],
                                   [Tensor(rng.normal(size=(1, 2, 3, 3))) for _ in range(2)],
                                   mask)
    student = distill.ForwardTrace(
        [Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True) for _ in range(2)],
        [Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)], mask)
    loss = distill.total_distill_loss(teacher, student)
    assert len(targets) == 3
    assert all(ref() is None for ref in targets)
    backward(loss)
    assert all(t.grad is not None for t in student.hidden + student.attentions)


def test_product_with_a_constant_gives_the_constant_times_upstream():
    rng = np.random.default_rng(29)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c, g = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    backward(total((x * Tensor(c)) * Tensor(g)))
    assert np.array_equal(x.grad, g * c)


def test_mse_excluded_entries_get_exact_zero_gradient():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 4)) * 1e6, requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    include = np.array([[True], [False], [True]])
    backward(mse(x, y, include=include))
    assert np.all(x.grad[1] == 0.0) and np.all(y.grad[1] == 0.0)
    assert np.all(x.grad[[0, 2]] != 0.0)


def test_mse_hand_gradient():
    p = Tensor([3.0], requires_grad=True)
    backward(mse(p, Tensor([0.0])))
    assert np.allclose(p.grad, [6.0])


# ---------------------------------------------------------------------------
# gradients against central differences
# ---------------------------------------------------------------------------

def test_mse_grads():
    rng = np.random.default_rng(6)
    for i in range(6):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        include = None if i % 2 else rng.random((3, 1)) < 0.5
        if include is not None:
            include[0] = True

        def build():
            return mse(x, y, include=include)

        check_grads(build, [x, y])


def test_cross_entropy_grads():
    rng = np.random.default_rng(7)
    labels = np.array([0, 2, 1])
    for _ in range(5):
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def build():
            return cross_entropy(logits, labels)

        check_grads(build, [logits])


def test_composite_graph_grads():
    # one graph exercising every op the encoder uses
    rng = np.random.default_rng(9)
    mask = np.array([[True, True, True], [True, False, False]])
    keep = (rng.random((2, 3, 4)) >= 0.2) / 0.8
    for _ in range(3):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        params = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((4, 4), (4,), (4, 4), (4,), (4, 4), (4,),
                                (4, 6), (6,), (6, 4), (4,), (4,), (4,))]
        wq, bq, wk, bk, wv, bv, w_in, b_in, w_out, b_out, gain, bias = params
        target = rng.normal(size=(2, 3, 4))

        def build():
            scores = attention_scores(x, wq, bq, wk, bk, heads=2)
            probs = softmax_rows(scores, mask=mask[:, None, None, :])
            context = attention_context(probs, linear(x, wv, bv), heads=2)
            h = layer_norm(x + context * Tensor(keep), gain, bias, 1e-12)
            out = feed_forward(h, w_in, b_in, w_out, b_out)
            return mse(out, Tensor(target), include=mask[:, :, None])

        check_grads(build, [x] + params)
