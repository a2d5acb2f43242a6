"""Autodiff core: forward values against hand-worked cases, every
backward pass against central differences."""

import numpy as np
import pytest

from cascadekd.errors import (
    AllMaskedError,
    EmptyTensorError,
    LabelOutOfRangeError,
    NonFiniteLossError,
    NonScalarLossError,
    ShapeMismatchError,
)
from cascadekd.tensor import (
    Tensor,
    backward,
    cross_entropy,
    gather_rows,
    gelu,
    mse,
    no_grad,
    softmax_rows,
)

from oracles import fd_denominator_floor, finite_difference_grad, max_relative_error


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
    assert np.allclose((a - b).data, [-3, -3, -3])
    assert np.allclose((a * b).data, [4, 10, 18])
    assert np.allclose((-a).data, [-1, -2, -3])
    assert np.allclose((a / 2.0).data, [0.5, 1.0, 1.5])
    assert np.allclose((a ** 2).data, [1, 4, 9])
    assert np.allclose((a + 1.0).data, [2, 3, 4])
    assert np.allclose((2.0 * a).data, [2, 4, 6])


def test_matmul_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=(2, 3, 4))
        y = rng.normal(size=(4, 5))
        out = Tensor(x) @ Tensor(y)
        assert np.allclose(out.data, x @ y)


def test_shape_ops_forward():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    assert (x.reshape(6, 4)).shape == (6, 4)
    assert (x.permute(2, 0, 1)).shape == (4, 2, 3)
    assert np.allclose(x.sum(axis=1).data, x.data.sum(axis=1))
    assert np.allclose(x.sum(axis=-1, keepdims=True).data,
                       x.data.sum(axis=-1, keepdims=True))
    assert np.isclose(x.mean().item(), x.data.mean())
    assert np.allclose(x[:, 1].data, x.data[:, 1])


def test_gelu_values():
    # exact form: x * Phi(x) with the Gaussian CDF
    x = Tensor([0.0, 1.0, -10.0, 10.0])
    out = gelu(x).data
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
    with pytest.raises(AllMaskedError):
        softmax_rows(Tensor(np.ones((1, 3))), mask=mask)


def test_mse_values_and_errors():
    assert mse(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item() == 0.0
    assert mse(Tensor([3.0]), Tensor([0.0])).item() == 9.0
    assert np.isclose(mse(Tensor([[1.0, 3.0]]), Tensor([[0.0, 0.0]])).item(), 5.0)
    with pytest.raises(ShapeMismatchError):
        mse(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]]))
    with pytest.raises(EmptyTensorError):
        mse(Tensor(np.zeros((0, 2))), Tensor(np.zeros((0, 2))))
    with pytest.raises(ShapeMismatchError):
        mse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), include=np.ones(2, dtype=bool))
    with pytest.raises(AllMaskedError):
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


def test_cross_entropy_errors():
    with pytest.raises(LabelOutOfRangeError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(LabelOutOfRangeError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))
    with pytest.raises(ShapeMismatchError):
        cross_entropy(Tensor(np.zeros((2, 1))), np.array([0, 0]))
    with pytest.raises(ShapeMismatchError):
        cross_entropy(Tensor(np.zeros(3)), np.array([0]))
    with pytest.raises(ShapeMismatchError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))


def test_gather_rows_forward():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    ids = np.array([[0, 3], [1, 1]])
    out = gather_rows(table, ids)
    assert np.allclose(out.data, table.data[ids])


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------

def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(NonScalarLossError):
        backward(x + x)


def test_backward_rejects_nonfinite():
    x = Tensor([np.inf], requires_grad=True)
    with pytest.raises(NonFiniteLossError):
        backward(x.sum())


def test_grad_accumulates_across_branches():
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0 + x * 5.0
    backward(y.sum())
    assert np.allclose(x.grad, [8.0])


def test_no_grad_blocks_taping():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 2.0
    assert y._ctx is None
    z = x * 2.0
    backward(z.sum())
    assert np.allclose(x.grad, [2.0])


def test_detach_cuts_graph():
    x = Tensor([3.0], requires_grad=True)
    y = (x * 2.0).detach() * x
    backward(y.sum())
    assert np.allclose(x.grad, [6.0])


def test_gather_rows_backward_accumulates_duplicates():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    ids = np.array([[1, 1, 2]])
    out = gather_rows(table, ids)
    backward((out * out + out).sum())
    assert np.allclose(table.grad, [[0, 0], [2, 2], [1, 1]])


# ---------------------------------------------------------------------------
# gradients against central differences
# ---------------------------------------------------------------------------

def test_arithmetic_grads():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)

        def build():
            return ((a + b) * (a - b) + (a * 0.5) ** 3 - b / 2.0).sum()

        check_grads(build, [a, b])


def test_matmul_broadcast_grads():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def build():
            return ((x @ w) ** 2).sum()

        check_grads(build, [x, w])


def test_nonlinearity_grads():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = Tensor(rng.normal(size=(6,)), requires_grad=True)

        def build():
            return (gelu(x) + x.tanh() * 0.5).sum()

        check_grads(build, [x])


def test_softmax_grads():
    rng = np.random.default_rng(5)
    mask = np.array([[True, True, True, False]])
    for _ in range(5):
        x = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        t = rng.normal(size=(1, 4))
        t[0, 3] = 0.0

        def build():
            return (softmax_rows(x, mask=mask) * Tensor(t)).sum()

        check_grads(build, [x])


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


def test_cross_entropy_grads():
    rng = np.random.default_rng(7)
    labels = np.array([0, 2, 1])
    for _ in range(5):
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def build():
            return cross_entropy(logits, labels)

        check_grads(build, [logits])


def test_shape_op_grads():
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

        def build():
            y = x.permute(1, 0, 2).reshape(3, 8)
            return (y[:, :4] * y[:, 4:]).sum() + y.mean()

        check_grads(build, [x])


def test_composite_graph_grads():
    # one graph exercising every op the encoder uses
    rng = np.random.default_rng(9)
    ids = np.array([[0, 2], [1, 1]])
    mask = np.array([[True, True], [True, False]])
    for _ in range(3):
        table = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        target = rng.normal(size=(2, 2, 4))

        def build():
            h = gather_rows(table, ids) @ w
            scores = h @ h.permute(0, 2, 1) * (1.0 / 2.0)
            probs = softmax_rows(scores, mask=mask[:, None, :])
            ctx = probs @ h
            return mse(gelu(ctx), Tensor(target))

        check_grads(build, [table, w])
