"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable operation is a `Function` that records its parents;
a backward pass walks the resulting graph once in reverse topological
order, accumulating gradients into the `grad` field of leaf tensors that
have `requires_grad` set. A graph belongs to a single thread. Grad mode
is process-wide: `no_grad` flips one module-level flag, so it switches
recording off for every thread while the block runs.

All data is 64-bit IEEE-754, row-major. First-order gradients only.

Heap policy: importing this module fixes two glibc malloc parameters for
the process, once. Blocks under 32 MiB come from the heap, and the heap
is given back to the OS only when more than 1 GiB at its top is free.
With glibc's defaults, each freed step graph is trimmed from the heap and
the next step faults the same pages back in. This is a fixed policy, not
a setting. On a C library without `mallopt` (not glibc) nothing changes.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import erf

from .errors import (
    AllMaskedError,
    EmptyTensorError,
    LabelOutOfRangeError,
    NonFiniteLossError,
    NonScalarLossError,
    ShapeMismatchError,
)

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_grad_enabled = True

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fix_heap_policy() -> None:
    """Keep freed graph memory in the heap for reuse (see module docstring)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_fix_heap_policy()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (constants come out)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def is_grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """A dense float64 array plus optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._ctx: Optional[Function] = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def numel(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- gradient management --------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """A view of the same data cut off from any graph."""
        return Tensor(self.data)

    def backward(self) -> None:
        backward(self)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return Add.apply(self, _as_tensor(other))

    def __radd__(self, other):
        return Add.apply(_as_tensor(other), self)

    def __sub__(self, other):
        return Sub.apply(self, _as_tensor(other))

    def __rsub__(self, other):
        return Sub.apply(_as_tensor(other), self)

    def __mul__(self, other):
        return Mul.apply(self, _as_tensor(other))

    def __rmul__(self, other):
        return Mul.apply(_as_tensor(other), self)

    def __neg__(self):
        return Neg.apply(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return Mul.apply(self, _as_tensor(1.0 / float(other)))

    def __matmul__(self, other):
        return MatMul.apply(self, _as_tensor(other))

    def __pow__(self, exponent):
        return Pow.apply(self, exponent=float(exponent))

    def __getitem__(self, key):
        return Slice.apply(self, key=key)

    # -- shape ops --------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    def permute(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return Permute.apply(self, axes=axes)

    # -- reductions and pointwise ops --------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.numel if axis is None else _axis_extent(self.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def tanh(self) -> "Tensor":
        return Tanh.apply(self)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _axis_extent(shape, axis) -> int:
    if isinstance(axis, (tuple, list)):
        n = 1
        for a in axis:
            n *= shape[a]
        return n
    return shape[axis]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Function:
    """One differentiable operation: a node of the backward graph."""

    def __init__(self, *parents: Tensor):
        self.parents = parents

    def forward(self, *arrays: np.ndarray, **kwargs) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> tuple:
        """Gradients w.r.t. each parent (None where nothing flows)."""
        raise NotImplementedError

    @classmethod
    def apply(cls, *tensors: Tensor, **kwargs) -> Tensor:
        ctx = cls(*tensors)
        out_data = ctx.forward(*(t.data for t in tensors), **kwargs)
        needs_grad = _grad_enabled and any(t.requires_grad or t._ctx is not None for t in tensors)
        out = Tensor(out_data, requires_grad=needs_grad)
        if needs_grad:
            out._ctx = ctx
        return out


def backward(loss: Tensor) -> None:
    """Populate `grad` on every reachable `requires_grad` leaf.

    Repeated calls without `zero_grad` accumulate, so a sum of losses
    equals the sum of per-loss gradients.
    """
    if loss.numel != 1:
        raise NonScalarLossError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NonFiniteLossError("loss is not finite")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node._ctx is not None:
            for parent in node._ctx.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

    # A gradient a Function returned may be shared (Add hands one array to
    # both parents), so it is never written to. A merge allocates a fresh
    # sum; `owned` holds the ids whose pending gradient is such a sum, which
    # later merges and the leaf may then reuse in place.
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    owned: set[int] = set()
    for node in reversed(order):
        grad = flowing.pop(id(node), None)
        if grad is None:
            continue
        if node._ctx is None:
            if node.requires_grad:
                if node.grad is None:
                    node.grad = grad if id(node) in owned else grad.copy()
                else:
                    node.grad += grad
            continue
        for parent, pgrad in zip(node._ctx.parents, node._ctx.backward(grad)):
            if pgrad is None:
                continue
            key = id(parent)
            if key in owned:
                flowing[key] += pgrad
            elif key in flowing:
                flowing[key] = flowing[key] + pgrad
                owned.add(key)
            else:
                flowing[key] = pgrad


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

class Add(Function):
    def forward(self, a, b):
        self.shapes = (a.shape, b.shape)
        return a + b

    def backward(self, g):
        return _unbroadcast(g, self.shapes[0]), _unbroadcast(g, self.shapes[1])


class Sub(Function):
    def forward(self, a, b):
        self.shapes = (a.shape, b.shape)
        return a - b

    def backward(self, g):
        return _unbroadcast(g, self.shapes[0]), _unbroadcast(-g, self.shapes[1])


class Mul(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a * b

    def backward(self, g):
        return _unbroadcast(g * self.b, self.a.shape), _unbroadcast(g * self.a, self.b.shape)


class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, g):
        return (-g,)


class Pow(Function):
    def forward(self, a, exponent):
        self.a, self.exponent = a, exponent
        return a ** exponent

    def backward(self, g):
        return (g * self.exponent * self.a ** (self.exponent - 1.0),)


class Tanh(Function):
    def forward(self, a):
        self.out = np.tanh(a)
        return self.out

    def backward(self, g):
        return (g * (1.0 - self.out * self.out),)


class Gelu(Function):
    """Gaussian error linear unit, exact erf form."""

    def forward(self, a):
        self.a = a
        self.cdf = 0.5 * (1.0 + erf(a / _SQRT2))
        return a * self.cdf

    def backward(self, g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * self.a * self.a)
        return (g * (self.cdf + self.a * pdf),)


class MatMul(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return np.matmul(a, b)

    def backward(self, g):
        ga = np.matmul(g, np.swapaxes(self.b, -1, -2))
        gb = np.matmul(np.swapaxes(self.a, -1, -2), g)
        return _unbroadcast(ga, self.a.shape), _unbroadcast(gb, self.b.shape)


class Linear(Function):
    """Affine map `x @ w + b` over the last axis of `x`; the weight
    gradient is one 2-D product over all leading positions."""

    def forward(self, x, w, b):
        self.x, self.w = x, w
        out = np.matmul(x, w)
        out += b
        return out

    def backward(self, g):
        d_in, d_out = self.w.shape
        rows = g.reshape(-1, d_out)
        gw = self.x.reshape(-1, d_in).T @ rows
        return np.matmul(g, self.w.T), gw, rows.sum(axis=0)


class LayerNorm(Function):
    """`(x - mean) / sqrt(var + eps) * gain + bias` over the last axis.

    The forward pass runs the same numpy operations, in the same order,
    as the composition of `mean`, `-`, `*` and `** -0.5` on tensors, so
    its values are bit-equal to it; backward keeps only the normalized
    input, the reciprocal deviation and the gain.
    """

    def forward(self, x, gain, bias, eps):
        scale = 1.0 / x.shape[-1]
        centered = x - np.sum(x, axis=-1, keepdims=True) * scale
        var = np.sum(centered * centered, axis=-1, keepdims=True) * scale
        self.inv_std = (var + eps) ** -0.5
        self.xhat = centered * self.inv_std
        self.gain = gain
        return self.xhat * gain + bias

    def backward(self, g):
        d = self.gain.shape[0]
        rows = g.reshape(-1, d)
        ggain = (rows * self.xhat.reshape(-1, d)).sum(axis=0)
        gxhat = g * self.gain
        gx = self.inv_std * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                             - self.xhat * (gxhat * self.xhat).mean(axis=-1, keepdims=True))
        return gx, ggain, rows.sum(axis=0)


class Sum(Function):
    def forward(self, a, axis, keepdims):
        self.shape, self.axis, self.keepdims = a.shape, axis, keepdims
        return np.sum(a, axis=axis, keepdims=keepdims)

    def backward(self, g):
        if self.axis is not None and not self.keepdims:
            g = np.expand_dims(g, self.axis)
        return (np.broadcast_to(g, self.shape).copy(),)


class Reshape(Function):
    def forward(self, a, shape):
        self.shape = a.shape
        return a.reshape(shape)

    def backward(self, g):
        return (g.reshape(self.shape),)


class Permute(Function):
    def forward(self, a, axes):
        self.axes = axes
        return np.transpose(a, axes)

    def backward(self, g):
        return (np.transpose(g, np.argsort(self.axes)),)


class Slice(Function):
    def forward(self, a, key):
        self.shape, self.key = a.shape, key
        return a[key].copy()

    def backward(self, g):
        out = np.zeros(self.shape)
        out[self.key] = g
        return (out,)


class GatherRows(Function):
    """Row lookup `table[ids]`; the backward pass scatter-adds."""

    def forward(self, table, ids):
        self.table_shape = table.shape
        self.ids = ids
        return table[ids]

    def backward(self, g):
        out = np.zeros(self.table_shape)
        np.add.at(out, self.ids.reshape(-1), g.reshape(-1, g.shape[-1]))
        return (out,)


def gelu(x: Tensor) -> Tensor:
    return Gelu.apply(x)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` for a (d_in, d_out) weight and a (d_out,) bias."""
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ShapeMismatchError(
            f"linear shapes do not fit: x {x.shape}, w {w.shape}, b {b.shape}")
    return Linear.apply(x, w, b)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalize over the last axis, then scale by `gain` and shift by `bias`."""
    if gain.shape != x.shape[-1:] or bias.shape != gain.shape:
        raise ShapeMismatchError(
            f"layer_norm shapes do not fit: x {x.shape}, gain {gain.shape}, bias {bias.shape}")
    return LayerNorm.apply(x, gain, bias, eps=eps)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("ids must be integers")
    return GatherRows.apply(table, ids=ids)


# ---------------------------------------------------------------------------
# softmax / losses
# ---------------------------------------------------------------------------

class SoftmaxRows(Function):
    def forward(self, x, mask):
        if mask is not None:
            keep = np.broadcast_to(mask, x.shape)
            if not keep.any(axis=-1).all():
                raise AllMaskedError("softmax row with every entry masked")
            shifted = np.where(keep, x, -np.inf)
        else:
            shifted = x
        shifted = shifted - shifted.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        self.out = e / e.sum(axis=-1, keepdims=True)
        return self.out

    def backward(self, g):
        inner = (g * self.out).sum(axis=-1, keepdims=True)
        return (self.out * (g - inner),)


def softmax_rows(x: Tensor, mask=None) -> Tensor:
    """Numerically stable softmax over the last axis.

    `mask` is boolean, broadcastable to `x`; masked entries come out
    exactly zero and each row is normalized over its unmasked entries.
    """
    if mask is not None:
        mask = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=bool)
    return SoftmaxRows.apply(x, mask=mask)


class Mse(Function):
    """Mean squared error over the elements selected by `include` (all
    when None); the divisor is the count of included elements, and
    excluded elements add exactly 0 to the value and the gradient."""

    def forward(self, x, y, include):
        if x.shape != y.shape:
            raise ShapeMismatchError(f"mse shapes differ: {x.shape} vs {y.shape}")
        if x.size == 0:
            raise EmptyTensorError("mse of empty tensors")
        self.diff = x - y
        self.n = x.size
        if include is not None:
            try:
                include = np.broadcast_to(np.asarray(include, dtype=bool), x.shape)
            except ValueError:
                raise ShapeMismatchError(f"mse mask does not broadcast to {x.shape}") from None
            self.n = int(np.count_nonzero(include))
            if self.n == 0:
                raise AllMaskedError("mse with every element excluded")
            self.diff = np.where(include, self.diff, 0.0)
        return np.asarray((self.diff * self.diff).sum() / self.n)

    def backward(self, g):
        base = g * 2.0 * self.diff / self.n
        return base, -base


def mse(x: Tensor, y: Tensor, include=None) -> Tensor:
    return Mse.apply(_as_tensor(x), _as_tensor(y), include=include)


class CrossEntropy(Function):
    """Mean over the batch of -log softmax(logits)[label]."""

    def forward(self, logits, labels):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        z = e.sum(axis=-1, keepdims=True)
        log_z = np.log(z[:, 0])
        picked = shifted[np.arange(len(labels)), labels]
        self.probs = e / z
        self.labels = labels
        return np.asarray((log_z - picked).mean())

    def backward(self, g):
        grad = self.probs.copy()
        grad[np.arange(len(self.labels)), self.labels] -= 1.0
        return (g * grad / len(self.labels),)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeMismatchError(f"logits must be (batch, classes), got {logits.shape}")
    num_classes = logits.shape[-1]
    if num_classes < 2:
        raise ShapeMismatchError(f"need at least 2 classes, got {num_classes}")
    if labels.shape != (logits.shape[0],):
        raise ShapeMismatchError(f"labels shape {labels.shape} does not match batch {logits.shape[0]}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise LabelOutOfRangeError(f"labels must lie in [0, {num_classes})")
    return CrossEntropy.apply(logits, labels=labels.astype(np.int64))
