"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable operation is a `Function` that records its parents;
a backward pass walks the resulting graph once in reverse topological
order, accumulating gradients into the `grad` field of leaf tensors that
have `requires_grad` set. A graph belongs to a single thread. Grad mode
is per thread: `no_grad` switches recording off only for the thread that
enters it, so one thread can run a no-grad forward while another records.

The tape keeps only what backward reads. `Function.apply` records in
`ctx.needs` which inputs need a gradient. An input that needs none is
stored in `ctx.parents` as one shared, empty constant, so its array is
freed as soon as nothing else holds it, and the ops neither save nor
compute what only its gradient would use.

The encoder's sublayers are single fused nodes: `Linear`, `LayerNorm`,
`AttentionScores`, `AttentionContext` and `FeedForward`. Each forward pass
runs the numpy operations of its step-by-step composition in the same
order, so its values are bit-equal to that composition.

All data is 64-bit IEEE-754, row-major. First-order gradients only.

Heap policy: importing this module fixes three glibc malloc parameters
for the process, once. Blocks under 32 MiB come from the heap, the heap
is given back to the OS only when more than 1 GiB at its top is free, and
every thread allocates from the one main arena. With glibc's defaults,
each freed step graph is trimmed from the heap and the next step faults
the same pages back in, and a worker thread's allocations go to an arena
of their own instead of reusing the space the main thread freed. This is
a fixed policy, not a setting. On a C library without `mallopt` (not
glibc) nothing changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from typing import Optional

import numpy as np
from scipy.special import erf

from .errors import NonFiniteLossError, ValidationError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


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
    mallopt(_M_ARENA_MAX, 1)


_fix_heap_policy()


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording in this thread inside the block (constants
    come out); other threads keep recording."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


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

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return Add.apply(self, _as_tensor(other))

    def __radd__(self, other):
        return Add.apply(_as_tensor(other), self)

    def __mul__(self, other):
        return Mul.apply(self, _as_tensor(other))

    def __rmul__(self, other):
        return Mul.apply(_as_tensor(other), self)

    def __getitem__(self, key):
        return Slice.apply(self, key=key)

    # -- pointwise ops -----------------------------------------------------

    def tanh(self) -> "Tensor":
        return Tanh.apply(self)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


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
    """One differentiable operation: a node of the backward graph.

    `apply` sets `needs` before `forward` runs: one flag per input, True
    where that input needs a gradient. `forward` saves only what the needed
    gradients read, and `backward` returns None for every other input.
    """

    needs: tuple = ()
    parents: tuple = ()

    def forward(self, *arrays: np.ndarray, **kwargs) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> tuple:
        """Gradients w.r.t. each parent (None where nothing flows)."""
        raise NotImplementedError

    @classmethod
    def apply(cls, *tensors: Tensor, **kwargs) -> Tensor:
        ctx = cls()
        if _grad_mode.enabled:
            ctx.needs = tuple(t.requires_grad or t._ctx is not None for t in tensors)
        else:
            ctx.needs = (False,) * len(tensors)
        out = Tensor(ctx.forward(*(t.data for t in tensors), **kwargs))
        if any(ctx.needs):
            ctx.parents = tuple(t if need else _CONSTANT
                                for t, need in zip(tensors, ctx.needs))
            out.requires_grad = True
            out._ctx = ctx
        return out


# Stands in, in `Function.parents`, for every input that needs no gradient.
_CONSTANT = Tensor(np.empty(0))


def backward(loss: Tensor) -> None:
    """Populate `grad` on every reachable `requires_grad` leaf.

    Repeated calls accumulate until `grad` is cleared (`Adam.zero_grad`
    does that), so a sum of losses equals the sum of per-loss gradients.
    """
    if loss.numel != 1:
        raise ValidationError(f"backward needs a scalar loss, got shape {loss.shape}")
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
        ctx = node._ctx
        if ctx is None:
            if node.requires_grad:
                if node.grad is None:
                    node.grad = grad if id(node) in owned else grad.copy()
                else:
                    node.grad += grad
            continue
        for parent, need, pgrad in zip(ctx.parents, ctx.needs, ctx.backward(grad)):
            if not need or pgrad is None:
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
        return tuple(_unbroadcast(g, shape) if need else None
                     for shape, need in zip(self.shapes, self.needs))


class Mul(Function):
    def forward(self, a, b):
        # Each factor is kept only for the other one's gradient.
        need_a, need_b = self.needs
        self.shapes = (a.shape, b.shape)
        self.a = a if need_b else None
        self.b = b if need_a else None
        return a * b

    def backward(self, g):
        need_a, need_b = self.needs
        return (_unbroadcast(g * self.b, self.shapes[0]) if need_a else None,
                _unbroadcast(g * self.a, self.shapes[1]) if need_b else None)


class Tanh(Function):
    def forward(self, a):
        self.out = np.tanh(a)
        return self.out

    def backward(self, g):
        return (g * (1.0 - self.out * self.out),)


def _affine(x, w, b):
    """`x @ w + b`, the product written into and then shifted in place."""
    out = np.matmul(x, w)
    out += b
    return out


def _affine_grads(g, x, w, needs):
    """Gradients of `x @ w + b` w.r.t. (x, w, b) for upstream `g`, each
    only where `needs` asks for it; the weight gradient is one 2-D product
    over all leading positions."""
    rows = g.reshape(-1, g.shape[-1])
    return (np.matmul(g, w.T) if needs[0] else None,
            x.reshape(-1, x.shape[-1]).T @ rows if needs[1] else None,
            rows.sum(axis=0) if needs[2] else None)


class Linear(Function):
    """Affine map `x @ w + b` over the last axis of `x`."""

    def forward(self, x, w, b):
        self.x = x if self.needs[1] else None
        self.w = w if self.needs[0] else None
        return _affine(x, w, b)

    def backward(self, g):
        return _affine_grads(g, self.x, self.w, self.needs)


class LayerNorm(Function):
    """`(x - mean) / sqrt(var + eps) * gain + bias` over the last axis.

    Each mean is a sum times 1/d, and the reciprocal deviation is
    `(var + eps) ** -0.5`; backward keeps only the normalized input, the
    reciprocal deviation and the gain.
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


def _split_heads(t, heads):
    """(B, T, d) -> a (B, H, T, d/H) view."""
    batch, seq_len, d = t.shape
    return np.transpose(t.reshape((batch, seq_len, heads, d // heads)), (0, 2, 1, 3))


def _merge_heads(t):
    """(B, H, T, d/H) -> a (B, T, d) copy."""
    batch, heads, seq_len, head_dim = t.shape
    return np.transpose(t, (0, 2, 1, 3)).reshape((batch, seq_len, heads * head_dim))


class AttentionScores(Function):
    """Scaled per-head scores `q k^T / sqrt(d/H)` of (B, H, R, T) for the R
    query positions `rows`, with `q = x[:, rows] @ wq + bq` and
    `k = x @ wk + bk` split into H heads.

    Its values are bit-equal to the step-by-step numpy composition: both
    affine maps, the head split by reshape and transpose, the batched
    product and the scale. Backward keeps the per-head q and k, and adds
    the query side's input gradient into rows `rows` of the key side's.
    """

    def forward(self, x, wq, bq, wk, bk, heads, rows):
        q = _split_heads(_affine(x[:, rows], wq, bq), heads)
        k = _split_heads(_affine(x, wk, bk), heads)
        self.scale = 1.0 / np.sqrt(q.shape[-1])
        scores = np.matmul(q, np.transpose(k, (0, 1, 3, 2)))
        scores *= self.scale
        needs = self.needs
        # The query side's gradients read k, the key side's read q.
        self.k = k if any(needs[:3]) else None
        self.q = q if needs[0] or needs[3] or needs[4] else None
        self.x = x if needs[1] or needs[3] else None
        self.rows = rows
        self.wq, self.wk = (wq, wk) if needs[0] else (None, None)
        return scores

    def backward(self, g):
        needs = self.needs
        g = g * self.scale
        gx = gwq = gbq = gwk = gbk = None
        if self.q is not None:
            gk = _merge_heads(np.matmul(np.swapaxes(g, -1, -2), self.q))
            gx, gwk, gbk = _affine_grads(gk, self.x, self.wk, (needs[0], needs[3], needs[4]))
        if self.k is not None:
            gq = _merge_heads(np.matmul(g, self.k))
            x_rows = None if self.x is None else self.x[:, self.rows]
            gx_q, gwq, gbq = _affine_grads(gq, x_rows, self.wq, needs[:3])
            if needs[0]:
                gx[:, self.rows] += gx_q
        return gx, gwq, gbq, gwk, gbk


class AttentionContext(Function):
    """Per-head context `probs @ v` for (B, H, Tq, T) weights, with the
    (B, T, d) values split into H heads, merged back to (B, Tq, d).

    Its values are bit-equal to the step-by-step numpy composition: the
    head split, the batched product, and the merge by transpose and
    reshape.
    """

    def forward(self, probs, v, heads):
        v_heads = _split_heads(v, heads)
        self.heads = heads
        self.probs = probs if self.needs[1] else None
        self.v = v_heads if self.needs[0] else None
        return _merge_heads(np.matmul(probs, v_heads))

    def backward(self, g):
        g = _split_heads(g, self.heads)
        gprobs = np.matmul(g, np.swapaxes(self.v, -1, -2)) if self.needs[0] else None
        gv = _merge_heads(np.matmul(np.swapaxes(self.probs, -1, -2), g)) \
            if self.needs[1] else None
        return gprobs, gv


class FeedForward(Function):
    """`gelu(x @ w_in + b_in) @ w_out + b_out`, GELU in its exact erf form.

    Its values are bit-equal to the step-by-step numpy composition: the
    affine map, `pre * 0.5 * (1 + erf(pre / sqrt(2)))`, the affine map;
    the erf is computed in place. Backward keeps the pre-activation and
    the Gaussian cdf, and recomputes the activation.
    """

    def forward(self, x, w_in, b_in, w_out, b_out):
        pre = _affine(x, w_in, b_in)
        cdf = pre / _SQRT2
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        if not any(self.needs):
            cdf *= pre  # the activation, in place: backward will not run
            del pre
            return _affine(cdf, w_out, b_out)
        self.pre, self.cdf, self.w_out = pre, cdf, w_out
        self.x = x if self.needs[1] else None
        self.w_in = w_in if self.needs[0] else None
        return _affine(pre * cdf, w_out, b_out)

    def backward(self, g):
        needs = self.needs
        _, gw_out, gb_out = _affine_grads(g, self.pre * self.cdf if needs[3] else None,
                                          self.w_out, (False, needs[3], needs[4]))
        if not any(needs[:3]):
            return None, None, None, gw_out, gb_out
        gpre = np.matmul(g, self.w_out.T)
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * self.pre * self.pre)
        gpre *= self.cdf + self.pre * pdf
        return (*_affine_grads(gpre, self.x, self.w_in, needs[:3]), gw_out, gb_out)


class Slice(Function):
    def forward(self, a, key):
        self.shape, self.key = a.shape, key
        return a[key].copy()

    def backward(self, g):
        out = np.zeros(self.shape)
        out[self.key] = g
        return (out,)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` for a (d_in, d_out) weight and a (d_out,) bias."""
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ValidationError(
            f"linear shapes do not fit: x {x.shape}, w {w.shape}, b {b.shape}")
    return Linear.apply(x, w, b)


def attention_scores(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
                     heads: int, rows: slice = slice(None)) -> Tensor:
    """Scaled per-head scores (B, H, R, T) of a (B, T, d) input under
    (d, d) query/key weights and (d,) biases, for the R query positions
    that the slice `rows` selects (default: all T) against every key."""
    d = x.shape[-1]
    if x.ndim != 3 or heads < 1 or d % heads or not isinstance(rows, slice) or \
            any(w.shape != (d, d) for w in (wq, wk)) or any(b.shape != (d,) for b in (bq, bk)):
        raise ValidationError(
            f"attention_scores shapes do not fit: x {x.shape}, {heads} heads, rows {rows}, "
            f"wq {wq.shape}, bq {bq.shape}, wk {wk.shape}, bk {bk.shape}")
    return AttentionScores.apply(x, wq, bq, wk, bk, heads=heads, rows=rows)


def attention_context(probs: Tensor, v: Tensor, heads: int) -> Tensor:
    """Per-head `probs @ v` for (B, H, Tq, T) weights over Tq <= T query
    rows and (B, T, d) values, merged back to (B, Tq, d)."""
    if v.ndim != 3 or heads < 1 or v.shape[-1] % heads or probs.ndim != 4 or \
            probs.shape[:2] != (v.shape[0], heads) or probs.shape[3] != v.shape[1] or \
            probs.shape[2] > v.shape[1]:
        raise ValidationError(
            f"attention_context shapes do not fit: probs {probs.shape}, v {v.shape}, "
            f"{heads} heads")
    return AttentionContext.apply(probs, v, heads=heads)


def feed_forward(x: Tensor, w_in: Tensor, b_in: Tensor, w_out: Tensor,
                 b_out: Tensor) -> Tensor:
    """`gelu(x @ w_in + b_in) @ w_out + b_out` with exact-erf GELU, for
    (d, f) and (f, d) weights."""
    d = x.shape[-1]
    if w_in.ndim != 2 or w_in.shape[0] != d or b_in.shape != w_in.shape[1:] or \
            w_out.shape != (w_in.shape[1], d) or b_out.shape != (d,):
        raise ValidationError(
            f"feed_forward shapes do not fit: x {x.shape}, w_in {w_in.shape}, "
            f"b_in {b_in.shape}, w_out {w_out.shape}, b_out {b_out.shape}")
    return FeedForward.apply(x, w_in, b_in, w_out, b_out)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalize over the last axis, then scale by `gain` and shift by `bias`."""
    if gain.shape != x.shape[-1:] or bias.shape != gain.shape:
        raise ValidationError(
            f"layer_norm shapes do not fit: x {x.shape}, gain {gain.shape}, bias {bias.shape}")
    return LayerNorm.apply(x, gain, bias, eps=eps)


# ---------------------------------------------------------------------------
# softmax / losses
# ---------------------------------------------------------------------------

class SoftmaxRows(Function):
    def forward(self, x, mask):
        if mask is not None:
            keep = np.broadcast_to(mask, x.shape)
            if not keep.any(axis=-1).all():
                raise ValidationError("softmax row with every entry masked")
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
            raise ValidationError(f"mse shapes differ: {x.shape} vs {y.shape}")
        if x.size == 0:
            raise ValidationError("mse of empty tensors")
        self.diff = x - y
        self.n = x.size
        if include is not None:
            try:
                include = np.broadcast_to(np.asarray(include, dtype=bool), x.shape)
            except ValueError:
                raise ValidationError(f"mse mask does not broadcast to {x.shape}") from None
            self.n = int(np.count_nonzero(include))
            if self.n == 0:
                raise ValidationError("mse with every element excluded")
            self.diff = np.where(include, self.diff, 0.0)
        return np.asarray((self.diff * self.diff).sum() / self.n)

    def backward(self, g):
        base = g * 2.0 * self.diff / self.n
        return (base if self.needs[0] else None), (-base if self.needs[1] else None)


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
        raise ValidationError(f"logits must be (batch, classes), got {logits.shape}")
    num_classes = logits.shape[-1]
    if num_classes < 2:
        raise ValidationError(f"need at least 2 classes, got {num_classes}")
    if labels.shape != (logits.shape[0],):
        raise ValidationError(f"labels shape {labels.shape} does not match batch {logits.shape[0]}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValidationError(f"labels must lie in [0, {num_classes})")
    return CrossEntropy.apply(logits, labels=labels.astype(np.int64))
