"""Independent reference implementations used by the tests.

Everything here is written in the most literal style possible: explicit
index loops, no shared code with the package, so agreement between the
two is evidence rather than tautology. The one exception is `total`, the
tests' scalar reducer: it must sit on the package's tape to reduce a
tensor to a loss, so it is a `Function`, with a backward pass short
enough to check by eye.
"""

import numpy as np

from cascadekd.tensor import Function


class WeightedTotal(Function):
    """`sum(x * weights)` for a constant weight array of x's shape."""

    def forward(self, x, weights):
        self.weights = weights
        return np.asarray(np.sum(x * weights))

    def backward(self, g):
        return (g * self.weights,)


def total(x, weights=1.0):
    """The scalar `sum(x * weights)` on the tape; `weights` is a constant
    that broadcasts to x's shape (default: a plain sum)."""
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), x.shape)
    return WeightedTotal.apply(x, weights=weights)


def reference_distill_loss(teacher_hidden, teacher_attn,
                           student_hidden, student_attn, mask):
    """Distillation objective computed with explicit loops.

    teacher_hidden: list of n+2 arrays (B, T, d)
    teacher_attn:   list of n+1 arrays (B, H, T, T)
    student_hidden: list of n+1 arrays (B, T, d)
    student_attn:   list of n   arrays (B, H, T, T)
    mask:           (B, T) bool; padded positions are excluded, attention
                    entries are included only when both query and key are
                    real, and every divisor counts included elements.
    """
    n = len(student_attn)
    assert len(teacher_attn) == n + 1
    assert len(student_hidden) == n + 1
    assert len(teacher_hidden) == n + 2
    batch, seq = mask.shape
    heads = student_attn[0].shape[1]
    total = 0.0

    for j in range(1, n + 1):
        per_head = []
        for h in range(heads):
            squared = 0.0
            count = 0
            for b in range(batch):
                for q in range(seq):
                    for k in range(seq):
                        if mask[b, q] and mask[b, k]:
                            target = 0.5 * (teacher_attn[j - 1][b, h, q, k]
                                            + teacher_attn[j][b, h, q, k])
                            diff = student_attn[j - 1][b, h, q, k] - target
                            squared += diff * diff
                            count += 1
            per_head.append(squared / count)
        total += sum(per_head) / heads

    dim = student_hidden[0].shape[2]
    for k in range(1, n + 2):
        squared = 0.0
        count = 0
        for b in range(batch):
            for t in range(seq):
                if mask[b, t]:
                    for c in range(dim):
                        target = 0.5 * (teacher_hidden[k - 1][b, t, c]
                                        + teacher_hidden[k][b, t, c])
                        diff = student_hidden[k - 1][b, t, c] - target
                        squared += diff * diff
                        count += 1
        total += squared / count

    return total / n


def reference_lr(total_steps, warmup_steps, full_warmup, peak_lr, step):
    """Trapezoidal schedule evaluated straight from its definition."""
    if full_warmup:
        return peak_lr * step / total_steps
    if warmup_steps > 0 and step <= warmup_steps:
        return peak_lr * step / warmup_steps
    return peak_lr * (total_steps - step) / (total_steps - warmup_steps)


def reference_adam(param, grads, lr, beta1, beta2, eps, weight_decay=0.0):
    """Replay bias-corrected Adam over a gradient sequence, functionally."""
    p = np.array(param, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64) + weight_decay * p
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def finite_difference_grad(f, array, h=1e-5):
    """Central-difference gradient of the scalar function f() with respect
    to `array`, which f reads in place."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        f_plus = f()
        flat[i] = original - h
        f_minus = f()
        flat[i] = original
        out[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric, floor):
    """Worst-case elementwise relative disagreement.

    Coordinates below `floor` in both arrays compare against `floor`
    itself, so roundoff noise around zero does not report as a large
    relative error.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def fd_denominator_floor(f_scale, h=1e-5, tol=1e-6, safety=32.0):
    """Smallest meaningful denominator for a relative FD comparison.

    A float64 central difference carries absolute noise of order
    eps * max(|f|, 1) / (2h) (the 1 covers order-one intermediates even
    when the final value is small). Coordinates whose magnitude sits
    below that noise divided by `tol` cannot be checked relatively at
    `tol`, so they are measured against this floor instead.
    """
    eps = float(np.finfo(np.float64).eps)
    noise = safety * eps * max(abs(f_scale), 1.0) / (2.0 * h)
    return noise / tol
