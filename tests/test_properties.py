"""Property tests: invariants stated in module docstrings and FD-gradient
agreement of tape ops, checked over random shapes and masks."""

import inspect
import operator
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cascadekd import encoder, tensor
from cascadekd.checkpoint import WEIGHTS_NAME, load_checkpoint, save_checkpoint
from cascadekd.corpus import Batch
from cascadekd.distill import top_layer_init, total_distill_loss
from cascadekd.encoder import (
    ClassifierHead,
    ForwardTrace,
    ModelConfig,
    classify,
    init_random,
)
from cascadekd.errors import NumericError
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
from cascadekd.training import PREDICT_SLICE, predict

from oracles import total
from test_persistence import tiny_model
from test_tensor import check_grads
from test_training import small_model


@st.composite
def padded_trace_arrays(draw):
    """Random teacher/student records for an n+1 -> n shrink, with a mask
    whose rows keep a random-length prefix (at least one real position)."""
    n = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 3))
    seq = draw(st.integers(1, 5))
    heads = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(0, seq), min_size=batch, max_size=batch))
    assume(max(lengths) > 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.arange(seq)[None, :] < np.array(lengths)[:, None]
    arrays = ([rng.normal(size=(batch, seq, dim)) for _ in range(n + 2)],
              [rng.normal(size=(batch, heads, seq, seq)) for _ in range(n + 1)],
              [rng.normal(size=(batch, seq, dim)) for _ in range(n + 1)],
              [rng.normal(size=(batch, heads, seq, seq)) for _ in range(n)])
    return arrays, mask, rng


def loss_and_student_grads(arrays, mask):
    t_hidden, t_attn, s_hidden, s_attn = arrays
    teacher = ForwardTrace([Tensor(h) for h in t_hidden], [Tensor(a) for a in t_attn], mask)
    student_records = [Tensor(x, requires_grad=True) for x in s_hidden + s_attn]
    student = ForwardTrace(student_records[:len(s_hidden)],
                           student_records[len(s_hidden):], mask)
    loss = total_distill_loss(teacher, student)
    backward(loss)
    return loss.item(), [t.grad for t in student_records]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=padded_trace_arrays(), scale=st.floats(1e-3, 1e6))
def test_padded_positions_move_neither_loss_nor_student_gradients(case, scale):
    arrays, mask, rng = case
    t_hidden, t_attn, s_hidden, s_attn = arrays
    pad_hidden = ~mask[:, :, None]
    pad_attn = ~(mask[:, None, :, None] & mask[:, None, None, :])

    def scribble(x, pad):
        out = x.copy()
        where = np.broadcast_to(pad, x.shape)
        out[where] = scale * rng.normal(size=int(where.sum()))
        return out

    garbage = ([scribble(h, pad_hidden) for h in t_hidden],
               [scribble(a, pad_attn) for a in t_attn],
               [scribble(h, pad_hidden) for h in s_hidden],
               [scribble(a, pad_attn) for a in s_attn])
    loss, grads = loss_and_student_grads(arrays, mask)
    garbage_loss, garbage_grads = loss_and_student_grads(garbage, mask)
    assert garbage_loss == loss
    for g, garbage_g in zip(grads, garbage_grads):
        assert np.array_equal(g, garbage_g)


# ---------------------------------------------------------------------------
# finite-difference agreement of every tape op
# ---------------------------------------------------------------------------
# One row per `Function` subclass of `tensor.py`. A row draws an op's
# shapes and inputs, and returns a scalar `build()` over the op, the inputs
# and the FD step. Each input is drawn either as a constant or as needing a
# gradient, with at least one needing it.

FD_STEP = 1e-5


def _inputs(draw, rng, shapes):
    needs = draw(st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes))
                 .filter(any), label="needs grad")
    return [Tensor(rng.normal(size=shape), requires_grad=need)
            for shape, need in zip(shapes, needs)]


def _lead(draw, min_size=0):
    return tuple(draw(st.lists(st.integers(1, 5), min_size=min_size, max_size=2), label="lead"))


def _broadcasting_shapes(draw):
    """A shape and one that broadcasts to it (a suffix of it, some extents
    set to 1), in either order."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="shape"))
    suffix = shape[draw(st.integers(0, len(shape)), label="cut"):]
    ones = draw(st.lists(st.booleans(), min_size=len(suffix), max_size=len(suffix)), label="ones")
    other = tuple(1 if one else n for n, one in zip(suffix, ones))
    return [shape, other] if draw(st.booleans(), label="swap") else [other, shape]


def _broadcasting_row(op):
    def row(draw, rng):
        a, b = _inputs(draw, rng, _broadcasting_shapes(draw))
        weights = rng.normal(size=np.broadcast_shapes(a.shape, b.shape))
        return lambda: total(op(a, b), weights), [a, b], FD_STEP
    return row


def _tanh_row(draw, rng):
    x, = _inputs(draw, rng, [(*_lead(draw), draw(st.integers(1, 4)))])
    x.data *= 2.0
    weights = rng.normal(size=x.shape)
    return lambda: total(x.tanh(), weights), [x], FD_STEP


SLICE_KEYS = (1, (slice(None), 0), (Ellipsis, slice(1, None)),
              (slice(None), slice(None, None, 2)), (slice(None), slice(1, 3)))


def _slice_row(draw, rng):
    # Two overlapping slices multiplied, plus one drawn key: the gradients
    # of several Slice nodes merge into one input.
    x, = _inputs(draw, rng, [(2, draw(st.integers(2, 4)), draw(st.integers(1, 3)))])
    key = draw(st.sampled_from(SLICE_KEYS), label="key")
    weights = rng.normal(size=x.data[key].shape)
    return lambda: total(x[:, :-1] * x[:, 1:]) + total(x[key], weights), [x], FD_STEP


def _softmax_rows_row(draw, rng):
    lead, n = _lead(draw), draw(st.integers(1, 5))
    x, = _inputs(draw, rng, [(*lead, n)])
    x.data *= 3.0
    mask = None
    form = draw(st.sampled_from(("none", "keys", "full")), label="mask")
    if form != "none":
        mask = rng.random((n,) if form == "keys" else (*lead, n)) < 0.6
        mask[..., rng.integers(n)] = True  # every row keeps an entry
    weights = rng.normal(size=(*lead, n))
    return lambda: total(softmax_rows(x, mask=mask), weights), [x], FD_STEP


def _mse_row(draw, rng):
    shape = (*_lead(draw), draw(st.integers(1, 4)))
    x, y = _inputs(draw, rng, [shape, shape])
    include = None
    if draw(st.booleans(), label="masked"):
        include = rng.random((*shape[:-1], 1)) < 0.5  # broadcast over the last axis
        include.flat[rng.integers(include.size)] = True
    return lambda: mse(x, y, include=include), [x, y], FD_STEP


def _cross_entropy_row(draw, rng):
    batch, classes = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    logits, = _inputs(draw, rng, [(batch, classes)])
    labels = rng.integers(0, classes, size=batch)
    return lambda: cross_entropy(logits, labels), [logits], FD_STEP


def _linear_row(draw, rng):
    lead, d_in, d_out = _lead(draw), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    inputs = _inputs(draw, rng, [(*lead, d_in), (d_in, d_out), (d_out,)])
    weights = rng.normal(size=(*lead, d_out))
    return lambda: total(linear(*inputs), weights), inputs, FD_STEP


def _layer_norm_row(draw, rng):
    lead, d = _lead(draw), draw(st.integers(2, 6))
    scale = draw(st.floats(1e-2, 1e2), label="scale")
    x, gain, bias = inputs = _inputs(draw, rng, [(*lead, d), (d,), (d,)])
    x.data *= scale
    weights = rng.normal(size=(*lead, d))
    # Layer norm is invariant to the scale of x, so the FD step follows it.
    return (lambda: total(layer_norm(x, gain, bias, 1e-12), weights), inputs,
            FD_STEP * scale)


def _attention_scores_row(draw, rng):
    batch, seq = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    heads, head_dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    start = draw(st.integers(0, seq - 1), label="first query row")
    stop = draw(st.integers(start + 1, seq), label="query row stop")
    rows = draw(st.sampled_from((slice(None), slice(start, stop))), label="rows")
    d = heads * head_dim
    inputs = _inputs(draw, rng, [(batch, seq, d), (d, d), (d,), (d, d), (d,)])
    weights = rng.normal(size=(batch, heads, len(range(seq)[rows]), seq))
    return (lambda: total(attention_scores(*inputs, heads, rows=rows), weights), inputs,
            FD_STEP)


def _attention_context_row(draw, rng):
    batch, seq = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    heads, head_dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    query_rows = draw(st.integers(1, seq), label="query rows")
    probs, v = inputs = _inputs(draw, rng, [(batch, heads, query_rows, seq),
                                            (batch, seq, heads * head_dim)])
    weights = rng.normal(size=(batch, query_rows, heads * head_dim))
    return lambda: total(attention_context(probs, v, heads), weights), inputs, FD_STEP


def _feed_forward_row(draw, rng):
    lead, d, f = _lead(draw, min_size=1), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    inputs = _inputs(draw, rng, [(*lead, d), (d, f), (f,), (f, d), (d,)])
    inputs[0].data *= draw(st.floats(1e-2, 3.0), label="scale")
    weights = rng.normal(size=(*lead, d))
    return lambda: total(feed_forward(*inputs), weights), inputs, FD_STEP


FD_ROWS = {
    tensor.Add: _broadcasting_row(operator.add),
    tensor.Mul: _broadcasting_row(operator.mul),
    tensor.Tanh: _tanh_row,
    tensor.Slice: _slice_row,
    tensor.SoftmaxRows: _softmax_rows_row,
    tensor.Mse: _mse_row,
    tensor.CrossEntropy: _cross_entropy_row,
    tensor.Linear: _linear_row,
    tensor.LayerNorm: _layer_norm_row,
    tensor.AttentionScores: _attention_scores_row,
    tensor.AttentionContext: _attention_context_row,
    tensor.FeedForward: _feed_forward_row,
}


def test_fd_table_has_a_row_for_every_tape_op():
    defined = {cls for _, cls in inspect.getmembers(tensor, inspect.isclass)
               if issubclass(cls, tensor.Function) and cls is not tensor.Function
               and cls.__module__ == tensor.__name__}
    assert set(FD_ROWS) == defined


@pytest.mark.parametrize("op", FD_ROWS, ids=lambda op: op.__name__)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_tape_op_matches_finite_differences(op, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    build, inputs, step = FD_ROWS[op](data.draw, rng)
    check_grads(build, [t for t in inputs if t.requires_grad], h=step)
    for t in inputs:
        assert (t.grad is None) == (not t.requires_grad)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lead=st.lists(st.integers(1, 3), max_size=2), d_in=st.integers(1, 4),
       d_out=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_linear_matches_finite_differences(lead, d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(*lead, d_in)), requires_grad=True)
    w = Tensor(rng.normal(size=(d_in, d_out)), requires_grad=True)
    b = Tensor(rng.normal(size=d_out), requires_grad=True)
    weights = rng.normal(size=(*lead, d_out))
    check_grads(lambda: total(linear(x, w, b), weights), [x, w, b])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lead=st.lists(st.integers(1, 3), max_size=2), dim=st.integers(2, 6),
       scale=st.floats(1e-2, 1e2), seed=st.integers(0, 2**32 - 1))
def test_layer_norm_matches_finite_differences(lead, dim, scale, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(scale * rng.normal(size=(*lead, dim)), requires_grad=True)
    gain = Tensor(rng.normal(size=dim), requires_grad=True)
    bias = Tensor(rng.normal(size=dim), requires_grad=True)
    weights = rng.normal(size=(*lead, dim))
    # Layer norm is invariant to the scale of x, so the FD step follows it;
    # a fixed step would add truncation error that grows as scale shrinks.
    check_grads(lambda: total(layer_norm(x, gain, bias, 1e-12), weights),
                [x, gain, bias], h=1e-5 * scale)


@st.composite
def attention_case(draw):
    """Shapes of one attention sublayer and a key mask whose rows keep a
    random-length prefix (at least one real position)."""
    batch, seq = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    heads, head_dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lengths = draw(st.lists(st.integers(1, seq), min_size=batch, max_size=batch))
    mask = np.arange(seq)[None, :] < np.array(lengths)[:, None]
    return batch, seq, heads, heads * head_dim, mask[:, None, None, :]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=attention_case(), constant_x=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_attention_scores_match_finite_differences(case, constant_x, seed):
    batch, seq, heads, d, _ = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(batch, seq, d)), requires_grad=not constant_x)
    params = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((d, d), (d,), (d, d), (d,))]
    weights = rng.normal(size=(batch, heads, seq, seq))

    check_grads(lambda: total(attention_scores(x, *params, heads), weights),
                params + ([] if constant_x else [x]))
    assert (x.grad is None) == constant_x


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=attention_case(), constant_probs=st.booleans(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_attention_context_matches_finite_differences(case, constant_probs, data, seed):
    batch, seq, heads, d, key_mask = case
    query_rows = data.draw(st.integers(1, seq), label="query_rows")
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(batch, heads, query_rows, seq)),
                    requires_grad=not constant_probs)
    v = Tensor(rng.normal(size=(batch, seq, d)), requires_grad=True)
    weights = rng.normal(size=(batch, query_rows, d))

    def build():
        probs = softmax_rows(logits, mask=key_mask)
        if constant_probs:
            probs = Tensor(probs.data)
        return total(attention_context(probs, v, heads), weights)

    check_grads(build, [v] + ([] if constant_probs else [logits]))
    assert (logits.grad is None) == constant_probs


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=2), d=st.integers(1, 4),
       f=st.integers(1, 5), constant_x=st.booleans(), scale=st.floats(1e-2, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_feed_forward_matches_finite_differences(lead, d, f, constant_x, scale, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(scale * rng.normal(size=(*lead, d)), requires_grad=not constant_x)
    params = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((d, f), (f,), (f, d), (d,))]
    weights = rng.normal(size=(*lead, d))
    check_grads(lambda: total(feed_forward(x, *params), weights),
                params + ([] if constant_x else [x]))
    assert (x.grad is None) == constant_x


@st.composite
def classify_case(draw):
    """A random encoder with large weights, a head, and a padded batch."""
    heads = draw(st.integers(1, 2))
    config = ModelConfig(vocab_size=9, hidden_dim=heads * draw(st.integers(1, 3)),
                         num_layers=draw(st.integers(0, 3)), num_heads=heads,
                         ffn_dim=draw(st.integers(1, 6)), max_seq_len=6,
                         dropout_rate=0.3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = init_random(config, seed=int(rng.integers(2**31)))
    head = ClassifierHead(config.hidden_dim, num_classes=3, seed=int(rng.integers(2**31)))
    # Weights of order one, so attention is far from uniform.
    for _, t in model.parameters() + head.parameters():
        t.data = rng.normal(0.0, 0.7, size=t.shape)
    batch, seq = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(1, seq), min_size=batch, max_size=batch))
    ids = rng.integers(0, config.vocab_size, size=(batch, seq))
    mask = np.arange(seq)[None, :] < np.array(lengths)[:, None]
    return model, head, ids, mask, rng.integers(0, 3, size=batch)


def reference_logits(model, head, ids, mask, training_mode, dropout_seed):
    """Classifier logits pooled from the full forward pass."""
    trace = model.forward(ids, mask, training_mode=training_mode, dropout_seed=dropout_seed)
    pooled = linear(trace.hidden[-1][:, 0], head.pooler_w, head.pooler_b).tanh()
    return linear(pooled, head.out_w, head.out_b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=classify_case(), training_mode=st.booleans(), grad=st.booleans(),
       dropout_seed=st.integers(0, 2**32 - 1))
def test_classify_equals_the_full_forward_pass(case, training_mode, grad, dropout_seed):
    model, head, ids, mask, labels = case
    params = [t for _, t in model.parameters() + head.parameters()]
    results = []
    for score in (reference_logits, classify):
        for t in params:
            t.grad = None
        if grad:
            logits = score(model, head, ids, mask, training_mode, dropout_seed)
            backward(cross_entropy(logits, labels))
        else:
            with no_grad():
                logits = score(model, head, ids, mask, training_mode, dropout_seed)
            assert logits._ctx is None
        results.append((logits.data, [t.grad for t in params]))
    (ref, ref_grads), (got, got_grads) = results
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    for ref_g, got_g in zip(ref_grads, got_grads):
        assert (ref_g is None) == (got_g is None)
    if grad:
        scale = max(np.abs(g).max() for g in ref_grads if g is not None)
        for ref_g, got_g in zip(ref_grads, got_grads):
            if ref_g is not None:
                assert np.abs(got_g - ref_g).max() <= 1e-12 * scale


@pytest.fixture(scope="module")
def scorer():
    model = small_model(seed=12)
    return model, ClassifierHead(model.config.hidden_dim, num_classes=3, seed=13)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(size=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
@example(size=PREDICT_SLICE, seed=0)  # on and just past the slice boundaries
@example(size=PREDICT_SLICE + 1, seed=1)
@example(size=2 * PREDICT_SLICE, seed=2)
@example(size=2 * PREDICT_SLICE + 1, seed=3)
def test_predict_in_slices_equals_one_pass_argmax(scorer, size, seed):
    model, head = scorer
    rng = np.random.default_rng(seed)
    seq = model.config.max_seq_len
    lengths = rng.integers(1, seq + 1, size=size)
    batch = Batch(rng.integers(0, model.config.vocab_size, size=(size, seq)),
                  np.arange(seq)[None, :] < lengths[:, None])
    with no_grad():
        logits = classify(model, head, batch.token_ids, batch.attention_mask)
    assert np.array_equal(predict(model, head, batch), np.argmax(logits.data, axis=1))


# ---------------------------------------------------------------------------
# trailing padding columns
# ---------------------------------------------------------------------------

@contextmanager
def every_column():
    """Passes that compute every column of their input, padding included."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "_computed_width", lambda mask: mask.shape[1])
        yield


@st.composite
def trailing_padding_case(draw):
    """A teacher with large weights, its top-cut student, a head, and a
    padded batch with 1-3 trailing all-padding columns of random ids."""
    heads = draw(st.integers(1, 2))
    config = ModelConfig(vocab_size=9, hidden_dim=heads * draw(st.integers(1, 3)),
                         num_layers=draw(st.integers(2, 3)), num_heads=heads,
                         ffn_dim=draw(st.integers(1, 6)), max_seq_len=8,
                         dropout_rate=0.3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    teacher = init_random(config, seed=0)
    head = ClassifierHead(config.hidden_dim, num_classes=3, seed=0)
    for _, t in teacher.parameters() + head.parameters():
        t.data = rng.normal(0.0, 0.7, size=t.shape)
    batch, seq, pad = (draw(st.integers(1, 3)), draw(st.integers(1, 5)),
                       draw(st.integers(1, 3)))
    lengths = draw(st.lists(st.integers(1, seq), min_size=batch, max_size=batch))
    ids = rng.integers(0, config.vocab_size, size=(batch, seq + pad))
    mask = np.arange(seq + pad)[None, :] < np.array(lengths)[:, None]
    return teacher, top_layer_init(teacher), head, ids, mask, max(lengths)


def assert_close(got, ref, scale=None):
    """`got` equals `ref` to 1e-12 of `scale` (default: the largest |ref|)."""
    assert got.shape == ref.shape
    if scale is None:
        scale = np.abs(ref).max(initial=0.0)
    assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * scale


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), dropout_seed=st.integers(0, 2**32 - 1))
def test_trailing_padding_columns_change_no_value(data, dropout_seed):
    """Cutting the all-padding columns leaves every kept position of the
    traces, the distillation loss, its gradients and the logits as a pass
    over every column computes them, with dropout on."""
    teacher, student, head, ids, mask, width = data.draw(trailing_padding_case())
    params = [t for _, t in student.trainable_parameters()]

    def run():
        for t in params:
            t.grad = None
        with no_grad():
            t_trace = teacher.forward(ids, mask, training_mode=True, dropout_seed=dropout_seed)
            logits = classify(teacher, head, ids, mask, training_mode=True,
                              dropout_seed=dropout_seed)
        s_trace = student.forward(ids, mask, training_mode=True, dropout_seed=dropout_seed)
        loss = total_distill_loss(t_trace, s_trace)
        backward(loss)
        return t_trace, s_trace, loss.item(), [t.grad for t in params], logits.data

    cut = run()
    with every_column():
        full = run()
    for trace, full_trace in zip(cut[:2], full[:2]):
        assert np.array_equal(trace.attention_mask, mask[:, :width])
        for h, full_h in zip(trace.hidden, full_trace.hidden):
            assert_close(h.data, full_h.data[:, :width])
        for a, full_a in zip(trace.attentions, full_trace.attentions):
            assert_close(a.data, full_a.data[:, :, :width, :width])
    assert abs(cut[2] - full[2]) <= 1e-12 * abs(full[2])
    # Gradients that cancel to rounding noise are compared on the scale of the largest.
    scale = max(np.abs(g).max() for g in full[3])
    for g, full_g in zip(cut[3], full[3]):
        assert_close(g, full_g, scale)
    assert_close(cut[4], full[4])


@pytest.fixture(scope="module")
def saved_weights(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(directory, tiny_model(), head=ClassifierHead(8, num_classes=3, seed=5))
    return directory, (directory / WEIGHTS_NAME).read_bytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), bit=st.integers(0, 7))
def test_any_flipped_weights_bit_fails_the_digest(saved_weights, data, bit):
    directory, raw = saved_weights
    offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
    flipped = bytearray(raw)
    flipped[offset] ^= 1 << bit
    (directory / WEIGHTS_NAME).write_bytes(bytes(flipped))
    try:
        with pytest.raises(NumericError, match="digest mismatch for tensor"):
            load_checkpoint(directory)
    finally:
        (directory / WEIGHTS_NAME).write_bytes(raw)
