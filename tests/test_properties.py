"""Property tests: invariants stated in module docstrings and FD-gradient
agreement of tape ops, checked over random shapes and masks."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cascadekd.checkpoint import WEIGHTS_NAME, load_checkpoint, save_checkpoint
from cascadekd.corpus import Batch
from cascadekd.distill import total_distill_loss
from cascadekd.encoder import (
    CAPTURE_MODES,
    PRE_SOFTMAX_SCALED,
    ClassifierHead,
    ForwardTrace,
    ModelConfig,
    classify,
    init_random,
)
from cascadekd.errors import DigestMismatchError
from cascadekd.tensor import (
    Tensor,
    attention_context,
    attention_scores,
    backward,
    cross_entropy,
    feed_forward,
    layer_norm,
    linear,
    no_grad,
    softmax_rows,
)
from cascadekd.training import PREDICT_SLICE, predict

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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lead=st.lists(st.integers(1, 3), max_size=2), d_in=st.integers(1, 4),
       d_out=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_linear_matches_finite_differences(lead, d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(*lead, d_in)), requires_grad=True)
    w = Tensor(rng.normal(size=(d_in, d_out)), requires_grad=True)
    b = Tensor(rng.normal(size=d_out), requires_grad=True)
    target = Tensor(rng.normal(size=(*lead, d_out)))
    check_grads(lambda: ((linear(x, w, b) - target) ** 2).sum(), [x, w, b])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lead=st.lists(st.integers(1, 3), max_size=2), dim=st.integers(2, 6),
       scale=st.floats(1e-2, 1e2), seed=st.integers(0, 2**32 - 1))
def test_layer_norm_matches_finite_differences(lead, dim, scale, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(scale * rng.normal(size=(*lead, dim)), requires_grad=True)
    gain = Tensor(rng.normal(size=dim), requires_grad=True)
    bias = Tensor(rng.normal(size=dim), requires_grad=True)
    target = Tensor(rng.normal(size=(*lead, dim)))
    # Layer norm is invariant to the scale of x, so the FD step follows it;
    # a fixed step would add truncation error that grows as scale shrinks.
    check_grads(lambda: ((layer_norm(x, gain, bias, 1e-12) - target) ** 2).sum(),
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
@given(case=attention_case(), capture=st.sampled_from(CAPTURE_MODES),
       constant_x=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_attention_scores_match_finite_differences(case, capture, constant_x, seed):
    batch, seq, heads, d, key_mask = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(batch, seq, d)), requires_grad=not constant_x)
    params = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((d, d), (d,), (d, d), (d,))]
    weights = Tensor(rng.normal(size=(batch, heads, seq, seq)))

    def build():
        scores = attention_scores(x, *params, heads)
        if capture != PRE_SOFTMAX_SCALED:
            scores = softmax_rows(scores, mask=key_mask)
        return (scores * weights).sum()

    check_grads(build, params + ([] if constant_x else [x]))
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
    weights = Tensor(rng.normal(size=(batch, query_rows, d)))

    def build():
        probs = softmax_rows(logits, mask=key_mask)
        if constant_probs:
            probs = probs.detach()
        return (attention_context(probs, v, heads) * weights).sum()

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
    weights = Tensor(rng.normal(size=(*lead, d)))
    check_grads(lambda: (feed_forward(x, *params) * weights).sum(),
                params + ([] if constant_x else [x]))
    assert (x.grad is None) == constant_x


@st.composite
def classify_case(draw):
    """A random encoder with large weights, a head, and a padded batch."""
    heads = draw(st.integers(1, 2))
    config = ModelConfig(vocab_size=9, hidden_dim=heads * draw(st.integers(1, 3)),
                         num_layers=draw(st.integers(0, 3)), num_heads=heads,
                         ffn_dim=draw(st.integers(1, 6)), max_seq_len=6,
                         dropout_rate=0.3,
                         attention_capture=draw(st.sampled_from(CAPTURE_MODES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = init_random(config, seed=int(rng.integers(2**31)),
                        embeddings_frozen=draw(st.booleans()))
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
        with pytest.raises(DigestMismatchError):
            load_checkpoint(directory)
    finally:
        (directory / WEIGHTS_NAME).write_bytes(raw)
