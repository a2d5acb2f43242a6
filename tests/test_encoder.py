"""Encoder forward pass: trace shapes, attention records, masking, dropout,
initialization, and gradient flow through full layers."""

import numpy as np
import pytest

from cascadekd.encoder import (
    ClassifierHead,
    EncoderModel,
    ModelConfig,
    classify,
    init_random,
)
from cascadekd.errors import ValidationError
from cascadekd.tensor import (
    AttentionScores,
    Tensor,
    backward,
    cross_entropy,
    mse,
    no_grad,
    softmax_rows,
)

from oracles import fd_denominator_floor, finite_difference_grad, max_relative_error, total


def toy_config(**overrides):
    base = dict(vocab_size=16, hidden_dim=8, num_layers=2, num_heads=2,
                ffn_dim=16, max_seq_len=4, dropout_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def toy_batch(rng, batch=2, seq=4, vocab=16, pad_tail=True):
    ids = rng.integers(0, vocab, size=(batch, seq))
    mask = np.ones((batch, seq), dtype=bool)
    if pad_tail:
        mask[0, -1] = False
    return ids, mask


def test_config_validation():
    with pytest.raises(ValidationError, match="not divisible by num_heads"):
        toy_config(hidden_dim=9)  # not divisible by heads
    with pytest.raises(ValidationError, match="dropout_rate must lie in"):
        toy_config(dropout_rate=1.0)
    with pytest.raises(ValidationError, match="num_layers must be an integer, got True"):
        toy_config(num_layers=True)
    with pytest.raises(ValidationError, match="extents must be positive"):
        toy_config(vocab_size=0)


def test_trace_shapes_and_indexing():
    rng = np.random.default_rng(0)
    model = init_random(toy_config(), seed=1)
    ids, mask = toy_batch(rng)
    trace = model.forward(ids, mask)
    assert len(trace.hidden) == 3
    assert len(trace.attentions) == 2
    assert trace.depth == 2
    for h in trace.hidden:
        assert h.shape == (2, 4, 8)
    for a in trace.attentions:
        assert a.shape == (2, 2, 4, 4)


def test_forward_deterministic():
    rng = np.random.default_rng(1)
    ids, mask = toy_batch(rng)
    a = init_random(toy_config(), seed=7)
    b = init_random(toy_config(), seed=7)
    ta = a.forward(ids, mask)
    tb = b.forward(ids, mask)
    for x, y in zip(ta.hidden, tb.hidden):
        assert np.array_equal(x.data, y.data)
    for x, y in zip(ta.attentions, tb.attentions):
        assert np.array_equal(x.data, y.data)


def test_dropout_seeding():
    rng = np.random.default_rng(2)
    ids, mask = toy_batch(rng)
    model = init_random(toy_config(dropout_rate=0.5), seed=3)
    t1 = model.forward(ids, mask, training_mode=True, dropout_seed=11)
    t2 = model.forward(ids, mask, training_mode=True, dropout_seed=11)
    t3 = model.forward(ids, mask, training_mode=True, dropout_seed=12)
    assert np.array_equal(t1.hidden[-1].data, t2.hidden[-1].data)
    assert not np.array_equal(t1.hidden[-1].data, t3.hidden[-1].data)
    # eval mode ignores dropout entirely
    e1 = model.forward(ids, mask, dropout_seed=11)
    e2 = model.forward(ids, mask, dropout_seed=99)
    assert np.array_equal(e1.hidden[-1].data, e2.hidden[-1].data)


def test_capture_modes():
    # A layer's attention record is its scaled scores, before the softmax.
    rng = np.random.default_rng(3)
    ids, mask = toy_batch(rng)
    model = init_random(toy_config(), seed=5)
    trace = model.forward(ids, mask)
    layer, x = model.layers[0], trace.hidden[0].data

    def split_heads(w, b):  # (B, T, d) -> (B, H, T, d / H)
        return (x @ w.data + b.data).reshape(2, 4, 2, 4).transpose(0, 2, 1, 3)

    q, k = split_heads(layer.wq, layer.bq), split_heads(layer.wk, layer.bk)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(4)
    assert np.allclose(trace.attentions[0].data, scores, rtol=1e-12, atol=0.0)
    assert not np.allclose(scores.sum(axis=-1), 1.0)


def test_zero_weights_give_uniform_attention():
    model = EncoderModel(toy_config(), seed=None)  # all weights zero
    # The second row uses the last position, so it is computed for both.
    ids = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
    mask = np.array([[True, True, True, False], [True, True, True, True]])
    trace = model.forward(ids, mask)
    assert np.all(trace.attentions[0].data == 0.0)
    probs = softmax_rows(trace.attentions[0], mask=mask[:, None, None, :]).data
    assert np.allclose(probs[0, :, :, :3], 1.0 / 3.0)
    assert np.all(probs[0, :, :, 3] == 0.0)
    assert np.allclose(probs[1], 1.0 / 4.0)


def test_padding_content_cannot_leak():
    rng = np.random.default_rng(4)
    model = init_random(toy_config(), seed=9)
    ids = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
    mask = np.array([[True, True, False, False], [True, True, True, True]])
    altered = ids.copy()
    altered[0, 2:] = 15  # rewrite padded positions only
    t1 = model.forward(ids, mask)
    t2 = model.forward(altered, mask)
    real = mask[0]
    for h1, h2 in zip(t1.hidden, t2.hidden):
        assert np.array_equal(h1.data[0][real], h2.data[0][real])
        assert np.array_equal(h1.data[1], h2.data[1])
    for a1, a2 in zip(t1.attentions, t2.attentions):
        block1 = a1.data[0][:, real][:, :, real]
        block2 = a2.data[0][:, real][:, :, real]
        assert np.array_equal(block1, block2)


def test_an_all_masked_row_still_fails_after_the_padding_cut():
    # Cutting the trailing all-padding columns keeps at least one column.
    model = init_random(toy_config(), seed=0)
    head = ClassifierHead(8, num_classes=3, seed=1)
    ids = np.ones((2, 4), dtype=np.int64)
    for mask in (np.array([[True, True, False, False], [False] * 4]), np.zeros((2, 4), bool)):
        with pytest.raises(ValidationError, match="every entry masked"):
            model.forward(ids, mask)
        with pytest.raises(ValidationError, match="every entry masked"):
            classify(model, head, ids, mask)


def test_forward_validation():
    model = init_random(toy_config(), seed=0)
    good_mask = np.ones((1, 4), dtype=bool)
    with pytest.raises(ValidationError, match="token id outside"):
        model.forward(np.array([[0, 1, 2, 16]]), good_mask)
    with pytest.raises(ValidationError, match="token id outside"):
        model.forward(np.array([[-1, 1, 2, 3]]), good_mask)
    with pytest.raises(ValidationError, match="sequence length 5 exceeds max 4"):
        model.forward(np.zeros((1, 5), dtype=int), np.ones((1, 5), dtype=bool))
    with pytest.raises(ValidationError, match="attention_mask shape"):
        model.forward(np.zeros((1, 4), dtype=int), np.ones((2, 4), dtype=bool))


def test_a_zero_length_input_is_a_dimension_error():
    model = init_random(toy_config(), seed=0)
    head = ClassifierHead(8, num_classes=3, seed=1)
    ids, mask = np.zeros((2, 0), dtype=int), np.zeros((2, 0), dtype=bool)
    with pytest.raises(ValidationError, match="at least one position"):
        model.forward(ids, mask)
    with pytest.raises(ValidationError, match="at least one position"):
        classify(model, head, ids, mask)
    # A batch of zero rows still runs: `predict` passes an empty eval set through.
    ids, mask = np.zeros((0, 4), dtype=int), np.zeros((0, 4), dtype=bool)
    assert model.forward(ids, mask).hidden[-1].shape == (0, 1, 8)
    assert classify(model, head, ids, mask).shape == (0, 3)


def test_parameter_listing_and_freezing():
    frozen = init_random(toy_config(), seed=1)
    names = [n for n, _ in frozen.parameters()]
    assert len(names) == len(set(names))
    assert len(names) == 4 + 16 * 2
    trainable = dict(frozen.trainable_parameters())
    assert "token_embeddings" not in trainable
    assert not frozen.token_embeddings.requires_grad


def test_init_statistics():
    model = init_random(toy_config(vocab_size=512, hidden_dim=64, num_heads=4,
                                   ffn_dim=128), seed=42)
    emb = model.token_embeddings.data
    assert abs(emb.std() - 0.02) < 0.002
    assert abs(emb.mean()) < 0.002
    layer = model.layers[0]
    assert np.all(layer.ln_attn_gain.data == 1.0)
    assert np.all(layer.bq.data == 0.0)


def test_frozen_embeddings_get_no_grad():
    rng = np.random.default_rng(5)
    model = init_random(toy_config(), seed=2)
    ids, mask = toy_batch(rng)
    trace = model.forward(ids, mask)
    backward(total(trace.hidden[-1], 1e-3))
    assert model.token_embeddings.grad is None
    assert model.layers[0].wq.grad is not None


def test_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    model = init_random(toy_config(), seed=4)
    ids, mask = toy_batch(rng)
    target = rng.normal(size=(2, 4, 8)) * 0.1

    def loss_value():
        trace = model.forward(ids, mask)
        return mse(trace.hidden[-1], Tensor(target))

    loss = loss_value()
    backward(loss)
    floor = fd_denominator_floor(loss.item())
    checked = [("layers.0.wq", model.layers[0].wq),
               ("layers.0.w_ffn_in", model.layers[0].w_ffn_in),
               ("layers.1.ln_ffn_gain", model.layers[1].ln_ffn_gain),
               ("layers.1.bv", model.layers[1].bv)]
    for name, param in checked:
        def f():
            with no_grad():
                return loss_value().item()

        fd = finite_difference_grad(f, param.data)
        assert max_relative_error(param.grad, fd, floor) < 1e-6, name


def test_classify_gradients_match_finite_differences():
    # Through the top layer that `classify` computes at the first position only.
    rng = np.random.default_rng(9)
    model = init_random(toy_config(), seed=5)
    head = ClassifierHead(8, num_classes=3, seed=2)
    for _, t in model.parameters() + head.parameters():
        t.data = t.data + rng.normal(0.0, 0.3, size=t.shape)
    ids, mask = toy_batch(rng, batch=3)
    labels = np.array([0, 2, 1])

    def loss_value():
        return cross_entropy(classify(model, head, ids, mask), labels)

    loss = loss_value()
    backward(loss)
    floor = fd_denominator_floor(loss.item())
    top = model.layers[-1]
    checked = [("layers.1.wq", top.wq), ("layers.1.wv", top.wv),
               ("layers.1.w_ffn_in", top.w_ffn_in), ("layers.1.ln_ffn_gain", top.ln_ffn_gain),
               *((f"head.{name}", t) for name, t in head.parameters())]
    for name, param in checked:
        def f():
            with no_grad():
                return loss_value().item()

        fd = finite_difference_grad(f, param.data)
        assert max_relative_error(param.grad, fd, floor) < 1e-6, name


def test_classifier_head_and_classify():
    model = init_random(toy_config(), seed=8)
    head = ClassifierHead(8, num_classes=3, seed=1)
    # The second row uses the last position, so every column is computed.
    ids = np.array([[1, 2, 3, 0], [4, 5, 6, 7]])
    mask = np.array([[True, True, True, False], [True, True, True, True]])
    logits = classify(model, head, ids, mask)
    assert logits.shape == (2, 3)
    # The graph holds full (B, H, T, T) scores below the top layer only,
    # which forms its scores at [CLS] alone.
    score_shapes, seen, stack = [], set(), [logits]
    while stack:
        t = stack.pop()
        if id(t) in seen or t._ctx is None:
            continue
        seen.add(id(t))
        if isinstance(t._ctx, AttentionScores):
            score_shapes.append(t.shape)
        stack.extend(t._ctx.parents)
    assert sorted(score_shapes) == [(2, 2, 1, 4), (2, 2, 4, 4)]
    with pytest.raises(ValidationError, match="at least 2 output classes"):
        ClassifierHead(8, num_classes=1)
    wrong = ClassifierHead(16, num_classes=3, seed=1)
    with pytest.raises(ValidationError, match="head dim 16 != model hidden dim 8"):
        classify(model, wrong, ids, mask)


def test_with_layers_and_layer_copy():
    config = toy_config()
    model = init_random(config, seed=3)
    shallower = config.with_layers(1)
    assert shallower.num_layers == 1
    assert shallower.hidden_dim == config.hidden_dim
    clone = model.layers[0].copy(config)
    assert np.array_equal(clone.wq.data, model.layers[0].wq.data)
    clone.wq.data[0, 0] += 1.0
    assert clone.wq.data[0, 0] != model.layers[0].wq.data[0, 0]
