"""BERT-style encoder whose forward pass exposes every hidden output and
per-head attention matrix.

Layer k transforms hidden output k into hidden output k+1, so a model with
n layers yields n+1 hidden outputs (the first being the embedding output)
and n attention records. Architecture follows the BERT-base conventions:
GELU feed-forward, post-layer-norm residual blocks, learned absolute
positions, first-token pooling for classification.

Each sublayer is one fused tape node with a hand-written backward pass:
`AttentionScores` (the Q and K maps and the scaled per-head scores),
`AttentionContext` (the per-head weighted values, merged), `FeedForward`
(both feed-forward maps around the GELU), `LayerNorm`, and `Linear` for
V, the output projection, the pooler and the classifier output. The
softmax between scores and context is its own node, since the attention
record is the scaled scores before it, as in TinyBERT and LightMBERT.

The embedding tables are frozen, as in LightMBERT: they take no gradient
and the embedding lookup records no tape node.

Every pass computes only the columns its batch uses: trailing positions
that every row masks are cut from the input before the embedding, so a
batch of short lines padded to `max_seq_len` costs what its longest line
does. Those positions are keys no query attends to and rows no loss
reads, so the cut changes values only through shorter sums over keys.

A `classify` pass reads only the first-token ([CLS]) position of the top
hidden output, so the top layer runs for query row 0 alone: its query
map, scores, softmax, attention output and everything after it are
computed at [CLS] only, while the K and V maps still cover every
computed column. `forward`, and with it distillation, computes all of
them in every layer. Dropout masks are drawn at the input's full shape
either way, so a kept position gets the mask value of the full pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .tensor import (
    Tensor,
    attention_context,
    attention_scores,
    feed_forward,
    layer_norm,
    linear,
    softmax_rows,
)

INIT_STD = 0.02
LAYER_NORM_EPS = 1e-12

# Query positions a layer computes: every one, or only the first-token
# ([CLS]) position that `classify` reads from the top layer.
_ALL_ROWS = slice(None)
_CLS_ROW = slice(0, 1)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden_dim: int
    num_layers: int
    num_heads: int
    ffn_dim: int
    max_seq_len: int
    dropout_rate: float = 0.1

    def __post_init__(self):
        for f in fields(self)[:6]:  # the extents; a bool or a float is not an int
            value = getattr(self, f.name)
            if type(value) is not int:
                raise ValidationError(f"model {f.name} must be an integer, got {value!r}")
        if self.vocab_size <= 0 or self.hidden_dim <= 0 or self.num_heads <= 0 \
                or self.ffn_dim <= 0 or self.max_seq_len <= 0:
            raise ValidationError("all model extents must be positive")
        if self.num_layers < 0:
            raise ValidationError("num_layers must be >= 0")
        if self.hidden_dim % self.num_heads != 0:
            raise ValidationError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError("dropout_rate must lie in [0, 1)")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    def forward_matmul_flops(self, batch: int, seq: int) -> int:
        """Matmul FLOPs (2 per multiply-add) of a full forward pass on a
        (batch, seq) input: the Q, K, V and output maps, the scores, the
        context and both feed-forward maps of every layer."""
        d, f = self.hidden_dim, self.ffn_dim
        return self.num_layers * (8 * batch * seq * d * d + 4 * batch * seq * seq * d
                                  + 4 * batch * seq * d * f)

    def with_layers(self, num_layers: int) -> "ModelConfig":
        return ModelConfig(**{**self.__dict__, "num_layers": num_layers})

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


class EncoderLayer:
    """Weights of one encoder layer.

    Attention projections are stored fused over heads (d x d); the forward
    pass splits them into per-head blocks.
    """

    PARAM_NAMES = (
        "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
        "w_ffn_in", "b_ffn_in", "w_ffn_out", "b_ffn_out",
        "ln_attn_gain", "ln_attn_bias", "ln_ffn_gain", "ln_ffn_bias",
    )

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator] = None):
        d, f = config.hidden_dim, config.ffn_dim

        def weight(*shape):
            if rng is None:
                return Tensor(np.zeros(shape), requires_grad=True)
            return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)

        def zeros(*shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        def ones(*shape):
            return Tensor(np.ones(shape), requires_grad=True)

        self.wq, self.bq = weight(d, d), zeros(d)
        self.wk, self.bk = weight(d, d), zeros(d)
        self.wv, self.bv = weight(d, d), zeros(d)
        self.wo, self.bo = weight(d, d), zeros(d)
        self.w_ffn_in, self.b_ffn_in = weight(d, f), zeros(f)
        self.w_ffn_out, self.b_ffn_out = weight(f, d), zeros(d)
        self.ln_attn_gain, self.ln_attn_bias = ones(d), zeros(d)
        self.ln_ffn_gain, self.ln_ffn_bias = ones(d), zeros(d)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in self.PARAM_NAMES]

    def copy(self, config: ModelConfig) -> "EncoderLayer":
        dup = EncoderLayer(config)
        for name, tensor in self.parameters():
            getattr(dup, name).data = tensor.data.copy()
        return dup


@dataclass
class ForwardTrace:
    """Everything a forward pass exposes: hidden outputs 1..n+1 of shape
    (batch, T, d), attention records 1..n of shape (batch, heads, T, T),
    and the attention mask they were computed under. T counts the computed
    columns: the input's, less the trailing ones that every row masks."""

    hidden: list[Tensor]
    attentions: list[Tensor]
    attention_mask: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.attentions)


class EncoderModel:
    """Embeddings plus a stack of encoder layers."""

    def __init__(self, config: ModelConfig, seed: Optional[int] = None):
        self.config = config
        rng = np.random.default_rng(seed) if seed is not None else None
        d = config.hidden_dim

        def emb(*shape):
            data = np.zeros(shape) if rng is None else rng.normal(0.0, INIT_STD, size=shape)
            return Tensor(data)

        self.token_embeddings = emb(config.vocab_size, d)
        self.position_embeddings = emb(config.max_seq_len, d)
        self.emb_ln_gain = Tensor(np.ones(d))
        self.emb_ln_bias = Tensor(np.zeros(d))
        self.layers = [EncoderLayer(config, rng) for _ in range(config.num_layers)]

    # -- parameter plumbing ------------------------------------------------

    EMBEDDING_PARAM_NAMES = ("token_embeddings", "position_embeddings",
                             "emb_ln_gain", "emb_ln_bias")

    def embedding_parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in self.EMBEDDING_PARAM_NAMES]

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = self.embedding_parameters()
        for i, layer in enumerate(self.layers):
            params.extend((f"layers.{i}.{name}", t) for name, t in layer.parameters())
        return params

    def trainable_parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, t) for name, t in self.parameters() if t.requires_grad]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # -- forward ------------------------------------------------------------

    def forward(self, token_ids, attention_mask, training_mode: bool = False,
                dropout_seed: int = 0) -> ForwardTrace:
        """Run the encoder, capturing all hidden outputs and attentions.

        With `training_mode` set, dropout is applied at the configured rate,
        reproducibly for a given `dropout_seed`; otherwise the pass is
        deterministic.
        """
        x, mask, drop = self._embed(token_ids, attention_mask, training_mode, dropout_seed)
        hidden = [x]
        attentions = []
        for layer in self.layers:
            x, attn = self._layer_forward(layer, x, mask, drop)
            hidden.append(x)
            attentions.append(attn)
        return ForwardTrace(hidden=hidden, attentions=attentions, attention_mask=mask)

    def _embed(self, token_ids, attention_mask, training_mode: bool, dropout_seed: int):
        """Check the inputs and compute the embedding output at the columns
        the batch uses; returns it with the boolean mask of those columns
        and the pass's dropout function."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        mask = np.asarray(attention_mask, dtype=bool)
        if token_ids.ndim != 2:
            raise ValidationError(f"token_ids must be (batch, T), got {token_ids.shape}")
        if mask.shape != token_ids.shape:
            raise ValidationError(
                f"attention_mask shape {mask.shape} != token_ids shape {token_ids.shape}")
        batch, seq_len = token_ids.shape
        if seq_len == 0:
            raise ValidationError("token_ids must have at least one position")
        if seq_len > self.config.max_seq_len:
            raise ValidationError(
                f"sequence length {seq_len} exceeds max {self.config.max_seq_len}")
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.config.vocab_size):
            raise ValidationError("token id outside [0, vocab_size)")

        width = _computed_width(mask)
        token_ids, mask = token_ids[:, :width], mask[:, :width]
        drop = _dropout(self.config.dropout_rate if training_mode else 0.0, dropout_seed,
                        (batch, seq_len, self.config.hidden_dim))

        x = Tensor(self.token_embeddings.data[token_ids]
                   + self.position_embeddings.data[:width])
        x = layer_norm(x, self.emb_ln_gain, self.emb_ln_bias, LAYER_NORM_EPS)
        return drop(x), mask, drop

    def _layer_forward(self, layer: EncoderLayer, x: Tensor, mask: np.ndarray,
                       drop: Callable[[Tensor], Tensor],
                       rows: slice = _ALL_ROWS) -> tuple[Tensor, Tensor]:
        """One layer on a (B, T, d) input, computed at the query positions
        `rows` only, so the output is (B, len(rows), d); keys and values
        still come from every position."""
        cfg = self.config
        scores = attention_scores(x, layer.wq, layer.bq, layer.wk, layer.bk, cfg.num_heads,
                                  rows=rows)
        probs = softmax_rows(scores, mask=mask[:, None, None, :])
        context = attention_context(probs, linear(x, layer.wv, layer.bv), cfg.num_heads)
        if rows != _ALL_ROWS:
            x = x[:, rows]  # the residual's rows
        attn_out = drop(linear(context, layer.wo, layer.bo))
        x = layer_norm(x + attn_out, layer.ln_attn_gain, layer.ln_attn_bias, LAYER_NORM_EPS)

        ffn = drop(feed_forward(x, layer.w_ffn_in, layer.b_ffn_in,
                                layer.w_ffn_out, layer.b_ffn_out))
        x = layer_norm(x + ffn, layer.ln_ffn_gain, layer.ln_ffn_bias, LAYER_NORM_EPS)
        return x, scores


def _computed_width(mask: np.ndarray) -> int:
    """Columns a pass computes for a (B, T) mask: up to the last one that
    any row keeps, and at least one, so an all-masked row still fails and
    an empty batch still runs."""
    used = np.flatnonzero(mask.any(axis=0))
    return min(mask.shape[1], int(used[-1]) + 1 if used.size else 1)


def _dropout(rate: float, seed: int, full_shape: tuple) -> Callable[[Tensor], Tensor]:
    """One pass's inverted dropout. Each call draws its mask at the input's
    `full_shape` (B, T, d) and keeps the leading positions of the tensor it
    is given, so a pass computing fewer positions (cut padding columns, or
    [CLS] alone) uses the mask values, and leaves the generator in the
    state, of the full pass."""
    if rate == 0.0:
        return lambda x: x
    rng = np.random.default_rng(seed)

    def drop(x: Tensor) -> Tensor:
        keep = (rng.random(full_shape) >= rate) / (1.0 - rate)
        # A copy of the kept positions only, so the graph does not hold the full mask.
        return x * Tensor(np.ascontiguousarray(keep[:, :x.shape[1]]))
    return drop


def init_random(config: ModelConfig, seed: int) -> EncoderModel:
    """Fresh model: weights ~ Normal(0, 0.02), layer-norm gains 1, biases 0.

    Deterministic for a fixed seed.
    """
    return EncoderModel(config, seed=seed)


class ClassifierHead:
    """First-token pooler plus a linear output layer."""

    def __init__(self, hidden_dim: int, num_classes: int, seed: Optional[int] = None):
        if num_classes < 2:
            raise ValidationError("need at least 2 output classes")
        self.hidden_dim = hidden_dim
        self.num_classes = num_classes
        rng = np.random.default_rng(seed) if seed is not None else None

        def weight(*shape):
            data = np.zeros(shape) if rng is None else rng.normal(0.0, INIT_STD, size=shape)
            return Tensor(data, requires_grad=True)

        self.pooler_w = weight(hidden_dim, hidden_dim)
        self.pooler_b = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self.out_w = weight(hidden_dim, num_classes)
        self.out_b = Tensor(np.zeros(num_classes), requires_grad=True)

    PARAM_NAMES = ("pooler_w", "pooler_b", "out_w", "out_b")

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in self.PARAM_NAMES]


def classify(model: EncoderModel, head: ClassifierHead, token_ids, attention_mask,
             training_mode: bool = False, dropout_seed: int = 0) -> Tensor:
    """Logits (batch, num_classes) from first-token pooling of the top hidden output.

    Only position 0 of the top hidden output is read, so the top layer
    computes its queries, scores, attention output and everything after
    them at that position only. The logits equal those pooled from
    `model.forward(...)` with the same arguments up to rounding, since the
    products run over fewer rows; dropout draws the same masks.
    """
    if head.hidden_dim != model.config.hidden_dim:
        raise ValidationError(
            f"head dim {head.hidden_dim} != model hidden dim {model.config.hidden_dim}")
    x, mask, drop = model._embed(token_ids, attention_mask, training_mode, dropout_seed)
    for i, layer in enumerate(model.layers):
        rows = _CLS_ROW if i == model.num_layers - 1 else _ALL_ROWS
        x, _ = model._layer_forward(layer, x, mask, drop, rows)
    pooled = linear(x[:, 0, :], head.pooler_w, head.pooler_b).tanh()
    return linear(pooled, head.out_w, head.out_b)
