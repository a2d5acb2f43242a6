"""Optimization: Adam with bias correction, trapezoidal learning-rate
schedules, gradient accumulation over micro-batches, supervised
fine-tuning of a classifier head, and zero-shot evaluation.

Pretraining uses linear warmup to the peak rate followed by linear decay
to zero; a stage that warms up over all of its steps has warmup equal
to total and no decay. Fine-tuning uses a constant rate. The batch loss
is the example-weighted mean of micro-batch losses, so gradients match
single-pass full-batch training whenever each example contributes
equally to its micro-batch mean.

`predict` scores an eval set in slices of 128 examples on two threads, so
two slices are in flight at a time and a second core does half the work.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from .corpus import Batch
from .encoder import ClassifierHead, EncoderModel, classify
from .errors import NonFiniteLossError, ValidationError
from .tensor import Tensor, backward, cross_entropy, no_grad

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam hyperparameters plus batch geometry."""

    peak_lr: float
    batch_size: int
    epsilon: float
    micro_batch_size: int = 1
    beta1: float = 0.9
    beta2: float = 0.999

    def __post_init__(self):
        if self.peak_lr < 0:
            raise ValidationError("peak_lr must be >= 0")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValidationError("betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValidationError("epsilon must be > 0")
        if self.batch_size < 1 or self.micro_batch_size < 1:
            raise ValidationError("batch sizes must be >= 1")
        if self.batch_size % self.micro_batch_size != 0:
            raise ValidationError(
                f"batch_size {self.batch_size} not divisible by "
                f"micro_batch_size {self.micro_batch_size}")


@dataclass(frozen=True)
class ScheduleConfig:
    """Trapezoidal schedule: linear 0 -> peak over [0, warmup], linear
    peak -> 0 over [warmup, total]. With warmup_steps == total_steps the
    ramp covers every step and there is no decay."""

    total_steps: int
    warmup_steps: int

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValidationError("total_steps must be >= 1")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValidationError(
                f"warmup_steps {self.warmup_steps} outside [0, {self.total_steps}]")


def lr_at(schedule: ScheduleConfig, peak_lr: float, step: int) -> float:
    """Learning rate at an integer step of the schedule."""
    if not 0 <= step <= schedule.total_steps:
        raise ValidationError(
            f"step {step} outside [0, {schedule.total_steps}]")
    warmup, total = schedule.warmup_steps, schedule.total_steps
    if warmup > 0 and step <= warmup:
        return peak_lr * step / warmup
    return peak_lr * (total - step) / (total - warmup)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class Adam:
    """Bias-corrected Adam over named parameters. It keeps `step_count` and
    the moments `m` and `v`, keyed by parameter name. `step(lr)` updates each
    parameter in place from its `grad`, taken as zero where no gradient
    flowed; with both betas zero that is p -= lr * g / (|g| + eps)."""

    def __init__(self, params: Sequence[Tuple[str, Tensor]], config: OptimizerConfig):
        self.params = list(params)
        self.config = config
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        if len(self.m) != len(self.params):
            raise ValidationError("duplicate parameter names")

    def step(self, lr: float) -> None:
        config = self.config
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - config.beta1 ** t
        bc2 = 1.0 - config.beta2 ** t
        for name, p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValidationError(
                    f"gradient shape {g.shape} != parameter {name!r} shape {p.data.shape}")
            m = self.m[name]
            v = self.v[name]
            m *= config.beta1
            m += (1.0 - config.beta1) * g
            v *= config.beta2
            v += (1.0 - config.beta2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + config.epsilon)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


# ---------------------------------------------------------------------------
# gradient accumulation
# ---------------------------------------------------------------------------


def accumulate_and_step(loss_fn: Callable[[Batch], Tensor],
                        micro_batches: Iterable[Batch],
                        optimizer: Adam, lr: float) -> float:
    """Accumulate gradients over micro-batches, then take one Adam step at
    learning rate `lr`.

    Each micro-batch loss is weighted by its share of the examples, so the
    returned loss is the example-weighted batch mean. At most one
    micro-batch graph is alive at a time: each loss is dropped after its
    backward pass, before the next `loss_fn` call and the Adam step.
    """
    micros = list(micro_batches)
    if not micros:
        raise ValidationError("no micro-batches to accumulate")
    total_examples = sum(len(m) for m in micros)
    optimizer.zero_grad()
    total = 0.0
    for micro in micros:
        weight = len(micro) / total_examples
        loss = loss_fn(micro)
        backward(loss * weight)
        total += loss.item() * weight
        del loss
    if not math.isfinite(total):
        raise NonFiniteLossError(f"accumulated loss is {total}")
    optimizer.step(lr)
    optimizer.zero_grad()
    return total


# ---------------------------------------------------------------------------
# fine-tuning and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FineTuneConfig:
    """Supervised fine-tuning at a constant learning rate."""

    optimizer: OptimizerConfig
    epochs: int
    num_classes: int
    seed: int = 0
    dropout: bool = True

    def __post_init__(self):
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.num_classes < 2:
            raise ValidationError("num_classes must be >= 2")


def _check_labels(batch: Batch, num_classes: int) -> np.ndarray:
    if batch.labels is None:
        raise ValidationError("batch has no labels")
    if len(batch.labels) and not (0 <= batch.labels.min() and batch.labels.max() < num_classes):
        raise ValidationError(
            f"labels outside [0, {num_classes}): "
            f"[{batch.labels.min()}, {batch.labels.max()}]")
    return batch.labels


def fine_tune(model: EncoderModel, data: Batch,
              config: FineTuneConfig) -> tuple[EncoderModel, ClassifierHead]:
    """Train a fresh classifier head (and the encoder's trainable weights)
    on labeled data; epoch order is a seeded shuffle, the final partial
    batch is kept. With zero epochs the head keeps its random init."""
    _check_labels(data, config.num_classes)
    if len(data) == 0:
        raise ValidationError("no training examples")
    rng = np.random.default_rng(config.seed)
    head = ClassifierHead(model.config.hidden_dim, config.num_classes,
                          seed=int(rng.integers(2**63)))
    params = model.trainable_parameters() + \
        [(f"head.{name}", p) for name, p in head.parameters()]
    optimizer = Adam(params, config.optimizer)
    batch_size = config.optimizer.batch_size
    for _ in range(config.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), batch_size):
            batch = data.take(order[start:start + batch_size])
            dropout_seed = int(rng.integers(2**63))

            def loss_fn(micro: Batch) -> Tensor:
                logits = classify(model, head, micro.token_ids, micro.attention_mask,
                                  training_mode=config.dropout, dropout_seed=dropout_seed)
                return cross_entropy(logits, micro.labels)

            micros = batch.split(config.optimizer.micro_batch_size)
            accumulate_and_step(loss_fn, micros, optimizer, config.optimizer.peak_lr)
    return model, head


# Examples scored per `classify` pass in `predict`: the passes' activations,
# not the eval set, bound its memory. Two passes are in flight at a time.
PREDICT_SLICE = 128


def predict(model: EncoderModel, head: ClassifierHead, batch: Batch) -> np.ndarray:
    """Argmax class per example, dropout off, no gradient tracking.

    The batch is scored in consecutive slices of at most `PREDICT_SLICE`
    examples, two at a time on two worker threads, so memory does not grow
    with its size. An empty batch is still passed through `classify` once,
    which checks that the head fits the model.
    """
    predicted = np.empty(len(batch), dtype=np.intp)

    def score(start: int) -> None:
        stop = start + PREDICT_SLICE
        with no_grad():  # grad mode is per thread
            logits = classify(model, head, batch.token_ids[start:stop],
                              batch.attention_mask[start:stop])
        np.argmax(logits.data, axis=1, out=predicted[start:stop])

    with ThreadPoolExecutor(max_workers=2) as workers:
        # Reading every result raises the first slice's error, if any.
        for _ in workers.map(score, range(0, max(len(batch), 1), PREDICT_SLICE)):
            pass
    return predicted


def accuracy(model: EncoderModel, head: ClassifierHead, batch: Batch) -> float:
    if len(batch) == 0:
        raise ValidationError("no examples to score")
    labels = _check_labels(batch, head.num_classes)
    return float(np.mean(predict(model, head, batch) == labels))


@dataclass(frozen=True)
class EvalResult:
    """Per-language accuracy plus their unweighted mean."""

    per_language: Dict[str, float]
    average: float


def zero_shot_eval(model: EncoderModel, head: ClassifierHead,
                   eval_sets: Mapping[str, Batch]) -> EvalResult:
    """Score the classifier on each language's eval set. The average
    weights every language equally, regardless of set size."""
    if not eval_sets:
        raise ValidationError("no eval sets given")
    per_language = {}
    for lang, batch in eval_sets.items():
        if len(batch) == 0:
            raise ValidationError(f"eval set for {lang!r} is empty")
        per_language[lang] = accuracy(model, head, batch)
    average = sum(per_language.values()) / len(per_language)
    return EvalResult(per_language=per_language, average=average)
