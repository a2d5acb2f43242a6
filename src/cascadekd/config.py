"""Run configuration: an INI file with [model], [cascade], [pretrain],
[finetune], [corpus], and [seeds] sections.

Library defaults carry the published operating point of the method
(66,666 steps per stage with a 6,666-step warmup, batch 256, peak rate
1e-7 with Adam epsilon 1e-9; fine-tuning for 3 epochs at 2e-5 with
epsilon 2e-7, batch 32, sequences of 128). The sample configuration
written by `default_config` instead uses desk-scale values that run in
minutes on a laptop; the published constants stay available by name.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

from .corpus import CorpusSpec, LanguageSpec
from .distill import CascadePlan, build_cascade_plan
from .encoder import PRE_SOFTMAX_SCALED, ModelConfig
from .errors import InvalidConfigError
from .training import FineTuneConfig, OptimizerConfig

# Published training constants (Adam betas are the usual 0.9 / 0.999 and
# weight decay is zero at both phases).
PRETRAIN_STEPS_PER_STAGE = 66_666
PRETRAIN_WARMUP_STEPS = 6_666
PRETRAIN_BATCH_SIZE = 256
PRETRAIN_PEAK_LR = 1e-7
PRETRAIN_EPSILON = 1e-9
FINETUNE_EPOCHS = 3
FINETUNE_BATCH_SIZE = 32
FINETUNE_LR = 2e-5
FINETUNE_EPSILON = 2e-7
MAX_SEQ_LEN = 128


@dataclass(frozen=True)
class CascadeSection:
    start_depth: int = 6
    end_depth: int = 3
    steps_per_stage: int = 300
    warmup_steps: int = 30
    first_stage_full_warmup: bool = True


@dataclass(frozen=True)
class PretrainSection:
    peak_lr: float = 3e-3
    batch_size: int = 16
    micro_batch_size: int = 16
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = PRETRAIN_EPSILON
    weight_decay: float = 0.0
    dropout: bool = True
    embeddings_frozen: bool = True


@dataclass(frozen=True)
class FinetuneSection:
    # desk-scale model needs ~12 epochs at 3e-3; 1e-2 destabilizes it
    lr: float = 3e-3
    batch_size: int = FINETUNE_BATCH_SIZE
    micro_batch_size: int = FINETUNE_BATCH_SIZE
    epochs: int = 12
    epsilon: float = FINETUNE_EPSILON
    num_classes: int = 3
    dropout: bool = True


@dataclass(frozen=True)
class CorpusSection:
    languages: str = "en:1048576,es:65536,de:16384,ur:1024"
    total_lines: int = 20_000
    vocab_size: int = 256
    smoothing_target_ratio: float = 100.0
    min_words_per_line: int = 3
    max_words_per_line: int = 8


@dataclass(frozen=True)
class SeedsSection:
    corpus: int = 1
    shuffle: int = 2
    cascade: int = 3
    finetune: int = 4
    task: int = 5

    def override_all(self, seed: int) -> "SeedsSection":
        return SeedsSection(**{f.name: seed for f in fields(self)})


@dataclass(frozen=True)
class RunConfig:
    """Everything one end-to-end run needs, grouped by INI section."""

    model: ModelConfig
    cascade: CascadeSection
    pretrain: PretrainSection
    finetune: FinetuneSection
    corpus: CorpusSection
    seeds: SeedsSection

    def __post_init__(self):
        if self.model.num_layers != self.cascade.start_depth:
            raise InvalidConfigError(
                f"model has {self.model.num_layers} layers but the cascade "
                f"starts at depth {self.cascade.start_depth}")
        if self.model.vocab_size != self.corpus.vocab_size:
            raise InvalidConfigError(
                f"model vocab {self.model.vocab_size} != corpus vocab "
                f"{self.corpus.vocab_size}")

    def language_sizes(self) -> dict[str, float]:
        sizes = {}
        for part in self.corpus.languages.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise InvalidConfigError(
                    f"language entry {part!r} is not name:size")
            name, _, size = part.partition(":")
            try:
                sizes[name.strip()] = float(size)
            except ValueError:
                raise InvalidConfigError(f"bad language size in {part!r}") from None
        if not sizes:
            raise InvalidConfigError("no languages configured")
        return sizes

    def corpus_spec(self) -> CorpusSpec:
        langs = tuple(LanguageSpec(name=n, size_bytes=s)
                      for n, s in self.language_sizes().items())
        return CorpusSpec(
            languages=langs,
            min_words_per_line=self.corpus.min_words_per_line,
            max_words_per_line=self.corpus.max_words_per_line,
            smoothing_target_ratio=self.corpus.smoothing_target_ratio,
            allow_single_language=len(langs) == 1)

    def pretrain_optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            peak_lr=self.pretrain.peak_lr, batch_size=self.pretrain.batch_size,
            micro_batch_size=self.pretrain.micro_batch_size,
            beta1=self.pretrain.beta1, beta2=self.pretrain.beta2,
            epsilon=self.pretrain.epsilon, weight_decay=self.pretrain.weight_decay)

    def cascade_plan(self) -> CascadePlan:
        return build_cascade_plan(
            self.cascade.start_depth, self.cascade.end_depth,
            self.pretrain_optimizer(),
            steps_per_stage=self.cascade.steps_per_stage,
            warmup_steps=self.cascade.warmup_steps,
            first_stage_full_warmup=self.cascade.first_stage_full_warmup)

    def finetune_config(self, seed: int) -> FineTuneConfig:
        optimizer = OptimizerConfig(
            peak_lr=self.finetune.lr, batch_size=self.finetune.batch_size,
            micro_batch_size=self.finetune.micro_batch_size,
            epsilon=self.finetune.epsilon)
        return FineTuneConfig(optimizer=optimizer, epochs=self.finetune.epochs,
                              num_classes=self.finetune.num_classes,
                              seed=seed, dropout=self.finetune.dropout)

    def with_seed(self, seed: int) -> "RunConfig":
        return RunConfig(model=self.model, cascade=self.cascade,
                         pretrain=self.pretrain, finetune=self.finetune,
                         corpus=self.corpus, seeds=self.seeds.override_all(seed))


def default_config() -> RunConfig:
    model = ModelConfig(vocab_size=256, hidden_dim=32, num_layers=6,
                        num_heads=4, ffn_dim=64, max_seq_len=16,
                        dropout_rate=0.1, attention_capture=PRE_SOFTMAX_SCALED)
    return RunConfig(model=model, cascade=CascadeSection(),
                     pretrain=PretrainSection(), finetune=FinetuneSection(),
                     corpus=CorpusSection(), seeds=SeedsSection())


_SECTION_FIELDS = {
    "model": ModelConfig,
    "cascade": CascadeSection,
    "pretrain": PretrainSection,
    "finetune": FinetuneSection,
    "corpus": CorpusSection,
    "seeds": SeedsSection,
}


def _coerce(raw: str, target_type: type, section: str, key: str):
    raw = raw.strip()
    try:
        if target_type is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return target_type(raw)
    except ValueError:
        raise InvalidConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {target_type.__name__}") from None


def _parse_section(parser: configparser.ConfigParser, name: str, cls, defaults):
    if not parser.has_section(name):
        return defaults
    values = {}
    types = {f.name: type(getattr(defaults, f.name)) for f in fields(cls)}
    for key, raw in parser.items(name):
        if key not in types:
            raise InvalidConfigError(f"unknown key {key!r} in section [{name}]")
        values[key] = _coerce(raw, types[key], name, key)
    merged = {f.name: values.get(f.name, getattr(defaults, f.name)) for f in fields(cls)}
    return cls(**merged)


def parse_config(path) -> RunConfig:
    """Read an INI run configuration; unset keys keep their defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise InvalidConfigError(f"cannot read config file {path}")
    base = default_config()
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise InvalidConfigError(f"unknown section [{section}]")
    sections = {
        name: _parse_section(parser, name, cls, getattr(base, name))
        for name, cls in _SECTION_FIELDS.items()
    }
    return RunConfig(**sections)


def write_config(path, config: RunConfig) -> None:
    """Write the configuration as a round-trippable INI file."""
    parser = configparser.ConfigParser()
    for name in _SECTION_FIELDS:
        section = getattr(config, name)
        parser[name] = {f.name: str(getattr(section, f.name)) for f in fields(section)}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
