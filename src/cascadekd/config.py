"""Run configuration: an INI file with [model], [cascade], [pretrain],
[finetune], [corpus], and [seeds] sections.

The defaults here, which `default_config` and `init-config` write, are
desk-scale values that run in minutes on a laptop; a key an INI file
leaves out keeps its default. The published operating point of the
method is `configs/paper.ini`, which sets only the published keys.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from typing import Iterable

from .corpus import CorpusSpec, TokenizerVocab, class_marker
from .distill import CascadePlan, build_cascade_plan
from .encoder import ModelConfig
from .errors import ValidationError
from .training import FineTuneConfig, OptimizerConfig

# `[pretrain] epsilon`'s default, which is also the published value.
PRETRAIN_EPSILON = 1e-9


@dataclass(frozen=True)
class CascadeSection:
    # Must equal [model] num_layers; the plan starts at the teacher's depth.
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
    epsilon: float = PRETRAIN_EPSILON


@dataclass(frozen=True)
class FinetuneSection:
    # desk-scale model needs ~12 epochs at 3e-3; 1e-2 destabilizes it
    lr: float = 3e-3
    batch_size: int = 32
    micro_batch_size: int = 32
    epochs: int = 12
    epsilon: float = 2e-7
    num_classes: int = 3


@dataclass(frozen=True)
class CorpusSection:
    languages: str = "en:1048576,es:65536,de:16384,ur:1024"
    total_lines: int = 20_000
    vocab_size: int = 256
    smoothing_target_ratio: float = 100.0


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
            raise ValidationError(
                f"model has {self.model.num_layers} layers but the cascade "
                f"starts at depth {self.cascade.start_depth}")
        if self.model.vocab_size != self.corpus.vocab_size:
            raise ValidationError(
                f"model vocab {self.model.vocab_size} != corpus vocab "
                f"{self.corpus.vocab_size}")
        # Build what the commands build, so a bad value fails when the file
        # is parsed rather than partway through a command, naming its section.
        for section, build in (("pretrain", self.pretrain_optimizer),
                               ("cascade", lambda: self.cascade_plan(self.model.num_layers)),
                               ("finetune", lambda: self.finetune_config(self.seeds.finetune)),
                               ("corpus", lambda: (self.corpus_spec(), self.vocabulary()))):
            try:
                build()
            except ValidationError as exc:
                raise ValidationError(f"[{section}] {exc}") from None

    def language_sizes(self) -> dict[str, float]:
        sizes = {}
        for part in self.corpus.languages.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise ValidationError(
                    f"language entry {part!r} is not name:size")
            name, _, size = part.partition(":")
            name = name.strip()
            if not name:
                raise ValidationError(f"language entry {part!r} has no name")
            if name in sizes:
                raise ValidationError(f"language {name!r} is listed twice")
            try:
                sizes[name] = float(size)
            except ValueError:
                raise ValidationError(f"bad language size in {part!r}") from None
        if not sizes:
            raise ValidationError("no languages configured")
        return sizes

    def corpus_spec(self) -> CorpusSpec:
        return CorpusSpec.from_sizes(
            self.language_sizes(),
            smoothing_target_ratio=self.corpus.smoothing_target_ratio)

    def vocabulary(self, lines: Iterable[str] = ()) -> TokenizerVocab:
        """The tokenizer vocabulary of `lines`, holding every class marker of
        the fine-tuning task."""
        markers = [class_marker(c) for c in range(self.finetune.num_classes)]
        return TokenizerVocab.build(lines, self.corpus.vocab_size, extra_tokens=markers)

    def pretrain_optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            peak_lr=self.pretrain.peak_lr, batch_size=self.pretrain.batch_size,
            micro_batch_size=self.pretrain.micro_batch_size,
            epsilon=self.pretrain.epsilon)

    def cascade_plan(self, start_depth: int) -> CascadePlan:
        """The plan that shrinks a teacher of `start_depth` layers down to
        `[cascade] end_depth`."""
        return build_cascade_plan(
            start_depth, self.cascade.end_depth,
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
                              seed=seed)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seeds=self.seeds.override_all(seed))


def default_config() -> RunConfig:
    model = ModelConfig(vocab_size=256, hidden_dim=32, num_layers=6,
                        num_heads=4, ffn_dim=64, max_seq_len=16,
                        dropout_rate=0.1)
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
        value = target_type(raw)
    except ValueError:
        raise ValidationError(
            f"[{section}] {key} = {raw!r} is not a valid {target_type.__name__}") from None
    if target_type is float and not math.isfinite(value):
        raise ValidationError(f"[{section}] {key} = {raw!r} is not finite")
    return value


def _parse_section(parser: configparser.ConfigParser, name: str, cls, defaults):
    if not parser.has_section(name):
        return defaults
    values = {}
    types = {f.name: type(getattr(defaults, f.name)) for f in fields(cls)}
    for key, raw in parser.items(name):
        if key not in types:
            raise ValidationError(f"unknown key {key!r} in section [{name}]")
        values[key] = _coerce(raw, types[key], name, key)
    merged = {f.name: values.get(f.name, getattr(defaults, f.name)) for f in fields(cls)}
    return cls(**merged)


def parse_config(path) -> RunConfig:
    """Read an INI run configuration; unset keys keep their defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
        if not read:
            raise ValidationError(f"cannot read config file {path}")
        base = default_config()
        for section in parser.sections():
            if section not in _SECTION_FIELDS:
                raise ValidationError(f"unknown section [{section}]")
        sections = {
            name: _parse_section(parser, name, cls, getattr(base, name))
            for name, cls in _SECTION_FIELDS.items()
        }
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # configparser's messages span lines
        raise ValidationError(f"{path}: not a valid INI file: {detail}") from None
    return RunConfig(**sections)


def write_config(path, config: RunConfig) -> None:
    """Write the configuration as a round-trippable INI file."""
    parser = configparser.ConfigParser()
    for name in _SECTION_FIELDS:
        section = getattr(config, name)
        parser[name] = {f.name: str(getattr(section, f.name)) for f in fields(section)}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
