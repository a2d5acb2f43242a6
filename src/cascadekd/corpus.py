"""Synthetic multilingual corpus generation, exponentiated-smoothing
language sampling, whitespace tokenization, and batching.

Languages are order-2 character Markov chains over disjoint alphabets, so
language identity is learnable at tiny scale. Lines are sampled i.i.d.
from the smoothed distribution P'(lang) = P(lang)^S / sum_k P(k)^S, where
P is proportional to on-disk size and S is solved so the largest and the
smallest language hit a target probability ratio.

One line is one training example. Case is never folded.
"""

from __future__ import annotations

import bisect
import json
import math
import random
import string
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateRatioError,
    EmptyTableError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidSpecError,
    InvalidTargetError,
    NonPositiveSizeError,
)

# ---------------------------------------------------------------------------
# language sampling
# ---------------------------------------------------------------------------

PROBABILITY_TOL = 1e-9


def size_distribution(sizes: Mapping[str, float]) -> dict[str, float]:
    """Raw language probabilities, proportional to size on disk."""
    if not sizes:
        raise EmptyTableError("no languages given")
    for name, size in sizes.items():
        if not 0 < size < math.inf:
            raise NonPositiveSizeError(
                f"language {name!r} has size {size}; sizes must be finite and > 0")
    total = float(sum(sizes.values()))
    shares = {name: size / total for name, size in sizes.items()}
    for name, share in shares.items():
        if not 0 < share < math.inf:
            raise NonPositiveSizeError(
                f"language {name!r} has share {share} of total size {total}; "
                "shares must be finite and > 0")
    return shares


def solve_smoothing_exponent(p_a: float, p_b: float, target_ratio: float) -> float:
    """Exponent S with (p_a/p_b)^S == target_ratio exactly.

    The normalizer of the smoothed distribution cancels in the ratio, so
    S = ln(target_ratio) / ln(p_a/p_b).
    """
    if target_ratio <= 0:
        raise InvalidTargetError(f"target ratio must be positive, got {target_ratio}")
    if p_a <= 0 or p_b <= 0:
        raise InvalidDistributionError("anchor probabilities must be positive")
    if p_a == p_b:
        raise DegenerateRatioError("anchor probabilities are equal; no exponent exists")
    return float(np.log(target_ratio) / np.log(p_a / p_b))


def exponentiate_distribution(probabilities: Mapping[str, float], exponent: float) -> dict[str, float]:
    """Smoothed distribution P'(j) = P(j)^S / sum_k P(k)^S."""
    if exponent <= 0:
        raise InvalidTargetError(f"exponent must be positive, got {exponent}")
    if not probabilities:
        raise InvalidDistributionError("empty distribution")
    values = np.array(list(probabilities.values()), dtype=np.float64)
    if (values <= 0).any():
        raise InvalidDistributionError("probabilities must be positive")
    if abs(values.sum() - 1.0) > PROBABILITY_TOL:
        raise InvalidDistributionError(f"probabilities sum to {values.sum()}, not 1")
    powered = values ** exponent
    powered /= powered.sum()
    return dict(zip(probabilities.keys(), powered.tolist()))


# ---------------------------------------------------------------------------
# synthetic language models
# ---------------------------------------------------------------------------

_ALPHABET_CHUNK = 8
MIN_WORD_LEN = 2
MAX_WORD_LEN = 4


def _default_alphabets(count: int) -> list[str]:
    pool = string.ascii_lowercase + string.ascii_uppercase + string.digits
    if count * _ALPHABET_CHUNK > len(pool):
        raise InvalidSpecError(
            f"no default alphabets for {count} languages; set them explicitly")
    return [pool[i * _ALPHABET_CHUNK:(i + 1) * _ALPHABET_CHUNK] for i in range(count)]


@dataclass(frozen=True)
class LanguageSpec:
    """Parameters of one synthetic language."""

    name: str
    size_bytes: float
    alphabet: str = ""


@dataclass(frozen=True)
class CorpusSpec:
    """Synthetic corpus recipe: languages plus line-shape parameters."""

    languages: tuple[LanguageSpec, ...]
    min_words_per_line: int = 3
    max_words_per_line: int = 8
    smoothing_target_ratio: float = 100.0

    def __post_init__(self):
        if not self.languages:
            raise InvalidSpecError("corpus spec needs at least one language")
        if not 1 <= self.min_words_per_line <= self.max_words_per_line:
            raise InvalidSpecError("bad words-per-line range")
        if not 1 < self.smoothing_target_ratio < math.inf:
            raise InvalidTargetError(
                f"smoothing_target_ratio must be finite and > 1, "
                f"got {self.smoothing_target_ratio}")
        names = [lang.name for lang in self.languages]
        if len(set(names)) != len(names):
            raise InvalidSpecError("duplicate language names")
        if any(not lang.alphabet for lang in self.languages):
            defaults = _default_alphabets(len(self.languages))
            filled = tuple(
                lang if lang.alphabet else replace(lang, alphabet=defaults[i])
                for i, lang in enumerate(self.languages))
            object.__setattr__(self, "languages", filled)
        alphabets = [lang.alphabet for lang in self.languages]
        if len(set(alphabets)) != len(alphabets):
            raise InvalidSpecError("languages need distinct character distributions")

    @classmethod
    def from_sizes(cls, sizes: Mapping[str, float], **kwargs) -> "CorpusSpec":
        langs = tuple(LanguageSpec(name=n, size_bytes=float(s)) for n, s in sizes.items())
        return cls(languages=langs, **kwargs)

    def sampling_probabilities(self) -> dict[str, float]:
        """Smoothed probability of each language, with the exponent solved
        so the largest language is `smoothing_target_ratio` times as likely
        as the smallest. When those two are the same size (one language
        included), the exponent is 1: the raw distribution, renormalized."""
        raw = size_distribution({lang.name: lang.size_bytes for lang in self.languages})
        largest, smallest = max(raw.values()), min(raw.values())
        exponent = 1.0 if largest == smallest else solve_smoothing_exponent(
            largest, smallest, self.smoothing_target_ratio)
        return exponentiate_distribution(raw, exponent)


class _MarkovLanguage:
    """Order-2 character chain with a concentrated transition table,
    built deterministically from an integer seed."""

    _START = "\x00"

    def __init__(self, spec: LanguageSpec, seed: int):
        self.spec = spec
        rng = random.Random(seed)
        chars = list(spec.alphabet)
        self._chars = chars
        self._cum: dict[tuple[str, str], list[float]] = {}
        states = [self._START] + chars
        for c1 in states:
            for c2 in states:
                # Raising raw weights to a high power concentrates mass on
                # a few transitions, keeping the word inventory small
                # enough for a couple-hundred-entry vocabulary.
                weights = [rng.random() ** 8 for _ in chars]
                total = sum(weights)
                acc, cum = 0.0, []
                for w in weights:
                    acc += w / total
                    cum.append(acc)
                cum[-1] = 1.0
                self._cum[(c1, c2)] = cum

    def word(self, rng: random.Random) -> str:
        length = rng.randint(MIN_WORD_LEN, MAX_WORD_LEN)
        prev2 = prev1 = self._START
        out = []
        for _ in range(length):
            cum = self._cum[(prev2, prev1)]
            char = self._chars[bisect.bisect_left(cum, rng.random())]
            out.append(char)
            prev2, prev1 = prev1, char
        return "".join(out)

    def line(self, rng: random.Random, min_words: int, max_words: int) -> str:
        count = rng.randint(min_words, max_words)
        return " ".join(self.word(rng) for _ in range(count))


def _language_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index * 7_919 + 1


def generate_synthetic_corpus(spec: CorpusSpec, total_lines: int,
                              seed: int) -> list[tuple[str, str]]:
    """Deterministically generate `(language, text)` lines, languages drawn
    i.i.d. from the smoothed distribution."""
    if total_lines < 0:
        raise InvalidSpecError("total_lines must be >= 0")
    models = [_MarkovLanguage(lang, _language_seed(seed, i))
              for i, lang in enumerate(spec.languages)]
    weights = list(spec.sampling_probabilities().values())
    rng = random.Random(seed)
    picks = rng.choices(range(len(models)), weights=weights, k=total_lines)
    lines = []
    for idx in picks:
        text = models[idx].line(rng, spec.min_words_per_line, spec.max_words_per_line)
        lines.append((spec.languages[idx].name, text))
    return lines


def shuffle_lines(lines: Iterable, seed: int) -> list:
    """Deterministic permutation of the stream (multiset preserved)."""
    out = list(lines)
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# labeled task generation (zero-shot-transfer stand-in)
# ---------------------------------------------------------------------------

def class_marker(label: int) -> str:
    """The token that makes the synthetic classification task separable."""
    return f"LBL{label}"


def generate_labeled_task(spec: CorpusSpec, language: str, num_examples: int,
                          seed: int, num_classes: int) -> list[tuple[str, int, str]]:
    """`(language, label, text)` rows; the label's marker token leads each
    line, followed by ordinary text in the requested language."""
    index = next((i for i, lang in enumerate(spec.languages) if lang.name == language), None)
    if index is None:
        raise InvalidSpecError(f"unknown language {language!r}")
    model = _MarkovLanguage(spec.languages[index], _language_seed(seed, index))
    rng = random.Random(seed * 69_069 + 13)
    rows = []
    for _ in range(num_examples):
        label = rng.randrange(num_classes)
        text = model.line(rng, spec.min_words_per_line, spec.max_words_per_line)
        rows.append((language, label, f"{class_marker(label)} {text}"))
    return rows


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)


@dataclass(frozen=True)
class TokenizerVocab:
    """Whitespace tokenizer vocabulary; unknown tokens map to [UNK]. The
    special tokens always hold ids 0-3, in `SPECIAL_TOKENS` order."""

    token_to_id: dict
    vocab_size: int

    pad_id, unk_id, cls_id, sep_id = range(len(SPECIAL_TOKENS))

    def __post_init__(self):
        ids = set(self.token_to_id.values())
        if len(ids) != len(self.token_to_id):
            raise InvalidConfigError("duplicate token ids")
        if any(not 0 <= i < self.vocab_size for i in ids):
            raise InvalidConfigError("token id outside [0, vocab_size)")
        for i, tok in enumerate(SPECIAL_TOKENS):
            if self.token_to_id.get(tok) != i:
                raise InvalidConfigError(
                    f"special token {tok} must have id {i}, "
                    f"found {self.token_to_id.get(tok)}")

    @classmethod
    def build(cls, lines: Iterable[str], vocab_size: int,
              extra_tokens: Sequence[str] = ()) -> "TokenizerVocab":
        """Vocabulary of the most frequent whitespace tokens, with ties
        broken lexicographically; `extra_tokens` are always included."""
        if vocab_size < len(SPECIAL_TOKENS) + 1:
            raise InvalidConfigError(f"vocab_size {vocab_size} too small")
        counts = Counter()
        for line in lines:
            counts.update(line.split())
        token_to_id = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
        for tok in extra_tokens:
            if tok not in token_to_id and len(token_to_id) < vocab_size:
                token_to_id[tok] = len(token_to_id)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for tok, _ in ranked:
            if len(token_to_id) >= vocab_size:
                break
            if tok not in token_to_id:
                token_to_id[tok] = len(token_to_id)
        return cls(token_to_id=token_to_id, vocab_size=vocab_size)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, self.unk_id)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"vocab_size": self.vocab_size, "token_to_id": self.token_to_id},
                      fh, ensure_ascii=False, sort_keys=True, indent=0)

    @classmethod
    def load(cls, path) -> "TokenizerVocab":
        try:
            with open(path, encoding="utf-8") as fh:
                blob = json.load(fh)
            token_to_id, vocab_size = blob["token_to_id"], blob["vocab_size"]
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidConfigError(
                f"{path}: not a vocabulary file: {type(exc).__name__}: {exc}") from None
        if not isinstance(token_to_id, dict) or \
                any(type(i) is not int for i in token_to_id.values()):
            raise InvalidConfigError(f"{path}: token_to_id must map tokens to integer ids")
        if type(vocab_size) is not int:
            raise InvalidConfigError(f"{path}: vocab_size must be an integer")
        try:
            return cls(token_to_id=token_to_id, vocab_size=vocab_size)
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """Padded token ids with an attention mask and optional labels.

    The mask is 1 on real tokens (including [CLS]/[SEP]) and 0 on padding;
    real tokens never follow padding.
    """

    token_ids: np.ndarray
    attention_mask: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        self.attention_mask = np.asarray(self.attention_mask, dtype=bool)
        if self.token_ids.shape != self.attention_mask.shape or self.token_ids.ndim != 2:
            raise InvalidConfigError("token_ids and attention_mask must both be (batch, T)")
        if (~self.attention_mask[:, :-1] & self.attention_mask[:, 1:]).any():
            raise InvalidConfigError("real token after padding")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (len(self.token_ids),):
                raise InvalidConfigError("labels must be one per example")

    def __len__(self) -> int:
        return len(self.token_ids)

    def take(self, indices) -> "Batch":
        labels = None if self.labels is None else self.labels[indices]
        return Batch(self.token_ids[indices], self.attention_mask[indices], labels)

    def split(self, micro_size: int) -> list["Batch"]:
        return [self.take(slice(i, i + micro_size))
                for i in range(0, len(self), micro_size)]


def encode(line: str, vocab: TokenizerVocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """[CLS] + tokens + [SEP], truncated to `max_len` and padded to exactly
    `max_len`; returns (ids, mask) row vectors."""
    if max_len < 2:
        raise InvalidConfigError("max_len must be >= 2")
    body = [vocab.id_for(tok) for tok in line.split()[:max_len - 2]]
    ids = [vocab.cls_id] + body + [vocab.sep_id]
    real = len(ids)
    ids.extend([vocab.pad_id] * (max_len - real))
    mask = np.zeros(max_len, dtype=bool)
    mask[:real] = True
    return np.asarray(ids, dtype=np.int64), mask


def encode_batch(lines: Sequence[str], vocab: TokenizerVocab, max_len: int,
                 labels: Optional[Sequence[int]] = None) -> Batch:
    rows = [encode(line, vocab, max_len) for line in lines]
    ids = np.stack([r[0] for r in rows]) if rows else np.zeros((0, max_len), dtype=np.int64)
    mask = np.stack([r[1] for r in rows]) if rows else np.zeros((0, max_len), dtype=bool)
    return Batch(ids, mask, None if labels is None else np.asarray(labels, dtype=np.int64))


def batch_stream(lines: Sequence[str], vocab: TokenizerVocab, max_len: int,
                 batch_size: int) -> Iterator[Batch]:
    """Consecutive full batches; a trailing partial batch is dropped."""
    for start in range(0, len(lines) - batch_size + 1, batch_size):
        yield encode_batch(lines[start:start + batch_size], vocab, max_len)


# ---------------------------------------------------------------------------
# corpus file I/O
# ---------------------------------------------------------------------------

def write_corpus(path, tagged_lines: Iterable[tuple[str, str]]) -> None:
    """One `lang<TAB>text` example per line, UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        for lang, text in tagged_lines:
            fh.write(f"{lang}\t{text}\n")


def read_corpus(path) -> list[tuple[Optional[str], str]]:
    """Read `lang<TAB>text` lines; untagged lines get language None."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if "\t" in line:
                lang, text = line.split("\t", 1)
                out.append((lang, text))
            else:
                out.append((None, line))
    return out


def write_labeled(path, rows: Iterable[tuple[str, int, str]]) -> None:
    """One `lang<TAB>label<TAB>text` example per line, UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        for lang, label, text in rows:
            fh.write(f"{lang}\t{label}\t{text}\n")


def read_labeled(path) -> list[tuple[str, int, str]]:
    """Read `lang<TAB>label<TAB>text` lines; a malformed line raises
    InvalidConfigError naming the file and the line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                lang, label, text = line.split("\t", 2)
                out.append((lang, int(label), text))
            except ValueError:
                raise InvalidConfigError(
                    f"{path}: line {lineno} is not lang<TAB>integer label<TAB>text") from None
    return out
