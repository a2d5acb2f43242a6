"""Synthetic multilingual corpus generation, exponentiated-smoothing
language sampling, whitespace tokenization, and batching.

Languages are order-2 character Markov chains over disjoint alphabets, so
language identity is learnable at tiny scale. Lines are sampled i.i.d.
from the smoothed distribution P'(lang) = P(lang)^S / sum_k P(k)^S, where
P is proportional to on-disk size and S is solved so the largest and the
smallest language hit a target probability ratio.

Each input is checked once, where it enters: `CorpusSpec` rejects bad
language sizes and a bad target ratio when it is built, so sampling and
generation trust it; `TokenizerVocab.build` rejects extra tokens that do
not fit the vocabulary.

One line is one training example. Case is never folded.
"""

from __future__ import annotations

import bisect
import json
import math
import random
import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ValidationError

# ---------------------------------------------------------------------------
# synthetic language models
# ---------------------------------------------------------------------------

# Language i writes with the i-th 8-character chunk of this pool.
_ALPHABET_POOL = string.ascii_lowercase + string.ascii_uppercase + string.digits
_ALPHABET_CHUNK = 8
MIN_WORD_LEN = 2
MAX_WORD_LEN = 4


@dataclass(frozen=True)
class LanguageSpec:
    """Parameters of one synthetic language."""

    name: str
    size_bytes: float


@dataclass(frozen=True)
class CorpusSpec:
    """Synthetic corpus recipe: languages plus line-shape parameters.

    A language's alphabet follows from its position in `languages`: the
    i-th language writes with the i-th disjoint 8-character chunk of
    [a-zA-Z0-9], so a spec holds at most 7 languages."""

    languages: tuple[LanguageSpec, ...]
    min_words_per_line: int = 3
    max_words_per_line: int = 8
    smoothing_target_ratio: float = 100.0

    def __post_init__(self):
        if not self.languages:
            raise ValidationError("corpus spec needs at least one language")
        if not 1 <= self.min_words_per_line <= self.max_words_per_line:
            raise ValidationError("bad words-per-line range")
        if not 1 < self.smoothing_target_ratio < math.inf:
            raise ValidationError(
                f"smoothing_target_ratio must be finite and > 1, "
                f"got {self.smoothing_target_ratio}")
        names = [lang.name for lang in self.languages]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate language names")
        if len(self.languages) * _ALPHABET_CHUNK > len(_ALPHABET_POOL):
            raise ValidationError(
                f"no alphabets left for {len(self.languages)} languages; at most "
                f"{len(_ALPHABET_POOL) // _ALPHABET_CHUNK} fit")
        for lang in self.languages:
            if not 0 < lang.size_bytes < math.inf:
                raise ValidationError(
                    f"language {lang.name!r} has size {lang.size_bytes}; "
                    "sizes must be finite and > 0")
        sizes = [lang.size_bytes for lang in self.languages]
        if not sum(sizes) < math.inf:
            raise ValidationError(f"language sizes sum to {sum(sizes)}; the sum must be finite")
        # The probabilities must realize the target ratio in float64: sizes
        # spanning more than its range solve the exponent to 0, and sizes too
        # close for the ratio raise every P^S to 0, leaving 0/0.
        with np.errstate(all="ignore"):
            probs = self.sampling_probabilities().values()
        if min(sizes) < max(sizes) and not math.isclose(
                max(probs), min(probs) * self.smoothing_target_ratio, rel_tol=1e-6):
            raise ValidationError(
                f"language sizes {min(sizes)} to {max(sizes)} cannot be smoothed to "
                f"ratio {self.smoothing_target_ratio} in float64")

    @classmethod
    def from_sizes(cls, sizes: Mapping[str, float], **kwargs) -> "CorpusSpec":
        langs = tuple(LanguageSpec(name=n, size_bytes=float(s)) for n, s in sizes.items())
        return cls(languages=langs, **kwargs)

    def sampling_probabilities(self) -> dict[str, float]:
        """Smoothed probability P(j)^S / sum_k P(k)^S of each language, P
        proportional to size. The normalizer cancels in a ratio, so
        S = ln(smoothing_target_ratio) / ln(P_max / P_min) makes the largest
        language exactly that many times as likely as the smallest. When
        those two are the same size (one language included), S = 1: the raw
        distribution."""
        total = float(sum(lang.size_bytes for lang in self.languages))
        shares = np.array([lang.size_bytes / total for lang in self.languages])
        largest, smallest = shares.max(), shares.min()
        exponent = 1.0 if largest == smallest else float(
            np.log(self.smoothing_target_ratio) / np.log(largest / smallest))
        powered = shares ** exponent
        powered /= powered.sum()
        return dict(zip((lang.name for lang in self.languages), powered.tolist()))


class _MarkovLanguage:
    """Order-2 character chain over the alphabet of the language at `index`,
    with a concentrated transition table, built deterministically from an
    integer seed."""

    _START = "\x00"

    def __init__(self, index: int, seed: int):
        rng = random.Random(seed)
        chars = list(_ALPHABET_POOL[index * _ALPHABET_CHUNK:(index + 1) * _ALPHABET_CHUNK])
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
        raise ValidationError("total_lines must be >= 0")
    models = [_MarkovLanguage(i, _language_seed(seed, i))
              for i in range(len(spec.languages))]
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
    names = [lang.name for lang in spec.languages]
    if language not in names:
        raise ValidationError(f"unknown language {language!r}; have {', '.join(names)}")
    index = names.index(language)
    model = _MarkovLanguage(index, _language_seed(seed, index))
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
            raise ValidationError("duplicate token ids")
        if any(not 0 <= i < self.vocab_size for i in ids):
            raise ValidationError("token id outside [0, vocab_size)")
        for i, tok in enumerate(SPECIAL_TOKENS):
            if self.token_to_id.get(tok) != i:
                raise ValidationError(
                    f"special token {tok} must have id {i}, "
                    f"found {self.token_to_id.get(tok)}")

    @classmethod
    def build(cls, lines: Iterable[str], vocab_size: int,
              extra_tokens: Sequence[str] = ()) -> "TokenizerVocab":
        """Vocabulary of the most frequent whitespace tokens, with ties
        broken lexicographically; `extra_tokens` are always included, and
        a vocabulary too small to hold them all is an error."""
        if vocab_size < len(SPECIAL_TOKENS) + 1:
            raise ValidationError(f"vocab_size {vocab_size} too small")
        token_to_id = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
        for tok in extra_tokens:
            token_to_id.setdefault(tok, len(token_to_id))
        if len(token_to_id) > vocab_size:
            raise ValidationError(
                f"vocab_size {vocab_size} has no room for extra tokens "
                f"{', '.join(list(token_to_id)[vocab_size:])}")
        counts = Counter()
        for line in lines:
            counts.update(line.split())
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
            raise ValidationError(
                f"{path}: not a vocabulary file: {type(exc).__name__}: {exc}") from None
        if not isinstance(token_to_id, dict) or \
                any(type(i) is not int for i in token_to_id.values()):
            raise ValidationError(f"{path}: token_to_id must map tokens to integer ids")
        if type(vocab_size) is not int:
            raise ValidationError(f"{path}: vocab_size must be an integer")
        try:
            return cls(token_to_id=token_to_id, vocab_size=vocab_size)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


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
            raise ValidationError("token_ids and attention_mask must both be (batch, T)")
        if (~self.attention_mask[:, :-1] & self.attention_mask[:, 1:]).any():
            raise ValidationError("real token after padding")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (len(self.token_ids),):
                raise ValidationError("labels must be one per example")

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
        raise ValidationError("max_len must be >= 2")
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
    ValidationError naming the file and the line."""
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
                raise ValidationError(
                    f"{path}: line {lineno} is not lang<TAB>integer label<TAB>text") from None
    return out
