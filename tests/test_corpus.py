"""Corpus machinery: smoothing math against hand values, synthetic
generation statistics, tokenizer behavior, batch layout, file round
trips."""

import numpy as np
import pytest

from cascadekd.cli import main
from cascadekd.corpus import (
    Batch,
    CorpusSpec,
    LanguageSpec,
    TokenizerVocab,
    batch_stream,
    class_marker,
    encode,
    encode_batch,
    exponentiate_distribution,
    generate_labeled_task,
    generate_synthetic_corpus,
    read_corpus,
    read_labeled,
    shuffle_lines,
    size_distribution,
    solve_smoothing_exponent,
    write_corpus,
    write_labeled,
)
from cascadekd.errors import ValidationError


# ---------------------------------------------------------------------------
# smoothing math
# ---------------------------------------------------------------------------

def test_size_distribution():
    probs = size_distribution({"a": 30, "b": 10})
    assert probs == {"a": 0.75, "b": 0.25}
    with pytest.raises(ValidationError, match="no languages given"):
        size_distribution({})
    with pytest.raises(ValidationError, match="has size 0"):
        size_distribution({"a": 0})


@pytest.mark.parametrize("size", [float("nan"), float("inf"), 0.0, -1.0])
def test_size_distribution_rejects_a_size_that_is_not_finite_and_positive(size):
    with pytest.raises(ValidationError, match="'b'"):
        size_distribution({"a": 10.0, "b": size})


def test_solve_exponent_hand_value():
    # probability ratio 10^4 squeezed to 100 needs S = ln(100)/ln(10^4) = 1/2
    s = solve_smoothing_exponent(1e-1, 1e-5, 100.0)
    assert np.isclose(s, 0.5)


def test_solve_exponent_restores_ratio_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        raw = rng.random(4) + 1e-3
        raw /= raw.sum()
        p = dict(zip("abcd", raw))
        hi = max(p, key=p.get)
        lo = min(p, key=p.get)
        if p[hi] == p[lo]:
            continue
        ratio = float(rng.uniform(1.5, 500.0))
        s = solve_smoothing_exponent(p[hi], p[lo], ratio)
        smoothed = exponentiate_distribution(p, s)
        assert abs(smoothed[hi] / smoothed[lo] - ratio) < 1e-9 * ratio


def test_solve_exponent_errors():
    with pytest.raises(ValidationError, match="target ratio must be positive"):
        solve_smoothing_exponent(0.8, 0.2, 0.0)
    with pytest.raises(ValidationError, match="anchor probabilities are equal"):
        solve_smoothing_exponent(0.5, 0.5, 100.0)
    with pytest.raises(ValidationError, match="anchor probabilities must be positive"):
        solve_smoothing_exponent(0.0, 0.5, 100.0)


def test_exponentiate_hand_value():
    # sqrt weights of {0.8, 0.2} normalize to {2/3, 1/3}
    smoothed = exponentiate_distribution({"a": 0.8, "b": 0.2}, 0.5)
    assert np.isclose(smoothed["a"], 2.0 / 3.0)
    assert np.isclose(smoothed["b"], 1.0 / 3.0)


def test_exponentiate_errors():
    with pytest.raises(ValidationError, match="exponent must be positive"):
        exponentiate_distribution({"a": 1.0}, 0.0)
    with pytest.raises(ValidationError, match="probabilities sum to"):
        exponentiate_distribution({"a": 0.7, "b": 0.2}, 0.5)
    with pytest.raises(ValidationError, match="empty distribution"):
        exponentiate_distribution({}, 0.5)


def test_exponentiate_preserves_order():
    rng = np.random.default_rng(1)
    for _ in range(20):
        raw = rng.random(5) + 1e-3
        raw /= raw.sum()
        p = dict(zip("abcde", raw))
        s = float(rng.uniform(0.05, 3.0))
        smoothed = exponentiate_distribution(p, s)
        order = sorted(p, key=p.get)
        assert order == sorted(smoothed, key=smoothed.get)


def test_language_table_from_sizes():
    spec = CorpusSpec.from_sizes({"big": 1e6, "mid": 1e4, "small": 1e2},
                                 smoothing_target_ratio=100.0)
    smoothed = spec.sampling_probabilities()
    assert np.isclose(smoothed["big"] / smoothed["small"], 100.0)
    assert np.isclose(sum(smoothed.values()), 1.0)
    # smoothing must not reorder languages
    assert smoothed["big"] > smoothed["mid"] > smoothed["small"]


def test_language_table_degenerate_cases():
    single = CorpusSpec.from_sizes({"only": 10})
    assert single.sampling_probabilities() == {"only": 1.0}
    flat = CorpusSpec.from_sizes({"a": 5, "b": 5})
    assert np.isclose(flat.sampling_probabilities()["a"], 0.5)


def test_language_table_csv_round_trip(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[corpus]\nlanguages = en:123456,ur:77.5\n")
    assert main(["gen-corpus", "--config", str(ini), "--out", str(tmp_path),
                 "--lines", "16"]) == 0
    assert (tmp_path / "languages.csv").read_bytes() == b"en,123456.0\r\nur,77.5\r\n"


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def four_language_spec(**overrides):
    return CorpusSpec.from_sizes(
        {"en": 1e6, "es": 1e5, "de": 1e4, "ur": 1e2}, **overrides)


def test_corpus_spec_validation():
    with pytest.raises(ValidationError, match="needs at least one language"):
        CorpusSpec(languages=())
    with pytest.raises(ValidationError, match="no alphabets left for 8 languages"):
        CorpusSpec(languages=tuple(LanguageSpec(str(i), 1) for i in range(8)))
    with pytest.raises(ValidationError, match="duplicate language names"):
        CorpusSpec(languages=(LanguageSpec("a", 1), LanguageSpec("a", 2)))


def test_generation_deterministic():
    spec = four_language_spec()
    a = generate_synthetic_corpus(spec, 200, seed=5)
    b = generate_synthetic_corpus(spec, 200, seed=5)
    c = generate_synthetic_corpus(spec, 200, seed=6)
    assert a == b
    assert a != c


def test_generated_text_stays_in_alphabet():
    # Each language writes with its own chunk of [a-zA-Z0-9]; no two share a character.
    spec = four_language_spec()
    alphabets = {"en": set("abcdefgh"), "es": set("ijklmnop"), "de": set("qrstuvwx"),
                 "ur": set("yzABCDEF")}
    for lang, text in generate_synthetic_corpus(spec, 300, seed=7):
        chars = set(text.replace(" ", ""))
        assert chars <= alphabets[lang], lang


def test_language_frequencies_track_smoothed_distribution():
    spec = four_language_spec()
    smoothed = spec.sampling_probabilities()
    lines = generate_synthetic_corpus(spec, 20_000, seed=8)
    counts = {name: 0 for name in smoothed}
    for lang, _ in lines:
        counts[lang] += 1
    l1 = sum(abs(counts[k] / len(lines) - smoothed[k]) for k in smoothed)
    assert l1 < 0.03


def test_shuffle_lines():
    lines = list(range(100))
    shuffled = shuffle_lines(lines, seed=3)
    assert shuffled != lines
    assert sorted(shuffled) == lines
    assert shuffle_lines(lines, seed=3) == shuffled


def test_labeled_task_shape():
    spec = four_language_spec()
    rows = generate_labeled_task(spec, "es", 100, seed=9, num_classes=3)
    assert len(rows) == 100
    seen = set()
    for lang, label, text in rows:
        assert lang == "es"
        assert 0 <= label < 3
        assert text.split()[0] == class_marker(label)
        seen.add(label)
    assert seen == {0, 1, 2}
    again = generate_labeled_task(spec, "es", 100, seed=9, num_classes=3)
    assert rows == again
    with pytest.raises(ValidationError, match="unknown language 'fr'"):
        generate_labeled_task(spec, "fr", 10, seed=0, num_classes=3)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

def test_vocab_specials_and_ranking():
    lines = ["c c c b b a", "b d"]
    vocab = TokenizerVocab.build(lines, vocab_size=7)
    assert vocab.pad_id == 0 and vocab.unk_id == 1
    assert vocab.cls_id == 2 and vocab.sep_id == 3
    # counts: b=3, c=3, a=1, d=1; ties break lexicographically
    assert vocab.id_for("b") == 4
    assert vocab.id_for("c") == 5
    assert vocab.id_for("a") == 6
    assert vocab.id_for("d") == vocab.unk_id
    assert vocab.id_for("zzz") == vocab.unk_id


def test_vocab_extra_tokens_and_limits():
    vocab = TokenizerVocab.build(["x y z"], vocab_size=6,
                                 extra_tokens=("LBL0",))
    assert vocab.id_for("LBL0") == 4
    assert vocab.id_for("x") == 5
    assert vocab.id_for("y") == vocab.unk_id
    with pytest.raises(ValidationError, match="vocab_size 4 too small"):
        TokenizerVocab.build(["x"], vocab_size=4)


def test_vocab_round_trip(tmp_path):
    vocab = TokenizerVocab.build(["a b c a"], vocab_size=8,
                                 extra_tokens=("LBL0", "LBL1"))
    path = tmp_path / "vocab.json"
    vocab.save(path)
    loaded = TokenizerVocab.load(path)
    assert loaded == vocab


def test_encode_layout():
    vocab = TokenizerVocab.build(["w1 w2 w3"], vocab_size=8)
    ids, mask = encode("w1 w2", vocab, max_len=6)
    assert ids.tolist() == [vocab.cls_id, vocab.id_for("w1"),
                            vocab.id_for("w2"), vocab.sep_id,
                            vocab.pad_id, vocab.pad_id]
    assert mask.tolist() == [True, True, True, True, False, False]
    # truncation keeps room for both specials
    ids, mask = encode("w1 w2 w3 w1 w2 w3", vocab, max_len=4)
    assert ids.tolist() == [vocab.cls_id, vocab.id_for("w1"),
                            vocab.id_for("w2"), vocab.sep_id]
    assert mask.all()
    with pytest.raises(ValidationError, match="max_len must be >= 2"):
        encode("w1", vocab, max_len=1)


def test_encode_batch_and_labels():
    vocab = TokenizerVocab.build(["a b"], vocab_size=8)
    batch = encode_batch(["a", "a b"], vocab, max_len=5, labels=[0, 2])
    assert batch.token_ids.shape == (2, 5)
    assert batch.attention_mask.sum(axis=1).tolist() == [3, 4]
    assert batch.labels.tolist() == [0, 2]


def test_batch_validation():
    ids = np.zeros((2, 3), dtype=np.int64)
    holey = np.array([[True, False, True], [True, True, True]])
    with pytest.raises(ValidationError, match="real token after padding"):
        Batch(ids, holey)
    with pytest.raises(ValidationError, match="labels must be one per example"):
        Batch(ids, np.ones((2, 3), dtype=bool), labels=[1])
    with pytest.raises(ValidationError, match=r"must both be \(batch, T\)"):
        Batch(np.zeros((2, 3, 1), dtype=np.int64), np.ones((2, 3, 1), dtype=bool))


def test_batch_take_and_split():
    ids = np.arange(12, dtype=np.int64).reshape(4, 3)
    mask = np.ones((4, 3), dtype=bool)
    batch = Batch(ids, mask, labels=[0, 1, 2, 0])
    micros = batch.split(2)
    assert [len(m) for m in micros] == [2, 2]
    assert np.array_equal(micros[1].token_ids, ids[2:])
    assert micros[1].labels.tolist() == [2, 0]
    ragged = batch.split(3)
    assert [len(m) for m in ragged] == [3, 1]
    taken = batch.take([3, 0])
    assert taken.token_ids[0, 0] == 9


def test_batch_stream_drops_partial():
    vocab = TokenizerVocab.build(["a"], vocab_size=6)
    lines = ["a"] * 10
    batches = list(batch_stream(lines, vocab, max_len=4, batch_size=4))
    assert [len(b) for b in batches] == [4, 4]


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------

def test_corpus_file_round_trip(tmp_path):
    path = tmp_path / "corpus.tsv"
    tagged = [("en", "aa bb"), ("ur", "cc")]
    write_corpus(path, tagged)
    assert read_corpus(path) == tagged


def test_corpus_reads_untagged_lines(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("hello world\n\nsecond line\n", encoding="utf-8")
    assert read_corpus(path) == [(None, "hello world"), (None, "second line")]


def test_labeled_file_round_trip(tmp_path):
    path = tmp_path / "task.tsv"
    rows = [("en", 0, "LBL0 aa"), ("en", 2, "LBL2 bb cc")]
    write_labeled(path, rows)
    assert read_labeled(path) == rows
