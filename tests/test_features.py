import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmctag.errors import EmptyCorpus, EmptyToken
from pmctag.features import (backoff_level, derive_feature_tables,
                             extract_features, feature_column,
                             fit_feature_tables, word_suffix)
from pmctag.model import Interner
from pmctag.training import accumulate_counts
from pmctag.conll import LabeledCorpus

from conftest import corpus_from, varied_corpus


def brute_force_feature_tables(corpus, max_len):
    """Independent tuple counter working on raw strings."""
    tuples = [dict() for _ in range(max_len + 1)]
    totals = {}
    for sent in corpus.sentences:
        for pos, (word, label) in enumerate(sent):
            totals[label] = totals.get(label, 0) + 1
            cap = 1 if word[0].isupper() else 0
            hyp = 1 if "-" in word else 0
            first = 1 if pos == 0 else 0
            dig = 1 if any(c.isdecimal() for c in word) else 0
            for m in range(max_len + 1):
                sfx = word[len(word) - min(m, len(word)):]
                key = (label, cap, hyp, first, dig, sfx)
                tuples[m][key] = tuples[m].get(key, 0) + 1
    return tuples, totals


def tuple_rows(tables, m):
    """The row in tables.tables[m] of each label-free tuple (cap, hyphen,
    first, digit, suffix), decoded from the level's codes and suffix ranks."""
    ranks = tables.suffix_ranks[m]
    suffixes = sorted(ranks, key=ranks.__getitem__)
    return {(code >> 3 & 1, code >> 2 & 1, code >> 1 & 1, code & 1, suffixes[code >> 4]): row
            for row, code in enumerate(tables.codes[m].tolist())}


def prob(tables, m, label, key):
    """Level-m probability of the label-free tuple `key` under `label`."""
    return tables.tables[m][tuple_rows(tables, m)[key], label]


class TestExtractFeatures:
    def test_capitalized_first_word(self):
        f = extract_features("John", 0, 3)
        assert (f.cap, f.hyphen, f.first, f.digit, f.suffix) == (1, 0, 1, 0, "ohn")

    def test_hyphenated_mid_sentence(self):
        f = extract_features("state-of-the-art", 4, 3)
        assert (f.cap, f.hyphen, f.first, f.digit, f.suffix) == (0, 1, 0, 0, "art")

    def test_short_word_with_digit(self):
        f = extract_features("B2B", 2, 3)
        assert (f.cap, f.hyphen, f.first, f.digit, f.suffix) == (1, 0, 0, 1, "B2B")

    def test_zero_suffix_length(self):
        assert extract_features("John", 0, 0).suffix == ""

    def test_empty_word(self):
        with pytest.raises(EmptyToken):
            extract_features("", 0, 3)

    def test_pure_function(self):
        a = extract_features("re-do", 1, 2)
        b = extract_features("re-do", 1, 2)
        assert a == b

    def test_non_letter_first_char_is_not_cap(self):
        assert extract_features("2nd", 1, 3).cap == 0
        assert extract_features("-x", 1, 3).cap == 0


class TestFitFeatureTables:
    def test_single_token_corpus(self):
        corpus = corpus_from([("John", "NOUN")])
        alphabet = Interner(corpus.tags)
        tables = fit_feature_tables(corpus, alphabet, 3)
        noun = alphabet.get("NOUN")
        assert noun == 0
        assert tuple_rows(tables, 3) == {(1, 0, 1, 0, "ohn"): 0}
        assert tables.tables[3].tolist() == [[1.0]]
        assert tuple_rows(tables, 0) == {(1, 0, 1, 0, ""): 0}
        assert tables.tables[0].tolist() == [[1.0]]

    def test_two_tokens_same_label_split_half(self):
        corpus = corpus_from([("John", "NOUN"), ("car", "NOUN")])
        alphabet = Interner(corpus.tags)
        tables = fit_feature_tables(corpus, alphabet, 3)
        noun = alphabet.get("NOUN")
        assert prob(tables, 3, noun, (1, 0, 1, 0, "ohn")) == 0.5
        assert prob(tables, 3, noun, (0, 0, 0, 0, "car")) == 0.5

    def test_against_brute_force_counter(self, rng):
        corpus = varied_corpus(rng, n_sentences=70)
        alphabet = Interner(corpus.tags)
        tables = fit_feature_tables(corpus, alphabet, 3)
        ref_tuples, ref_totals = brute_force_feature_tables(corpus, 3)
        for m in range(4):
            assert np.count_nonzero(tables.tables[m]) == len(ref_tuples[m])
            for (label, *rest), c in ref_tuples[m].items():
                assert prob(tables, m, alphabet.get(label), tuple(rest)) == \
                    c / ref_totals[label]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fit_feature_tables(LabeledCorpus(sentences=[]), Interner(), 3)

    def test_normalized_per_label_and_level(self, rng):
        corpus = varied_corpus(rng)
        tables = fit_feature_tables(corpus, Interner(corpus.tags), 3)
        tables.validate()

    def test_derivation_from_counts_is_bit_identical(self, rng):
        corpus = varied_corpus(rng, n_sentences=90)
        counts, alphabet, vocab = accumulate_counts(corpus)
        fitted = fit_feature_tables(corpus, alphabet, 3)
        derived = derive_feature_tables(counts, vocab, 3)
        assert fitted == derived


class TestFeatureEmissionProb:
    @pytest.fixture
    def tables(self):
        corpus = corpus_from(
            [("walking", "VERB"), ("Rennes", "NOUN")],
            [("I", "PRON"), ("walk", "VERB")],
            [("ok", "DET")],
        )
        self.alphabet = Interner(corpus.tags)
        return fit_feature_tables(corpus, self.alphabet, 3)

    def test_level3_hit(self, tables):
        noun = self.alphabet.get("NOUN")
        # unknown word with a seen 3-suffix scores straight from level 3
        assert backoff_level(tables, "Vannes") == 3
        p = feature_column(tables, "Vannes", 1)[noun]
        assert p == prob(tables, 3, noun, (1, 0, 0, 0, "nes"))
        assert p == 1.0

    def test_backoff_chain_to_level_1(self, tables):
        verb = self.alphabet.get("VERB")
        # "zzk" and "zk" unseen, "k" seen via "walk"
        assert backoff_level(tables, "buzzk") == 1
        p = feature_column(tables, "buzzk", 2)[verb]
        assert p == prob(tables, 1, verb, (0, 0, 0, 0, "k"))
        assert p == 0.5

    def test_exhausted_backoff_returns_zero(self, tables):
        det = self.alphabet.get("DET")
        # level 0 always has suffix support; the bit tuple decides
        assert backoff_level(tables, "B-2") == 0
        assert feature_column(tables, "B-2", 1)[det] == 0.0

    def test_level_is_word_property_shared_by_labels(self, tables):
        level = backoff_level(tables, "Vannes")
        for label in range(len(self.alphabet)):
            # every label scores the same level: probabilities come from
            # the same table even when the entry is absent (0.0)
            p = feature_column(tables, "Vannes", 1)[label]
            key_level = level
            f = extract_features("Vannes", 1, key_level)
            row = tuple_rows(tables, key_level).get(
                (f.cap, f.hyphen, f.first, f.digit, f.suffix))
            expect = 0.0 if row is None else tables.tables[key_level][row, label]
            assert p == expect

    def test_suffix_max_len_zero_ignores_suffix(self):
        corpus = corpus_from([("alpha", "X"), ("beta", "X")])
        alphabet = Interner(corpus.tags)
        tables = fit_feature_tables(corpus, alphabet, 0)
        x = alphabet.get("X")
        assert feature_column(tables, "gamma", 1)[x] == \
            feature_column(tables, "different", 1)[x] == 0.5


@pytest.mark.parametrize("route", ["fit", "derive"])
def test_unknown_word_column_matches_brute_force(rng, route):
    corpus = varied_corpus(rng, n_sentences=90)
    counts, alphabet, vocab = accumulate_counts(corpus)
    if route == "fit":
        tables = fit_feature_tables(corpus, alphabet, 3)
    else:
        tables = derive_feature_tables(counts, vocab, 3)
    ref_tuples, ref_totals = brute_force_feature_tables(corpus, 3)
    words = ["Zohn", "re-house", "A12", "qq", "xylophone", "Blue-12"]
    seen_levels = set()
    for word in words:
        assert word not in vocab
        for pos in (0, 3):
            m = backoff_level(tables, word)
            seen_levels.add(m)
            col = feature_column(tables, word, pos)
            assert col.shape == (len(alphabet),)
            cap = 1 if word[0].isupper() else 0
            hyp = 1 if "-" in word else 0
            dig = 1 if any(c.isdecimal() for c in word) else 0
            sfx = word[len(word) - min(m, len(word)):]
            for label, i in alphabet.index.items():
                key = (label, cap, hyp, 1 if pos == 0 else 0, dig, sfx)
                assert col[i] == ref_tuples[m].get(key, 0) / ref_totals[label]
    assert len(seen_levels) > 1


def test_backoff_monotone_largest_supported_level(rng):
    corpus = varied_corpus(rng)
    tables = fit_feature_tables(corpus, Interner(corpus.tags), 3)
    words = ["John", "likes", "xylophone", "B2B", "12", "zz", "Paris-2", "q"]
    for word in words:
        m = backoff_level(tables, word)
        assert word_suffix(word, m) in tables.suffix_ranks[m]
        for higher in range(m + 1, tables.max_len + 1):
            assert word_suffix(word, higher) not in tables.suffix_ranks[higher]


# non-ASCII capitals and decimals, a hyphen and NUL, which numpy's str
# arrays drop from the end of a string
SPELLING = "abÉΣ٣７-\x00"
WORDS = st.text(SPELLING, min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(sentences=st.lists(st.lists(st.tuples(WORDS, st.sampled_from(["X", "Y", "Z"])),
                                   min_size=1, max_size=5), min_size=1, max_size=6),
       unseen=st.lists(WORDS, min_size=1, max_size=8), suffix_max_len=st.integers(0, 4))
def test_tables_of_any_spelling_match_the_brute_force_counter(sentences, unseen,
                                                              suffix_max_len):
    corpus = LabeledCorpus(sentences)
    counts, alphabet, vocab = accumulate_counts(corpus)
    tables = derive_feature_tables(counts, vocab, suffix_max_len)
    assert tables == fit_feature_tables(corpus, alphabet, suffix_max_len)
    ref_tuples, ref_totals = brute_force_feature_tables(corpus, suffix_max_len)
    support = [{key[-1] for key in level} for level in ref_tuples]
    for m, suffixes in enumerate(support):
        assert dict(tables.suffix_ranks[m]) == {sfx: r for r, sfx in enumerate(sorted(suffixes))}
    for word in unseen:
        if word in vocab.index:
            continue
        level = max(m for m, suffixes in enumerate(support)
                    if word[len(word) - min(m, len(word)):] in suffixes)
        assert backoff_level(tables, word) == level
        cap = 1 if word[0].isupper() else 0
        hyp = 1 if "-" in word else 0
        dig = 1 if any(c.isdecimal() for c in word) else 0
        sfx = word[len(word) - min(level, len(word)):]
        for pos in (0, 1):
            key = (cap, hyp, 1 if pos == 0 else 0, dig, sfx)
            assert feature_column(tables, word, pos).tolist() == [
                ref_tuples[level].get((label, *key), 0) / ref_totals[label]
                for label in alphabet.items]
