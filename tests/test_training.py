import random

import numpy as np
import pytest

from pmctag.errors import EmptyCorpus
from pmctag.conll import LabeledCorpus
from pmctag.training import (TrainConfig, accumulate_counts, fit_hmc, fit_pmc,
                             train_model, update_online)

from conftest import corpus_from, random_corpus, varied_corpus


def brute_force_tables(corpus):
    """Count every estimator input directly on string pairs.

    Entirely independent of the interned count tables: works on raw
    strings, one dictionary per quantity.
    """
    t = {"n0_i": {}, "n0_ik": {}, "quad": {}, "trip": {}, "pair_ll": {},
         "m_ik": {}, "n_i": {}, "L": len(corpus.sentences)}
    for sent in corpus.sentences:
        w0, l0 = sent[0]
        t["n0_i"][l0] = t["n0_i"].get(l0, 0) + 1
        t["n0_ik"][(l0, w0)] = t["n0_ik"].get((l0, w0), 0) + 1
        for (w1, g1), (w2, g2) in zip(sent, sent[1:]):
            for key, table in (
                ((g1, w1, g2, w2), "quad"),
                ((g1, w1, g2), "trip"),
                ((g1, g2), "pair_ll"),
                ((g1, w1), "m_ik"),
                (g1, "n_i"),
            ):
                t[table][key] = t[table].get(key, 0) + 1
    return t


class TestAccumulateCounts:
    def test_single_chain_patterns(self):
        corpus = corpus_from([("w1", "A"), ("w2", "B"), ("w1", "A")])
        counts, alphabet, vocab = accumulate_counts(corpus)
        a, b = alphabet.get("A"), alphabet.get("B")
        w1, w2 = vocab.get("w1"), vocab.get("w2")
        assert counts.n_ikjl == {(a, w1, b, w2): 1, (b, w2, a, w1): 1}
        assert list(counts.n0_i) == [1, 0]
        assert counts.L == 1

    def test_two_identical_chains_double_counts(self):
        sent = [("w1", "A"), ("w2", "B"), ("w1", "A")]
        once, _, _ = accumulate_counts(corpus_from(sent))
        twice, _, _ = accumulate_counts(corpus_from(sent, sent))
        assert twice.L == 2 * once.L
        assert twice.n_ikjl == {k: 2 * v for k, v in once.n_ikjl.items()}
        assert np.array_equal(twice.n0_i, 2 * once.n0_i)

    def test_length_one_chain_has_no_pairs(self):
        counts, alphabet, vocab = accumulate_counts(corpus_from([("w1", "A")]))
        assert counts.n_ikjl == {}
        assert counts.n0_ik == {(alphabet.get("A"), vocab.get("w1")): 1}
        assert counts.n_i.sum() == 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            accumulate_counts(LabeledCorpus(sentences=[]))


class TestFitHmc:
    def test_single_chain_forced_values(self):
        corpus = corpus_from([("w1", "A"), ("w2", "B"), ("w1", "A")])
        counts, alphabet, vocab = accumulate_counts(corpus)
        hmc = fit_hmc(counts)
        a, b = alphabet.get("A"), alphabet.get("B")
        w1, w2 = vocab.get("w1"), vocab.get("w2")
        assert hmc.pi[a] == 1.0 and hmc.pi[b] == 0.0
        assert hmc.trans[a, b] == 1.0 and hmc.trans[b, a] == 1.0
        # only non-final occurrences feed emissions: one for each of w1, w2
        expected = np.zeros((len(alphabet), len(vocab)))
        expected[a, w1] = expected[b, w2] = 1.0
        np.testing.assert_array_equal(hmc.emit, expected)

    def test_against_brute_force_counter(self, rng):
        corpus = random_corpus(rng, n_sentences=120)
        counts, alphabet, vocab = accumulate_counts(corpus)
        hmc = fit_hmc(counts)
        ref = brute_force_tables(corpus)
        for label, i in alphabet.index.items():
            assert hmc.pi[i] == ref["n0_i"].get(label, 0) / ref["L"]
            n_i = ref["n_i"].get(label, 0)
            for other, j in alphabet.index.items():
                expected = ref["pair_ll"].get((label, other), 0) / n_i if n_i else 0.0
                assert hmc.trans[i, j] == expected
            assert bool(hmc.trans_support[i]) == (n_i > 0)
        for (label, word), c in ref["m_ik"].items():
            i, k = alphabet.get(label), vocab.get(word)
            assert hmc.emit[i, k] == c / ref["n_i"][label]
        assert np.count_nonzero(hmc.emit) == len(ref["m_ik"])

    def test_uniform_corpus_gives_uniform_rows(self):
        # every (label, word) -> (label, word) pattern equally frequent
        sentences = []
        words = ["u", "v"]
        labels = ["A", "B"]
        for w1 in words:
            for g1 in labels:
                for w2 in words:
                    for g2 in labels:
                        sentences.append([(w1, g1), (w2, g2)])
        counts, alphabet, _ = accumulate_counts(LabeledCorpus(sentences))
        hmc = fit_hmc(counts)
        assert np.allclose(hmc.pi, 0.5)
        assert np.allclose(hmc.trans, 0.5)
        assert np.all(hmc.emit == 0.5)


class TestFitPmc:
    def test_single_chain_forced_values(self):
        corpus = corpus_from([("w1", "A"), ("w2", "B"), ("w1", "A")])
        counts, alphabet, vocab = accumulate_counts(corpus)
        pmc = fit_pmc(counts)
        a, b = alphabet.get("A"), alphabet.get("B")
        w1, w2 = vocab.get("w1"), vocab.get("w2")
        assert pmc.pi2 == {(a, w1): 1.0}
        assert pmc.trans2[(a, w1)][b] == 1.0
        assert pmc.emit2[(a, w1, b)] == {w2: 1.0}

    def test_unobserved_pattern_is_absent(self):
        corpus = corpus_from([("w1", "A"), ("w2", "B")])
        counts, alphabet, vocab = accumulate_counts(corpus)
        pmc = fit_pmc(counts)
        b, w2 = alphabet.get("B"), vocab.get("w2")
        assert (b, w2) not in pmc.pi2
        assert (b, w2) not in pmc.trans2

    def test_against_brute_force_counter(self, rng):
        corpus = random_corpus(rng, n_sentences=200)
        counts, alphabet, vocab = accumulate_counts(corpus)
        pmc = fit_pmc(counts)
        ref = brute_force_tables(corpus)
        assert len(pmc.pi2) == len(ref["n0_ik"])
        for (label, word), c in ref["n0_ik"].items():
            assert pmc.pi2[(alphabet.get(label), vocab.get(word))] == c / ref["L"]
        for (g1, w1, g2), c in ref["trip"].items():
            i, k, j = alphabet.get(g1), vocab.get(w1), alphabet.get(g2)
            assert pmc.trans2[(i, k)][j] == c / ref["m_ik"][(g1, w1)]
        n_quads = sum(len(v) for v in pmc.emit2.values())
        assert n_quads == len(ref["quad"])
        for (g1, w1, g2, w2), c in ref["quad"].items():
            i, k = alphabet.get(g1), vocab.get(w1)
            j, l = alphabet.get(g2), vocab.get(w2)
            assert pmc.emit2[(i, k, j)][l] == c / ref["trip"][(g1, w1, g2)]


class TestUpdateOnline:
    def test_equals_batch_refit_on_random_splits(self, rng):
        corpus = varied_corpus(rng, n_sentences=80)
        config = TrainConfig(task="chunk")
        for cut in (1, 13, 40, 79):
            d1 = LabeledCorpus(corpus.sentences[:cut])
            d2 = LabeledCorpus(corpus.sentences[cut:])
            updated = update_online(train_model(d1, config), d2)
            batch = train_model(corpus, config)
            assert updated == batch

    def test_empty_delta_rejected(self, rng):
        model = train_model(random_corpus(rng), TrainConfig(task="pos"))
        with pytest.raises(EmptyCorpus):
            update_online(model, LabeledCorpus(sentences=[]))

    def test_new_word_extends_vocabulary_stably(self, rng):
        model = train_model(random_corpus(rng), TrainConfig(task="pos"))
        old_items = list(model.vocabulary.items)
        delta = corpus_from([("zzz-new", "L0"), ("w0", "L1")])
        updated = update_online(model, delta)
        assert len(updated.vocabulary) == len(old_items) + 1
        assert updated.vocabulary.items[:len(old_items)] == old_items
        assert updated.vocabulary.get("zzz-new") == len(old_items)
        # original model untouched
        assert list(model.vocabulary.items) == old_items

    def test_serialized_bytes_match_batch(self, rng):
        from pmctag.serialize import serialize_model

        corpus = varied_corpus(rng, n_sentences=40)
        config = TrainConfig(task="ner")
        d1 = LabeledCorpus(corpus.sentences[:17])
        d2 = LabeledCorpus(corpus.sentences[17:])
        updated = update_online(train_model(d1, config), d2)
        batch = train_model(corpus, config)
        assert serialize_model(updated) == serialize_model(batch)


class TestInvariants:
    def test_no_smoothing_exact_ratios(self, rng):
        corpus = random_corpus(rng, n_sentences=30)
        counts, _, _ = accumulate_counts(corpus)
        hmc, pmc = fit_hmc(counts), fit_pmc(counts)
        for i, k in zip(*np.nonzero(hmc.emit)):
            assert hmc.emit[i, k] == counts.m_ik[i, k] / counts.n_i[i]
        for key, p in pmc.pi2.items():
            assert p == counts.n0_ik[key] / counts.L

    def test_permutation_invariance(self, rng):
        corpus = varied_corpus(rng, n_sentences=50)
        shuffled = list(corpus.sentences)
        random.Random(99).shuffle(shuffled)
        a = train_model(corpus, TrainConfig(task="pos"))
        b = train_model(LabeledCorpus(shuffled), TrainConfig(task="pos"))
        # interned ids differ with order, so compare by strings
        ref_a = brute_force_tables(corpus)
        ref_b = brute_force_tables(LabeledCorpus(shuffled))
        assert ref_a == ref_b
        pmc_a, pmc_b = fit_pmc(a.counts), fit_pmc(b.counts)
        for (label, word), c in ref_a["n0_ik"].items():
            pa = pmc_a.pi2[(a.alphabet.get(label), a.vocabulary.get(word))]
            pb = pmc_b.pi2[(b.alphabet.get(label), b.vocabulary.get(word))]
            assert pa == pb == c / ref_a["L"]
