import random

import numpy as np
import pytest

from pmctag.errors import EmptySupport
from pmctag.model import Interner, normalize_counts
from pmctag.training import TrainConfig, accumulate_counts, fit_pmc, train_model

from conftest import corpus_from, random_corpus


class TestInterner:
    def test_ids_are_contiguous_and_stable(self):
        it = Interner()
        assert it.intern("b") == 0
        assert it.intern("a") == 1
        assert it.intern("b") == 0
        assert it.items == ["b", "a"]
        assert it.index == {"b": 0, "a": 1}

    def test_bijection(self):
        it = Interner(["x", "y", "z"])
        for i, s in enumerate(it.items):
            assert it.get(s) == i
            assert it[i] == s
        assert len(it) == 3
        assert "x" in it and "q" not in it

    def test_copy_is_independent(self):
        it = Interner(["x"])
        cp = it.copy()
        cp.intern("y")
        assert len(it) == 1 and len(cp) == 2


class TestNormalizeCounts:
    def test_direct_frequency(self):
        assert normalize_counts({"a": 1, "b": 3}) == {"a": 0.25, "b": 0.75}

    def test_single_support(self):
        assert normalize_counts({"a": 5}) == {"a": 1.0}

    def test_empty_input(self):
        with pytest.raises(EmptySupport):
            normalize_counts({})

    def test_all_zero_input(self):
        with pytest.raises(EmptySupport):
            normalize_counts({"a": 0, "b": 0})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_counts({"a": -1, "b": 2})

    def test_output_sums_to_one(self, rng):
        for _ in range(50):
            counts = {i: rng.randint(0, 9) for i in range(rng.randint(1, 8))}
            if sum(counts.values()) == 0:
                counts[0] = 1
            assert abs(sum(normalize_counts(counts).values()) - 1.0) < 1e-12


class TestCountTables:
    def test_marginals_by_exhaustive_summation(self, rng):
        corpus = random_corpus(rng, n_sentences=80)
        counts, _, _ = accumulate_counts(corpus)
        counts.validate()
        # recompute every marginal independently of from_raw
        m_ik = np.zeros_like(counts.m_ik)
        n_ij = np.zeros_like(counts.n_ij)
        for (i, k, j, l), c in counts.n_ikjl.items():
            m_ik[i, k] += c
            n_ij[i, j] += c
        assert np.array_equal(m_ik, counts.m_ik)
        assert np.array_equal(n_ij, counts.n_ij)
        assert np.array_equal(n_ij.sum(axis=1), counts.n_i)
        assert counts.n0_i.sum() == counts.L == len(corpus.sentences)

    def test_model_invariants_on_trained_model(self, rng):
        corpus = random_corpus(rng, n_sentences=60)
        model = train_model(corpus, TrainConfig(task="pos"))
        model.validate()

    def test_single_chain_counts(self):
        corpus = corpus_from([("w1", "A"), ("w2", "B"), ("w1", "A")])
        counts, alphabet, vocab = accumulate_counts(corpus)
        a, b = alphabet.get("A"), alphabet.get("B")
        w1, w2 = vocab.get("w1"), vocab.get("w2")
        assert counts.n_ikjl == {(a, w1, b, w2): 1, (b, w2, a, w1): 1}
        assert counts.n0_i[a] == 1 and counts.L == 1
        assert counts.n0_ik == {(a, w1): 1}


def _stochastic_rows_hold(model):
    model.hmc.validate()
    fit_pmc(model.counts).validate()
    model.features.validate()


def test_row_stochasticity_everywhere(rng):
    for seed in range(5):
        corpus = random_corpus(random.Random(seed), n_sentences=40)
        _stochastic_rows_hold(train_model(corpus, TrainConfig(task="pos")))
