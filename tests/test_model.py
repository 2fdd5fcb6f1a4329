import dataclasses
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmctag.conll import read_conll
from pmctag.errors import DeadEnd, EmptySupport
from pmctag.inference import HMC_STEP, PMC_STEP, DecodeIndex, decode_sentence
from pmctag.model import CountTables, Interner, ModelBundle
from pmctag.oracle import fit_pmc, normalize_counts
from pmctag.serialize import load_model, save_model
from pmctag.training import TrainConfig, accumulate_counts, train_model, update_online

from conftest import corpus_from, random_corpus
from load_reference import key_rows, table_from_rows

TRAIN = os.path.join(os.path.dirname(__file__), "data", "train_chunk.conll")


class TestInterner:
    def test_ids_are_contiguous_and_stable(self):
        it = Interner(["b", "a", "b"])
        assert it.items == ("b", "a")
        assert it.index == {"b": 0, "a": 1}

    def test_bijection(self):
        it = Interner(["x", "y", "z"])
        for i, s in enumerate(it.items):
            assert it.get(s) == i
            assert it[i] == s
        assert len(it) == 3
        assert "x" in it and "q" not in it

    @given(st.lists(st.text("abcde", max_size=2), max_size=8),
           st.lists(st.text("abcdefg", max_size=2), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_extended_numbers_unseen_tokens_in_first_occurrence_order(self, old, tokens):
        it = Interner(old)
        before = (it.items, dict(it.index))
        seen = dict(it.index)
        ids = [seen.setdefault(t, len(seen)) for t in tokens]  # one token at a time
        new, got = it.extended(tokens)
        assert got.dtype == np.int64 and got.tolist() == ids
        assert new == Interner(it.items + tuple(tokens))
        assert new.items == tuple(seen) and new.index == seen
        assert (it.items, dict(it.index)) == before


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
        # recompute every marginal independently of CountTables
        n, v = counts.n_labels, counts.n_words
        m_ik = np.zeros((n, v), dtype=np.int64)
        n_ij = np.zeros_like(counts.n_ij)
        for (i, k, j, l), c in zip(key_rows(counts.n_ikjl, n, v).tolist(),
                                   counts.n_ikjl.counts.tolist()):
            m_ik[i, k] += c
            n_ij[i, j] += c
        starts, runs = counts.m_ik_runs()
        from_runs = np.zeros((n, v), dtype=np.int64)
        from_runs[tuple(column[starts] for column in counts.n_ikjl.columns[:2])] = runs
        assert np.array_equal(m_ik, from_runs)
        assert np.array_equal(n_ij, counts.n_ij)
        assert np.array_equal(n_ij.sum(axis=1), counts.n_i)
        assert counts.n0_i.sum() == counts.L == len(corpus.sentences)

    def test_marginals_are_derived_not_passed(self, rng):
        counts, alphabet, vocabulary = accumulate_counts(random_corpus(rng, n_sentences=30))
        built = CountTables(len(alphabet), len(vocabulary), counts.n0_ik, counts.n_ikjl)
        assert built == counts and built.L == counts.L
        for name in ("n0_i", "n_ij", "n_i"):
            assert np.array_equal(getattr(built, name), getattr(counts, name))
        with pytest.raises(TypeError):
            CountTables(len(alphabet), len(vocabulary), counts.n0_ik, counts.n_ikjl, L=1)
        for f in dataclasses.fields(CountTables):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, f.name, getattr(built, f.name))

    def test_validate_refuses_unsorted_keys_and_zero_counts(self):
        def table(keys, counts):
            return table_from_rows(keys, counts, 1, 2)

        n0_ik = table([[0, 0]], [1])
        CountTables(1, 2, n0_ik, table([[0, 0, 0, 1], [0, 1, 0, 0]], [2, 1])).validate()
        for bad in (table([[0, 1, 0, 0], [0, 0, 0, 1]], [2, 1]),
                    table([[0, 0, 0, 1], [0, 0, 0, 1]], [2, 1]),
                    table([[0, 0, 0, 1], [0, 1, 0, 0]], [2, 0])):
            with pytest.raises(AssertionError):
                CountTables(1, 2, n0_ik, bad).validate()

    def test_model_invariants_on_trained_model(self, rng):
        corpus = random_corpus(rng, n_sentences=60)
        model = train_model(corpus, TrainConfig(task="pos"))
        model.validate()

    def test_single_chain_counts(self):
        corpus = corpus_from([("w1", "A"), ("w2", "B"), ("w1", "A")])
        counts, alphabet, vocab = accumulate_counts(corpus)
        a, b = alphabet.get("A"), alphabet.get("B")
        w1, w2 = vocab.get("w1"), vocab.get("w2")
        assert key_rows(counts.n_ikjl, 2, 2).tolist() == sorted([[a, w1, b, w2], [b, w2, a, w1]])
        assert counts.n_ikjl.counts.tolist() == [1, 1]
        assert counts.n0_i[a] == 1 and counts.L == 1
        assert key_rows(counts.n0_ik, 2, 2).tolist() == [[a, w1]]
        assert counts.n0_ik.counts.tolist() == [1]


class TestModelBundle:
    @pytest.fixture
    def bundles(self, rng, tmp_path):
        trained = train_model(random_corpus(rng, n_sentences=40), TrainConfig(task="pos"))
        updated = update_online(trained, random_corpus(rng, n_sentences=10, n_words=10))
        save_model(updated, tmp_path / "m.pmc")
        return [trained, updated, load_model(tmp_path / "m.pmc")]

    def test_no_field_can_be_reassigned(self, bundles):
        for model in bundles:
            for f in dataclasses.fields(ModelBundle):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(model, f.name, getattr(model, f.name))

    def test_derived_arrays_are_read_only(self, bundles):
        for model in bundles:
            hmc = model.hmc
            counts = model.counts
            arrays = [hmc.pi, hmc.trans, hmc.trans_support, hmc.emit,
                      *model.features.tables, *model.features.codes,
                      counts.n0_i, counts.n_ij, counts.n_i,
                      *counts.n0_ik.columns, counts.n0_ik.counts,
                      *counts.n_ikjl.columns, counts.n_ikjl.counts]
            for array in arrays:
                with pytest.raises(ValueError):
                    array.flat[0] = array.flat[0]

    def test_nested_state_refuses_writes(self, bundles):
        for model in bundles:
            with pytest.raises(dataclasses.FrozenInstanceError):
                model.hmc.emit = np.ones_like(model.hmc.emit)
            with pytest.raises(dataclasses.FrozenInstanceError):
                model.counts.L = 0
            features = model.features
            with pytest.raises(dataclasses.FrozenInstanceError):
                features.tables = features.tables
            for m in range(features.max_len + 1):
                with pytest.raises(TypeError):
                    features.suffix_ranks[m][next(iter(features.suffix_ranks[m]))] = 0
                with pytest.raises(AttributeError):
                    features.suffix_ranks[m].setdefault("zz", 0)
            with pytest.raises(TypeError):
                features.suffix_ranks[0] = {}
            for interner in (model.alphabet, model.vocabulary):
                assert type(interner.items) is tuple
                with pytest.raises(TypeError):
                    interner.index["Qqq"] = len(interner)
                for f in dataclasses.fields(Interner):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(interner, f.name, getattr(interner, f.name))
                public = {name for name in dir(interner) if not name.startswith("_")}
                assert public == {"items", "index", "extended", "get"}

    def test_decode_index_refuses_writes(self, tmp_path):
        """Zeroed ratios would silently turn every PMC step into a downgrade."""
        with open(TRAIN, encoding="utf-8") as fh:
            trained = train_model(read_conll(fh, 0, 1), TrainConfig(task="pos"))
        updated = update_online(trained, corpus_from([("The", "DT"), ("cat", "NN")]))
        save_model(updated, tmp_path / "m.pmc")
        for model in (trained, updated, load_model(tmp_path / "m.pmc")):
            index = model.index
            with pytest.raises(dataclasses.FrozenInstanceError):
                model.index.ratios = np.zeros_like(model.index.ratios)
            for f in dataclasses.fields(DecodeIndex):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(index, f.name, getattr(index, f.name))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(index, f.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                index.extra = None
            for name in ("codes", "offsets", "flat", "ratios", "log_trans_t"):
                array = getattr(index, name)
                with pytest.raises(ValueError):
                    array.flat[0] = array.flat[0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                index.log_trans_t = np.zeros_like(index.log_trans_t)
            with pytest.raises(dataclasses.FrozenInstanceError):
                index.flat = np.zeros_like(index.flat)
            assert decode_sentence(model, ["The", "dog", "runs"]).flags == [PMC_STEP] * 3

    def test_refused_intern_leaves_unknown_words_unknown(self):
        with open(TRAIN, encoding="utf-8") as fh:
            model = train_model(read_conll(fh, 0, 1), TrainConfig(task="pos"))

        def outcome(words):
            try:
                result = decode_sentence(model, words)
            except DeadEnd as exc:
                return "dead end", exc.position
            return result.labels, result.flags

        before = [outcome(["The", word]) for word in ("Qqq", "qqq")]
        with pytest.raises(TypeError):
            model.vocabulary.index["Qqq"] = len(model.vocabulary)
        assert "Qqq" not in model.vocabulary
        # the capitalised tuple was never seen after the first word
        assert outcome(["The", "Qqq"]) == before[0] == ("dead end", 1)
        assert outcome(["The", "qqq"]) == before[1] == (["DT", "NN"], [PMC_STEP, HMC_STEP])
        # the online update builds new interners and leaves the bundle's as they are
        updated = update_online(model, corpus_from([("Qqq", "NN")]))
        assert "Qqq" in updated.vocabulary and "Qqq" not in model.vocabulary

    def test_decoding_leaves_the_index_in_place(self, bundles, rng):
        for model in bundles:
            index = model.index
            assert isinstance(index, DecodeIndex)
            for mode in ("hmc", "pmc"):
                for decoder in ("mpm", "map"):
                    for sent in random_corpus(rng, n_sentences=5, n_words=10).sentences:
                        try:
                            decode_sentence(model, [w for w, _ in sent], mode, decoder)
                        except DeadEnd:
                            pass
            assert model.index is index


def _stochastic_rows_hold(model):
    model.hmc.validate()
    fit_pmc(model.counts).validate()
    model.features.validate()


def test_row_stochasticity_everywhere(rng):
    for seed in range(5):
        corpus = random_corpus(random.Random(seed), n_sentences=40)
        _stochastic_rows_hold(train_model(corpus, TrainConfig(task="pos")))
