import itertools
import random

import numpy as np
import pytest

from pmctag.errors import DeadEnd, EmptySentence
from pmctag.inference import (HMC_STEP, PMC_STEP, FactorProvider, backward,
                              decode_map, decode_mpm, decode_sentence, forward,
                              map_path, mpm_path, posterior_marginals,
                              decode_index, resolve_factors)
from pmctag.oracle import TinyInstance, enumerate_map, enumerate_posteriors
from pmctag.training import TrainConfig, fit_pmc, train_model

from conftest import corpus_from, random_corpus, varied_corpus


@pytest.fixture
def nprng():
    return np.random.default_rng(777)


def brute_alpha(inst):
    """Normalized forward probabilities by prefix enumeration."""
    obs = inst.obs
    rows = []
    for t in range(len(obs)):
        mass = np.zeros(inst.n_labels)
        for seq in itertools.product(range(inst.n_labels), repeat=t + 1):
            score = inst.pi2[seq[0], obs[0]]
            for s in range(t):
                score *= inst.trans2[seq[s], obs[s], seq[s + 1]]
                score *= inst.emit2[seq[s], obs[s], seq[s + 1], obs[s + 1]]
            mass[seq[t]] += score
        rows.append(mass / mass.sum())
    return np.array(rows)


def brute_beta(inst):
    """Normalized backward probabilities by suffix enumeration."""
    obs = inst.obs
    t_len = len(obs)
    rows = []
    for t in range(t_len):
        mass = np.zeros(inst.n_labels)
        for i in range(inst.n_labels):
            total = 0.0
            for seq in itertools.product(range(inst.n_labels), repeat=t_len - 1 - t):
                full = (i,) + seq
                score = 1.0
                for s in range(len(seq)):
                    score *= inst.trans2[full[s], obs[t + s], full[s + 1]]
                    score *= inst.emit2[full[s], obs[t + s], full[s + 1], obs[t + s + 1]]
                total += score
            mass[i] = total
        rows.append(mass / mass.sum())
    return np.array(rows)


def library_factors(inst):
    return inst.factors()


def fig3_model():
    """Corpus whose test sentence reproduces the mixed-support picture:
    bigrams (w2, w3) and (w5, w6) never occur adjacently in training."""
    corpus = corpus_from(
        [("w1", "A"), ("w2", "B")],
        [("w3", "A"), ("w4", "B"), ("w5", "A")],
        [("w6", "A")],
    )
    return train_model(corpus, TrainConfig(task="pos"))


def shape_model():
    """Lowercase -ing corpus so suffix-alike novel words stay decodable."""
    corpus = corpus_from(
        [("running", "A"), ("jumping", "B"), ("running", "A")],
        [("jumping", "B"), ("running", "A")],
        [("running", "A"), ("running", "A"), ("jumping", "B")],
    )
    return train_model(corpus, TrainConfig(task="pos"))


class TestDecodeIndex:
    @pytest.mark.parametrize("corpus", [
        varied_corpus(random.Random(11), n_sentences=120),
        random_corpus(random.Random(12), n_sentences=200),
    ], ids=["varied", "random"])
    def test_pmc_factors_match_estimator(self, corpus):
        """The decoder's count ratios are the estimator's trans2 * emit2."""
        model = train_model(corpus, TrainConfig(task="pos"))
        index = decode_index(model)
        pmc = fit_pmc(model.counts)
        expected = {}
        for (i, k, j), row in pmc.emit2.items():
            for l, p in row.items():
                if pmc.trans2[(i, k)][j] * p > 0:
                    expected[(k, l, i, j)] = pmc.trans2[(i, k)][j] * p
        got = {(k, l, i, j): p for (k, l), triples in index.pair_labels.items()
               for i, j, p in triples}
        assert got.keys() == expected.keys()
        for key, p in got.items():
            assert abs(p - expected[key]) <= 1e-15 * expected[key], key
        for (i, k), p in pmc.pi2.items():
            assert index.pi2[i, k] == p


class TestDenseLayout:
    def test_sentence_final_word_has_zero_column(self):
        # z ends the last sentence and occurs nowhere else: it starts no
        # pattern, and interned last it has the largest word id
        model = train_model(corpus_from(
            [("a", "X"), ("b", "Y")],
            [("b", "Y"), ("a", "X"), ("z", "Y")],
        ), TrainConfig(task="pos"))
        z = model.vocabulary.get("z")
        assert z == len(model.vocabulary) - 1
        shape = (len(model.alphabet), len(model.vocabulary))
        assert model.hmc.emit.shape == model.counts.m_ik.shape == shape
        assert decode_index(model).pi2.shape == shape
        assert not model.hmc.emit[:, z].any()
        for decoder in ("mpm", "map"):
            with pytest.raises(DeadEnd) as err:
                decode_sentence(model, ["a", "z"], mode="hmc", decoder=decoder)
            assert err.value.position == 1
            result = decode_sentence(model, ["a", "z"], mode="pmc", decoder=decoder)
            assert result.flags == [PMC_STEP, PMC_STEP]
            assert result.labels == ["X", "Y"]


class TestResolveFactors:
    def test_training_sentence_is_all_pmc(self):
        model = fig3_model()
        factors = resolve_factors(model, ["w3", "w4", "w5"], mode="pmc")
        assert factors.flags == [PMC_STEP, PMC_STEP, PMC_STEP]

    def test_novel_words_fully_downgraded(self):
        model = shape_model()
        factors = resolve_factors(model, ["ping", "zing"], mode="pmc")
        assert factors.flags == [HMC_STEP, HMC_STEP]
        assert factors.downgraded == 2

    def test_fig3_pattern(self):
        model = fig3_model()
        factors = resolve_factors(model, ["w1", "w2", "w3", "w4", "w5", "w6"])
        assert factors.flags == [PMC_STEP, PMC_STEP, HMC_STEP,
                                 PMC_STEP, PMC_STEP, HMC_STEP]

    def test_initial_downgrade_for_non_initial_known_word(self):
        model = fig3_model()
        # w2 is known but never chain-initial in training
        factors = resolve_factors(model, ["w2", "w3"])
        assert factors.flags[0] == HMC_STEP

    def test_hmc_mode_uses_no_pairwise_tables(self):
        model = fig3_model()
        factors = resolve_factors(model, ["w1", "w2"], mode="hmc")
        assert factors.downgraded == 0
        col = model.hmc.emit[:, model.vocabulary.get("w2")]
        np.testing.assert_array_equal(factors.steps[0], model.hmc.trans * col)

    def test_annihilating_pmc_step_downgraded(self):
        # (a, b) and (b, c) are both supported but disagree on b's label
        # (Y vs Z), so keeping both PMC steps would strand the forward pass
        model = train_model(corpus_from(
            [("a", "X"), ("b", "Y")],
            [("b", "Z"), ("c", "W"), ("g", "W")],
            [("d", "Y"), ("e", "W")],
        ), TrainConfig(task="pos"))
        sentence = ["a", "b", "c"]
        factors = resolve_factors(model, sentence)
        assert factors.flags == [PMC_STEP, PMC_STEP, HMC_STEP]
        assert decode_mpm(model, sentence) == ["X", "Y", "W"]
        assert decode_map(model, sentence) == ["X", "Y", "W"]

    def test_empty_sentence(self):
        with pytest.raises(EmptySentence):
            resolve_factors(fig3_model(), [])


class TestForward:
    def test_t1_base_case(self):
        factors = FactorProvider(initial=np.array([0.2, 0.6]), steps=[],
                                 flags=[PMC_STEP])
        alpha, scales = forward(factors)
        np.testing.assert_allclose(alpha, [[0.25, 0.75]])
        assert scales[0] == pytest.approx(0.8)

    def test_matches_prefix_enumeration(self, nprng):
        for _ in range(40):
            inst = TinyInstance.random(nprng, t_max=6)
            alpha, _ = forward(library_factors(inst))
            assert np.max(np.abs(alpha - brute_alpha(inst))) < 1e-9

    def test_rows_sum_to_one_and_scales_positive(self, nprng):
        inst = TinyInstance.random(nprng)
        alpha, scales = forward(library_factors(inst))
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(scales > 0)

    def test_unnormalized_recoverable_from_scales(self, nprng):
        inst = TinyInstance.random(nprng, t_max=5)
        factors = library_factors(inst)
        alpha, scales = forward(factors)
        raw = factors.initial.copy()
        for t in range(factors.length):
            if t:
                raw = raw @ factors.steps[t - 1]
            np.testing.assert_allclose(alpha[t] * np.prod(scales[:t + 1]), raw,
                                       rtol=1e-12, atol=0)

    def test_dead_step_identified(self):
        factors = FactorProvider(initial=np.array([0.5, 0.5]),
                                 steps=[np.ones((2, 2)), np.zeros((2, 2))],
                                 flags=[PMC_STEP] * 3)
        with pytest.raises(DeadEnd) as err:
            forward(factors)
        assert err.value.position == 2


class TestBackward:
    def test_t1_uniform(self):
        factors = FactorProvider(initial=np.array([0.2, 0.6]), steps=[],
                                 flags=[PMC_STEP])
        beta, _ = backward(factors)
        np.testing.assert_allclose(beta, [[0.5, 0.5]])

    def test_last_row_uniform(self, nprng):
        inst = TinyInstance.random(nprng)
        beta, _ = backward(library_factors(inst))
        np.testing.assert_allclose(beta[-1], 1.0 / inst.n_labels)

    def test_matches_suffix_enumeration(self, nprng):
        for _ in range(40):
            inst = TinyInstance.random(nprng, t_max=6)
            beta, _ = backward(library_factors(inst))
            assert np.max(np.abs(beta - brute_beta(inst))) < 1e-9

    def test_likelihood_identity(self, nprng):
        # sum_i alpha_t(i) beta_t(i), unnormalized, is p(y) for every t
        inst = TinyInstance.random(nprng, t_max=7)
        factors = library_factors(inst)
        alpha, a_scales = forward(factors)
        beta, b_scales = backward(factors)
        values = []
        for t in range(factors.length):
            raw_a = alpha[t] * np.prod(a_scales[:t + 1])
            raw_b = beta[t] * np.prod(b_scales[t:])
            values.append(float(raw_a @ raw_b))
        np.testing.assert_allclose(values, values[0], rtol=1e-9)


class TestPosteriors:
    def test_deterministic_one_hot(self):
        init = np.array([1.0, 0.0])
        step = np.array([[0.0, 1.0], [0.0, 0.0]])
        factors = FactorProvider(initial=init, steps=[step, step.T],
                                 flags=[PMC_STEP] * 3)
        post = posterior_marginals(factors)
        np.testing.assert_array_equal(post, [[1, 0], [0, 1], [1, 0]])

    def test_matches_enumeration(self, nprng):
        for _ in range(60):
            inst = TinyInstance.random(nprng)
            post = posterior_marginals(library_factors(inst))
            ref = enumerate_posteriors(inst)
            assert np.max(np.abs(post - ref)) < 1e-9

    def test_uniform_factors_give_uniform_rows(self):
        n = 3
        factors = FactorProvider(initial=np.full(n, 1.0 / n),
                                 steps=[np.full((n, n), 1.0 / n)] * 4,
                                 flags=[PMC_STEP] * 5)
        post = posterior_marginals(factors)
        np.testing.assert_allclose(post, 1.0 / n)

    def test_rows_sum_to_one(self, nprng):
        inst = TinyInstance.random(nprng)
        post = posterior_marginals(library_factors(inst))
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_sparse_instances_agree_or_both_dead(self, nprng):
        live = dead = 0
        for _ in range(80):
            inst = TinyInstance.random_sparse(nprng)
            try:
                ref = enumerate_posteriors(inst)
            except DeadEnd:
                dead += 1
                with pytest.raises(DeadEnd):
                    posterior_marginals(library_factors(inst))
                continue
            live += 1
            post = posterior_marginals(library_factors(inst))
            assert np.max(np.abs(post - ref)) < 1e-9
        assert live and dead  # both branches exercised


class TestDecodeMpm:
    def test_one_hot_posterior_path(self):
        init = np.array([1.0, 0.0])
        step = np.array([[0.0, 1.0], [0.0, 0.0]])
        factors = FactorProvider(initial=init, steps=[step], flags=[PMC_STEP] * 2)
        assert list(mpm_path(factors)) == [0, 1]

    def test_matches_enumerated_argmax(self, nprng):
        for _ in range(40):
            inst = TinyInstance.random(nprng)
            ids = mpm_path(library_factors(inst))
            ref = enumerate_posteriors(inst).argmax(axis=1)
            assert np.array_equal(ids, ref)

    def test_tie_breaks_to_lowest_id(self):
        n = 3
        factors = FactorProvider(initial=np.full(n, 1.0 / n),
                                 steps=[np.full((n, n), 1.0 / n)] * 3,
                                 flags=[PMC_STEP] * 4)
        assert list(mpm_path(factors)) == [0, 0, 0, 0]


class TestDecodeMap:
    def test_deterministic_chain(self):
        init = np.array([1.0, 0.0])
        step = np.array([[0.0, 1.0], [0.0, 0.0]])
        factors = FactorProvider(initial=init, steps=[step], flags=[PMC_STEP] * 2)
        path, score = map_path(factors)
        assert list(path) == [0, 1]
        assert score == pytest.approx(0.0)

    def test_score_matches_enumeration_and_path_attains_it(self, nprng):
        for _ in range(40):
            inst = TinyInstance.random(nprng)
            factors = library_factors(inst)
            path, score = map_path(factors)
            _, ref_score = enumerate_map(inst)
            assert score == pytest.approx(ref_score, abs=1e-9)
            # the returned path attains the claimed score
            attained = np.log(inst.pi2[path[0], inst.obs[0]])
            for t in range(len(inst.obs) - 1):
                attained += np.log(inst.trans2[path[t], inst.obs[t], path[t + 1]])
                attained += np.log(
                    inst.emit2[path[t], inst.obs[t], path[t + 1], inst.obs[t + 1]])
            assert attained == pytest.approx(score, abs=1e-9)

    def test_path_equals_enumeration_path(self, nprng):
        # same lexicographic-smallest convention on both sides
        for _ in range(25):
            inst = TinyInstance.random(nprng, t_max=5)
            path, _ = map_path(library_factors(inst))
            ref_path, _ = enumerate_map(inst)
            assert np.array_equal(path, ref_path)

    def test_tie_breaks_lexicographically(self):
        n = 2
        factors = FactorProvider(initial=np.full(n, 0.5),
                                 steps=[np.full((n, n), 0.25)] * 2,
                                 flags=[PMC_STEP] * 3)
        path, _ = map_path(factors)
        assert list(path) == [0, 0, 0]

    def test_dead_end_position(self):
        factors = FactorProvider(initial=np.array([0.5, 0.5]),
                                 steps=[np.zeros((2, 2))],
                                 flags=[PMC_STEP] * 2)
        with pytest.raises(DeadEnd) as err:
            map_path(factors)
        assert err.value.position == 1


class TestModelLevelDecoding:
    def test_full_downgrade_equals_hmc_mode(self):
        model = shape_model()
        sentence = ["ping", "zing", "qing"]
        pmc_out = decode_mpm(model, sentence, mode="pmc")
        hmc_out = decode_mpm(model, sentence, mode="hmc")
        assert pmc_out == hmc_out
        assert decode_map(model, sentence, mode="pmc") == \
            decode_map(model, sentence, mode="hmc")
        result = decode_sentence(model, sentence, mode="pmc")
        assert result.downgraded == result.resolutions == 3

    def test_decoding_training_sentence_recovers_labels(self):
        model = fig3_model()
        assert decode_mpm(model, ["w3", "w4", "w5"]) == ["A", "B", "A"]
        assert decode_map(model, ["w3", "w4", "w5"]) == ["A", "B", "A"]

    def test_dead_end_carries_position(self):
        model = shape_model()
        # "Q#7" matches no feature tuple at any level: zero emission column
        with pytest.raises(DeadEnd) as err:
            decode_mpm(model, ["running", "Q#7"])
        assert err.value.position == 1

    def test_unknown_only_sentence_decodes_via_features(self):
        model = shape_model()
        labels = decode_mpm(model, ["ping"])
        assert labels[0] in ("A", "B")


class TestNormalizationInvariance:
    def unscaled_posteriors(self, factors):
        t_len, n = factors.length, factors.n_labels
        alpha = np.zeros((t_len, n))
        beta = np.zeros((t_len, n))
        alpha[0] = factors.initial
        for t, step in enumerate(factors.steps):
            alpha[t + 1] = alpha[t] @ step
        beta[t_len - 1] = 1.0
        for t in range(t_len - 2, -1, -1):
            beta[t] = factors.steps[t] @ beta[t + 1]
        prod = alpha * beta
        return prod / prod.sum(axis=1, keepdims=True)

    def test_scaled_equals_unscaled_up_to_t15(self, nprng):
        for t_len in (1, 2, 5, 9, 15):
            inst = TinyInstance.random(nprng, t_max=1)
            inst.obs = [int(nprng.integers(0, inst.n_words)) for _ in range(t_len)]
            factors = library_factors(inst)
            scaled = posterior_marginals(factors)
            unscaled = self.unscaled_posteriors(factors)
            assert np.max(np.abs(scaled - unscaled)) < 1e-9
            assert np.array_equal(mpm_path(factors),
                                  unscaled.argmax(axis=1))
