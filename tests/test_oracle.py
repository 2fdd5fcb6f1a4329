import random

import numpy as np
import pytest

from pmctag.errors import DeadEnd
from pmctag.inference import map_path, posterior_marginals, resolve_factors
from pmctag.oracle import (TinyInstance, embed_hmc_as_pmc, enumerate_map,
                           enumerate_posteriors, random_hmc)
from pmctag.training import TrainConfig, train_model

from conftest import hmc_bundle, random_corpus


@pytest.fixture
def nprng():
    return np.random.default_rng(4242)


def deterministic_instance():
    """N=2, M=2 chain where the observation forces a unique label path."""
    pi2 = np.array([[1.0, 0.0], [0.0, 0.0]])        # start: label 0, word 0
    trans2 = np.zeros((2, 2, 2))
    trans2[0, 0] = [0.0, 1.0]   # after (0, w0) always label 1
    trans2[0, 1] = [1.0, 0.0]
    trans2[1, 0] = [1.0, 0.0]   # after (1, w0) always label 0
    trans2[1, 1] = [1.0, 0.0]
    emit2 = np.zeros((2, 2, 2, 2))
    emit2[..., 0] = 1.0         # always emit word 0
    return TinyInstance(pi2=pi2, trans2=trans2, emit2=emit2, obs=[0, 0, 0])


class TestEnumeratePosteriors:
    def test_t1_is_normalized_initial_factor(self):
        pi2 = np.array([[0.1, 0.2], [0.3, 0.4]])
        inst = TinyInstance(pi2=pi2, trans2=np.full((2, 2, 2), 0.5),
                            emit2=np.full((2, 2, 2, 2), 0.5), obs=[1])
        post = enumerate_posteriors(inst)
        assert post.shape == (1, 2)
        np.testing.assert_allclose(post[0], [0.2 / 0.6, 0.4 / 0.6])

    def test_deterministic_instance_is_one_hot(self):
        post = enumerate_posteriors(deterministic_instance())
        np.testing.assert_array_equal(post, [[1, 0], [0, 1], [1, 0]])

    def test_rows_sum_to_one(self, nprng):
        for _ in range(25):
            inst = TinyInstance.random(nprng)
            post = enumerate_posteriors(inst)
            np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_probability_observation(self):
        inst = deterministic_instance()
        inst.pi2 = np.array([[0.0, 1.0], [0.0, 0.0]])  # word 0 now impossible
        with pytest.raises(DeadEnd):
            enumerate_posteriors(inst)


class TestEnumerateMap:
    def test_deterministic_unique_path(self):
        path, score = enumerate_map(deterministic_instance())
        assert list(path) == [0, 1, 0]
        assert score == pytest.approx(0.0)  # probability 1 path

    def test_t1_argmax_of_initial(self):
        pi2 = np.array([[0.1, 0.2], [0.3, 0.4]])
        inst = TinyInstance(pi2=pi2, trans2=np.full((2, 2, 2), 0.5),
                            emit2=np.full((2, 2, 2, 2), 0.5), obs=[0])
        path, score = enumerate_map(inst)
        assert list(path) == [1]
        assert score == pytest.approx(np.log(0.3))

    def test_argmax_dominates_samples(self, nprng):
        for _ in range(10):
            inst = TinyInstance.random(nprng)
            seqs, scores = inst.sequence_scores()
            _, best = enumerate_map(inst)
            assert np.log(scores.max()) == pytest.approx(best)
            assert all(np.log(s) <= best + 1e-12 for s in scores if s > 0)

    def test_tie_breaks_lexicographically(self):
        # uniform everything: every sequence scores the same
        inst = TinyInstance(pi2=np.full((2, 2), 0.25),
                            trans2=np.full((2, 2, 2), 0.5),
                            emit2=np.full((2, 2, 2, 2), 0.5),
                            obs=[0, 1, 0])
        path, _ = enumerate_map(inst)
        assert list(path) == [0, 0, 0]


class TestEmbedding:
    def test_embedded_tables_normalized(self, nprng):
        for _ in range(20):
            pmc = embed_hmc_as_pmc(random_hmc(nprng))
            pmc.validate(tol=1e-12)

    def test_embedding_values(self, nprng):
        hmc = random_hmc(nprng, n_max=3, m_max=4)
        n = hmc.n_labels
        m = hmc.emit.shape[1]
        pmc = embed_hmc_as_pmc(hmc)
        for i in range(n):
            for k in range(m):
                assert pmc.pi2[i, k] == hmc.pi[i] * hmc.emit[i, k]
                np.testing.assert_array_equal(pmc.trans2[i, k], hmc.trans[i])
                for j in range(n):
                    for l in range(m):
                        assert pmc.emit2[i, k, j, l] == hmc.emit[j, l]

    def test_pmc_inference_on_embedding_equals_hmc(self, nprng):
        for _ in range(30):
            hmc = random_hmc(nprng)
            m = hmc.emit.shape[1]
            obs = [int(nprng.integers(0, m)) for _ in range(int(nprng.integers(1, 8)))]
            model, words = hmc_bundle(hmc), [f"w{k}" for k in obs]
            pmc = embed_hmc_as_pmc(hmc)
            f_pmc = pmc.factors(obs)
            f_hmc = resolve_factors(model, words, mode="hmc")
            post_pmc = posterior_marginals(f_pmc)
            post_hmc = posterior_marginals(f_hmc)
            assert np.max(np.abs(post_pmc - post_hmc)) < 1e-12
            path_pmc, score_pmc = map_path(pmc.factors(obs, decoder="map"))
            path_hmc, score_hmc = map_path(resolve_factors(model, words, mode="hmc",
                                                           decoder="map"))
            assert np.array_equal(path_pmc, path_hmc)
            assert score_pmc == score_hmc

    def test_embedding_of_sparse_trained_hmc_equals_hmc_mode(self):
        """Count-trained HMCs have zero entries, and their sentences dead
        ends, which random_hmc's never have: each sentence dies at the same
        position as its embedding, for either decoder, or decodes alike."""

        def outcome(decode, factors):
            try:
                return decode(factors)
            except DeadEnd as err:
                return err.position

        dead = alive = 0
        for seed in range(40):
            rng = random.Random(seed)
            corpus = random_corpus(rng, n_sentences=4, n_words=8, n_labels=4, max_len=4)
            model = train_model(corpus, TrainConfig())
            pmc, vocabulary = embed_hmc_as_pmc(model.hmc), model.vocabulary
            for _ in range(20):
                obs = [rng.randrange(len(vocabulary)) for _ in range(rng.randint(1, 6))]
                words = [vocabulary[k] for k in obs]
                post_pmc = outcome(posterior_marginals, pmc.factors(obs))
                post_hmc = outcome(posterior_marginals, resolve_factors(model, words, "hmc"))
                best_pmc = outcome(map_path, pmc.factors(obs, decoder="map"))
                best_hmc = outcome(map_path, resolve_factors(model, words, "hmc", "map"))
                outcomes = [post_pmc, post_hmc, best_pmc, best_hmc]
                if any(isinstance(o, int) for o in outcomes):  # one dead end for all four
                    assert all(isinstance(o, int) for o in outcomes) and len(set(outcomes)) == 1
                    dead += 1
                    continue
                assert np.max(np.abs(post_pmc - post_hmc)) < 1e-12
                (path_pmc, score_pmc), (path_hmc, score_hmc) = best_pmc, best_hmc
                assert np.array_equal(path_pmc, path_hmc)
                assert score_pmc == score_hmc
                alive += 1
        assert dead and alive

    def test_deterministic_hmc_stays_deterministic(self):
        from pmctag.model import HmcParams

        hmc = HmcParams(
            pi=np.array([1.0, 0.0]),
            trans=np.array([[0.0, 1.0], [1.0, 0.0]]),
            emit=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        pmc = embed_hmc_as_pmc(hmc)
        f = pmc.factors([0, 1, 0])
        path, _ = map_path(pmc.factors([0, 1, 0], decoder="map"))
        assert list(path) == [0, 1, 0]
        np.testing.assert_array_equal(posterior_marginals(f),
                                      [[1, 0], [0, 1], [1, 0]])
