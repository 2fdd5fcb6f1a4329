"""The decoder against the per-step reference in decode_reference.py.

The package resolves a sentence's factors for the decoder that reads
them. For MPM it runs the forward pass while it resolves them and
normalizes rows once per block; for MAP it builds only the log stack and
decides the downgrades and the dead end by one boolean pass of its exact
0/1 support. The reference keeps the separate support loop, per-step
normalization and the log of the whole float stack. Both must give the
same flags, dead ends and labels, posteriors within 1e-12 and MAP scores
within 1e-12 relative. Both take the plain argmax, so where two labels or
paths tie exactly, rounding may pick either; a label may differ only where
the reference's posteriors of the two are within 1e-12, a path only where
the reference scores it within 1e-12 of the best.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import decode_reference as ref
from conftest import corpus_from, hand_factors, random_corpus
from pmctag.errors import DeadEnd
from pmctag.features import feature_column
from pmctag.inference import (_BLOCK, HMC_STEP, PMC_STEP, DecodeIndex, backward, forward,
                              map_path, mpm_path, posterior_marginals, resolve_factors)
from pmctag.model import HmcParams
from pmctag.training import TrainConfig, train_model

# unknown words: "w9" and "x1" share the shape of the training words, so the
# feature model scores them; "zz", "Q#7" and "a-b" have tuples no training
# word has, so their feature columns are all zero
UNKNOWN = ["w9", "x1", "zz", "Q#7", "a-b"]


def decode(model, sentence, mode, decoder) -> ref.Outcome:
    """The package's outcome, in the reference's terms, from factors
    resolved for the decoder, as decode_sentence resolves them."""
    factors = resolve_factors(model, sentence, mode, decoder)
    try:
        if decoder == "mpm":
            post = posterior_marginals(factors)
            return ref.Outcome(factors.flags, ids=mpm_path(factors).tolist(), post=post)
        ids, score = map_path(factors)
        return ref.Outcome(factors.flags, ids=ids.tolist(), score=score)
    except DeadEnd as exc:
        return ref.Outcome(factors.flags, dead=exc.position)


def check(model, sentence, mode, decoder) -> ref.Outcome:
    got = decode(model, sentence, mode, decoder)
    want = ref.decode(model, sentence, mode, decoder)
    assert got.flags == want.flags
    assert got.dead == want.dead
    assert (got.ids is None) == (want.ids is None)
    if got.post is not None:
        assert np.max(np.abs(got.post - want.post)) <= 1e-12
        for t, (i, j) in enumerate(zip(got.ids, want.ids)):
            assert i == j or abs(want.post[t, i] - want.post[t, j]) <= 1e-12
    if got.score is not None:
        assert math.isclose(got.score, want.score, rel_tol=1e-12, abs_tol=0.0)
        if got.ids != want.ids:
            assert math.isclose(ref.path_score(model, sentence, mode, got.ids), want.score,
                                rel_tol=1e-12, abs_tol=0.0)
    return want


def model_and_sentences(seed, n_words, n_labels, max_len, n_test=6, test_len=10):
    rng = random.Random(seed)
    corpus = random_corpus(rng, n_sentences=rng.randint(3, 40), n_words=n_words,
                           n_labels=n_labels, max_len=max_len)
    model = train_model(corpus, TrainConfig(task="pos"))
    words = [f"w{i}" for i in range(n_words)]

    def word():
        return rng.choice(UNKNOWN if rng.random() < 0.1 else words)

    sentences = [[word() for _ in range(rng.randint(1, test_len))] for _ in range(n_test)]
    return model, sentences


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_words=st.integers(2, 8),
       n_labels=st.integers(1, 4), max_len=st.integers(1, 6))
def test_decoder_matches_the_per_step_reference(seed, n_words, n_labels, max_len):
    model, sentences = model_and_sentences(seed, n_words, n_labels, max_len)
    for sentence in sentences:
        for mode in ("pmc", "hmc"):
            for decoder in ("mpm", "map"):
                check(model, sentence, mode, decoder)


def test_sweep_covers_rescues_dead_ends_and_zero_columns():
    """Seeded draws as in the property test, counting what they exercised."""
    seen = dict.fromkeys(["rescue", "rescue dead end", "dead end", "zero column",
                          "one word", "hmc mode"], 0)
    for seed in range(150):
        model, sentences = model_and_sentences(seed, 2 + seed % 7, 1 + seed % 4, 6)
        for sentence in sentences:
            wids = np.array([model.vocabulary.index.get(w, -1) for w in sentence])
            slots = model.index.bigram_slots(wids, [0])
            for mode in ("pmc", "hmc"):
                for decoder in ("mpm", "map"):
                    want = check(model, sentence, mode, decoder)
                    rescued = any(s >= 0 and f == HMC_STEP
                                  for s, f in zip(slots[1:].tolist(), want.flags[1:]))
                    seen["rescue"] += rescued
                    seen["rescue dead end"] += rescued and want.dead is not None
                    seen["dead end"] += want.dead is not None
                    seen["one word"] += len(sentence) == 1
                    seen["hmc mode"] += mode == "hmc"
            seen["zero column"] += any(
                w not in model.vocabulary and not feature_column(model.features, w, t).any()
                for t, w in enumerate(sentence))
    assert all(seen.values()), seen


def test_annihilation_rescue_matches_the_reference():
    # (a, b) and (b, c) are both supported but disagree on b's label
    model = train_model(corpus_from([("a", "X"), ("b", "Y")],
                                    [("b", "Z"), ("c", "W"), ("g", "W")],
                                    [("d", "Y"), ("e", "W")]), TrainConfig(task="pos"))
    for decoder in ("mpm", "map"):
        want = check(model, ["a", "b", "c", "e", "qux"], "pmc", decoder)
        assert want.flags == [PMC_STEP, PMC_STEP, HMC_STEP, HMC_STEP, HMC_STEP]


@pytest.mark.parametrize("decoder", ["mpm", "map"])
@pytest.mark.parametrize("tail", [[], ["Q#7", "a", "b"]])
def test_rescues_and_dead_ends_in_later_blocks_match_the_reference(decoder, tail):
    """a b c repeated over four blocks, where (c, a) closes the cycle: every
    b -> c step is rescued, so passes restart inside later blocks, and a
    word with an all-zero column ends the sentence after the last block."""
    model = train_model(corpus_from([("a", "X"), ("b", "Y")],
                                    [("b", "Z"), ("c", "W"), ("g", "W")],
                                    [("d", "Y"), ("e", "W")], [("c", "W"), ("a", "X")]),
                        TrainConfig(task="pos"))
    repeats = _BLOCK + 2
    sentence = ["a", "b", "c"] * repeats + tail
    want = check(model, sentence, "pmc", decoder)
    assert want.flags[2:3 * repeats:3] == [HMC_STEP] * repeats
    assert want.flags[:3 * repeats].count(HMC_STEP) == repeats
    assert want.dead == (3 * repeats if tail else None)


@pytest.mark.parametrize("mode", ["pmc", "hmc"])
@pytest.mark.parametrize("decoder", ["mpm", "map"])
def test_long_sentence_matches_the_reference(mode, decoder):
    """Training sentences run together, with an unknown word every 37
    tokens: PMC steps, downgrades around the unknown words and many blocks
    of the scaled recursions."""
    rng = random.Random(5)
    corpus = random_corpus(rng, n_sentences=200, n_words=6, n_labels=3, max_len=8)
    model = train_model(corpus, TrainConfig(task="pos"))
    sentence = [w for sent in corpus.sentences for w, _ in sent][:600]
    sentence[::37] = ["w9"] * len(sentence[::37])
    assert len(sentence) >= 500 > 10 * _BLOCK
    want = check(model, sentence, mode, decoder)
    assert want.dead is None
    if mode == "pmc":
        assert want.flags.count(PMC_STEP) > 300 and HMC_STEP in want.flags


def _tiny_steps(rng, n, t_len, scale):
    steps = rng.random((t_len - 1, n, n)) * scale
    return rng.random(n), steps


def test_underflowing_blocks_match_per_step_normalization():
    """Factors of 1e-100 empty a block's rows by underflow although every
    label stays reachable; the rows are redone from normalized ones."""
    rng = np.random.default_rng(3)
    initial, steps = _tiny_steps(rng, 3, 3 * _BLOCK + 5, 1e-100)
    factors = hand_factors(initial, steps, [PMC_STEP] * (len(steps) + 1))
    assert factors.dead is None
    alpha, _ = forward(factors)
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    want_alpha, _ = ref.forward(initial, steps)
    assert np.max(np.abs(alpha - want_alpha)) <= 1e-12
    post = ref.posterior_marginals(initial, steps)
    assert np.max(np.abs(posterior_marginals(factors) - post)) <= 1e-12
    map_factors = hand_factors(initial, steps, [PMC_STEP] * (len(steps) + 1), decoder="map")
    assert map_factors.dead is None
    _, score = map_path(map_factors)
    assert math.isclose(score, ref.map_path(initial, steps)[1], rel_tol=1e-12)


@pytest.mark.parametrize("gap", [0, 2 * _BLOCK])
def test_entries_lost_inside_a_block_do_not_end_the_sentence(gap):
    """Label 1 starts at 1e-150 of label 0, and two steps of 1e-90 take its
    unnormalized entry below the smallest float inside the first block,
    although the row's mass stays far above _TINY. A later step that only
    label 1 survives then empties the row, directly or gap steps later in
    another block. Normalized at every step, label 1 keeps its mass, so
    the recursion is redone one step at a time instead of ending there,
    and the last step, which the exact support passes, is not offered to
    the rescue."""
    n_steps = 3 + gap
    steps = np.zeros((n_steps, 2, 2))
    steps[:2] = np.diag([1e-90, 1e-90])
    steps[2:-1] = np.eye(2)
    steps[-1, 1, 1] = 1.0
    initial = np.array([1.0, 1e-150])
    rescued = []
    factors = hand_factors(initial, steps, [PMC_STEP] * (n_steps + 1), rescue=rescued.append)
    assert factors.dead is None and rescued == []
    want_alpha, _ = ref.forward(initial, steps)
    assert np.max(np.abs(forward(factors)[0] - want_alpha)) <= 1e-12
    post = ref.posterior_marginals(initial, steps)
    assert np.max(np.abs(posterior_marginals(factors) - post)) <= 1e-12
    assert mpm_path(factors).tolist() == [1] * (n_steps + 1)
    path, score = map_path(hand_factors(initial, steps, [PMC_STEP] * (n_steps + 1),
                                        decoder="map"))
    want_path, want_score = ref.map_path(initial, steps)
    assert path.tolist() == want_path
    assert math.isclose(score, want_score, rel_tol=1e-12)


def test_a_step_that_strands_the_support_is_offered_to_the_rescue():
    # label 1 is the only one alive after step 0, and step 1 leaves only label 0
    steps = np.array([[[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    rescued = []
    factors = hand_factors([1.0, 0.0], steps, [PMC_STEP] * 3, rescue=rescued.append)
    assert rescued == [1] and factors.dead == 2


def _rescues(initial, pmc, hmc, kept, decoder):
    """The steps a rescue that swaps in hmc[s] for a kept step s rescues,
    in order, and the dead end, of hand factors of kept's mix of the two."""
    steps = np.where(kept[:, None, None], pmc, hmc)
    kept, rescued = kept.copy(), []

    def rescue(s):
        if not kept[s]:
            return False
        steps[s] = hmc[s]
        kept[s] = False
        rescued.append(s)
        return True

    factors = hand_factors(initial, steps, [PMC_STEP] * (len(steps) + 1), rescue, decoder)
    return rescued, factors.dead


def test_both_decoders_rescue_the_same_steps():
    """FactorProvider's forward pass and LogFactors' support pass take the
    one rescue contract of resolve_factors: over random sparse stacks with
    a kept mask, they rescue the same steps in the same order and report
    the same dead end, also for an empty initial factor (whose step 0 is
    offered) and for rescues in blocks after the first."""
    rng = np.random.default_rng(31)
    seen = dict.fromkeys(["empty initial rescue", "later block rescue", "dead end",
                          "no dead end"], 0)
    for _ in range(300):
        n, n_steps = int(rng.integers(1, 5)), int(rng.integers(0, 3 * _BLOCK + 4))
        initial = rng.random(n) * (rng.random(n) < 0.8)
        pmc = rng.random((n_steps, n, n)) * (rng.random((n_steps, n, n)) < 0.35)
        hmc = rng.random((n_steps, n, n)) * (rng.random((n_steps, n, n)) < rng.uniform(0.6, 1))
        kept = rng.random(n_steps) < 0.8
        rescued, dead = _rescues(initial, pmc, hmc, kept, "mpm")
        assert _rescues(initial, pmc, hmc, kept, "map") == (rescued, dead)
        seen["empty initial rescue"] += not initial.any() and rescued == [0]
        seen["later block rescue"] += any(s >= _BLOCK for s in rescued)
        seen["dead end" if dead is not None else "no dead end"] += 1
    assert all(seen.values()), seen


def scaled_down(model, factor):
    """The model with every emission and PMC step ratio multiplied by factor.

    Its factors are no longer probabilities, but the 0/1 supports, the
    posteriors and the best paths stay those of the model. With a factor
    of 1e-190, one step takes a block's row above _TINY and the next one
    underflows it to zero. The PMC initial factors, the triples of the
    sentence-start bigrams after every word bigram's, keep their ratios.
    """
    hmc = model.hmc
    index = object.__new__(DecodeIndex)
    for f in dataclasses.fields(DecodeIndex):
        object.__setattr__(index, f.name, getattr(model.index, f.name))
    n_words = index.n_words
    steps = index.offsets[index.codes.searchsorted(n_words * (n_words + 1))]
    ratios = index.ratios.copy()
    ratios[:steps] *= factor
    object.__setattr__(index, "ratios", ratios)
    return dataclasses.replace(
        model, index=index,
        hmc=HmcParams(pi=hmc.pi, trans=hmc.trans, trans_support=hmc.trans_support,
                      emit=hmc.emit * factor))


@pytest.mark.parametrize("seed", range(4))
def test_rescues_are_decided_by_support_not_by_underflowed_mass(seed):
    """With every factor scaled by 1e-190, block rows underflow to zero at
    kept PMC steps that still have support; only an empty 0/1 support may
    downgrade a step, as in the reference, which normalizes every step."""
    rng = random.Random(seed)
    corpus = random_corpus(rng, n_sentences=60, n_words=5, n_labels=3, max_len=6)
    model = train_model(corpus, TrainConfig(task="pos"))
    small = scaled_down(model, 1e-190)
    words = [w for sent in corpus.sentences for w, _ in sent]
    sentences = [words[:3 * _BLOCK]] + [[rng.choice(words) for _ in range(12)]
                                         for _ in range(20)]
    for sentence in sentences:
        for decoder in ("mpm", "map"):
            want = check(small, sentence, "pmc", decoder)
            assert want.flags == resolve_factors(model, sentence).flags
    long = resolve_factors(small, sentences[0])
    assert long.flags.count(PMC_STEP) > _BLOCK and long.dead is None


@pytest.mark.parametrize("t_len", [_BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 2])
def test_scales_rebuild_the_unscaled_recursions_across_blocks(t_len):
    rng = np.random.default_rng(t_len)
    initial, steps = _tiny_steps(rng, 4, t_len, 0.5)
    factors = hand_factors(initial, steps, [PMC_STEP] * t_len)
    alpha, a_scales = forward(factors)
    beta, b_scales = backward(factors)
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(beta.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    raw_a, raw_b = initial, np.ones(4)
    for t in range(t_len):
        if t:
            raw_a = raw_a @ steps[t - 1]
            raw_b = steps[t_len - 1 - t] @ raw_b
        np.testing.assert_allclose(alpha[t] * np.prod(a_scales[:t + 1]), raw_a,
                                   rtol=1e-12, atol=0)
        s = t_len - 1 - t
        np.testing.assert_allclose(beta[s] * np.prod(b_scales[s:]), raw_b,
                                   rtol=1e-12, atol=0)
