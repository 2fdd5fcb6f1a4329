"""End-to-end behavior at realistic corpus scale, on synthetic data.

Samples train/test corpora from a ground-truth pairwise process: labels
within a group share one vocabulary (emissions alone cannot separate
them), and the previous word picks its follower given the next label, a
dependency only the pairwise model can represent. Checks the training
and decoding budgets, posterior normalization on every sentence, and that
pairwise decoding beats the hidden-chain fallback out of sample.
"""

import random
import time
import zlib

import numpy as np
import pytest

from pmctag.conll import LabeledCorpus, mark_known
from pmctag.errors import DeadEnd
from pmctag.evaluation import evaluate_predictions
from pmctag.inference import decode_sentence, posterior_marginals, resolve_factors
from pmctag.serialize import deserialize_model, serialize_model
from pmctag.training import TrainConfig, train_model

N_LABELS = 10
GROUPS = 2
PER_GROUP = N_LABELS // GROUPS
POOL = 900
SUFFIXES = ["ing", "ed", "tion", "ly", "er", "est", "ous", "al", "s", ""]


def build_world(rng):
    pools = [[f"g{g}w{i}{SUFFIXES[i % len(SUFFIXES)]}" for i in range(POOL)]
             for g in range(GROUPS)]
    trans = np.zeros((N_LABELS, N_LABELS))
    for i in range(N_LABELS):
        trans[i] = 0.3 / N_LABELS
        trans[i, (i + 1) % N_LABELS] += 0.4
        trans[i, (i + 3) % N_LABELS] += 0.3
    trans /= trans.sum(axis=1, keepdims=True)
    return pools, trans


def zipf_choice(rng, items):
    idx = int(len(items) * (rng.random() ** 4))
    return items[min(idx, len(items) - 1)]


def emit(rng, pools, label, prev_word):
    pool = pools[label // PER_GROUP]
    if prev_word is not None and rng.random() < 0.75:
        # collocation: previous word fixes the follower given the label
        return pool[(zlib.crc32(prev_word.encode()) + 131 * label) % 300]
    return zipf_choice(rng, pool)


def sample_corpus(rng, pools, trans, n_sentences):
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(4, 22)
        label = rng.randrange(N_LABELS)
        sent = [(emit(rng, pools, label, None), f"L{label}")]
        for _ in range(length - 1):
            label = rng.choices(range(N_LABELS), weights=trans[label])[0]
            sent.append((emit(rng, pools, label, sent[-1][0]), f"L{label}"))
        sentences.append(sent)
    return LabeledCorpus(sentences)


@pytest.fixture(scope="module")
def world():
    rng = random.Random(1312)
    pools, trans = build_world(rng)
    train = sample_corpus(rng, pools, trans, 12000)
    test = sample_corpus(rng, pools, trans, 800)
    return train, test


def test_scale_pipeline(world):
    train, test = world
    assert train.n_tokens > 100_000

    t0 = time.perf_counter()
    model = train_model(train, TrainConfig(task="pos"))
    train_time = time.perf_counter() - t0
    assert train_time < 60, f"training took {train_time:.1f}s"

    data = serialize_model(model)
    assert deserialize_model(data) == model
    # a key row is stored as a key difference and a count, each mostly one
    # or two bytes wide; the strings ride along
    rows = len(model.counts.n0_ik) + len(model.counts.n_ikjl)
    assert len(data) <= 10 * rows, f"{len(data) / rows:.1f} bytes per stored key row"

    known = mark_known(test, model.vocabulary)
    reports = {}
    for mode in ("pmc", "hmc"):
        gold, predicted, bits = [], [], []
        dead = 0
        t0 = time.perf_counter()
        for sent, sent_bits in zip(test.sentences, known):
            words = [w for w, _ in sent]
            try:
                result = decode_sentence(model, words, mode=mode)
            except DeadEnd:
                dead += 1
                continue
            gold.append([t for _, t in sent])
            predicted.append(result.labels)
            bits.append(sent_bits)
        decode_time = time.perf_counter() - t0
        assert decode_time < 60, f"{mode} decoding took {decode_time:.1f}s"
        assert dead <= len(test.sentences) * 0.02
        reports[mode] = evaluate_predictions(gold, predicted, bits, task="pos",
                                             mode=mode)
    # the generator has genuinely pairwise structure: the pairwise model
    # must do clearly better than its own hidden-chain fallback
    assert reports["pmc"].overall_error < reports["hmc"].overall_error

    # posterior rows sum to one on every decodable corpus sentence
    for sent in test.sentences[:200]:
        factors = resolve_factors(model, [w for w, _ in sent], mode="pmc")
        try:
            post = posterior_marginals(factors)
        except DeadEnd:
            continue
        assert np.max(np.abs(post.sum(axis=1) - 1.0)) < 1e-9
