import dataclasses
import random

import numpy as np
import pytest

from pmctag.conll import LabeledCorpus
from pmctag.inference import DecodeIndex, FactorProvider, LogFactors, _log
from pmctag.model import HmcParams, ModelBundle
from pmctag.training import TrainConfig, train_model


def corpus_from(*sentences) -> LabeledCorpus:
    """Build a corpus from sentences given as [(word, tag), ...] lists."""
    return LabeledCorpus(sentences=[list(s) for s in sentences])


def hmc_bundle(hmc: HmcParams) -> ModelBundle:
    """A bundle whose hmc is the given HMC, to decode it with --mode hmc's path.

    Word k is "w{k}" and label i "L{i}": the bundle is trained on one
    sentence that names every word and label in id order, so its ids
    follow an observation sequence's, and then takes hmc and the decode
    index of hmc.trans.
    """
    n, m = hmc.emit.shape
    model = train_model(corpus_from([(f"w{k % m}", f"L{k % n}") for k in range(max(n, m))]),
                        TrainConfig())
    return dataclasses.replace(model, hmc=hmc, index=DecodeIndex(model.counts, hmc.trans))


def hand_factors(initial, steps, flags, rescue=None,
                 decoder="mpm") -> FactorProvider | LogFactors:
    """Factors given directly as arrays, resolved for decoder: for "map",
    the log of the stack, laid out [t, j, i].

    rescue is handed to the decoder's pass on resolve_factors' contract:
    rescue(s) may rewrite steps[s] in place, steps being a float64
    (T-1, N, N) array then, and says whether it did. For "map" the log of
    a rewritten step is written into the log stack.
    """
    initial = np.asarray(initial, dtype=float)
    steps = np.asarray(steps, dtype=float).reshape(-1, len(initial), len(initial))
    if decoder == "mpm":
        return FactorProvider(initial, steps, flags, rescue=rescue)
    scores = _log(steps).transpose(0, 2, 1)

    def log_rescue(s):
        if not rescue(s):
            return False
        scores[s] = _log(steps[s]).T
        return True

    return LogFactors(initial, scores, flags, rescue and log_rescue)


def random_corpus(rng: random.Random, n_sentences=50, n_words=8, n_labels=3,
                  max_len=6) -> LabeledCorpus:
    words = [f"w{i}" for i in range(n_words)]
    labels = [f"L{i}" for i in range(n_labels)]
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(1, max_len)
        sentences.append([(rng.choice(words), rng.choice(labels))
                          for _ in range(length)])
    return LabeledCorpus(sentences=sentences)


def varied_corpus(rng: random.Random, n_sentences=60) -> LabeledCorpus:
    """Corpus with orthographic variety for feature-table tests."""
    words = ["John", "likes", "the", "blue-green", "house", "B2B", "Mary",
             "runs", "fast", "U.S.", "12", "state-of-the-art", "ab", "x"]
    labels = ["NOUN", "VERB", "DET", "ADJ", "NUM"]
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(1, 7)
        sentences.append([(rng.choice(words), rng.choice(labels))
                          for _ in range(length)])
    return LabeledCorpus(sentences=sentences)


@pytest.fixture
def rng():
    return random.Random(20240)
