"""Count-based maximum likelihood training and exact online updates.

Every parameter is an exact ratio of integer pattern counts; there is no
smoothing. Zero-probability patterns are handled at inference time by the
per-step downgrade, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, EmptySentence
from .features import MAX_SUFFIX_LEN, derive_feature_tables
from .features import fit_feature_tables  # noqa: F401 - perfbench/tracing.py looks the reference estimator up here
from .model import (CountTables, HmcParams, Interner, ModelBundle, PmcParams,
                    normalize_counts)

TASKS = ("pos", "chunk", "ner")


@dataclass
class TrainConfig:
    task: str = "pos"
    suffix_max_len: int = 3

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if not 0 <= self.suffix_max_len <= MAX_SUFFIX_LEN:
            raise ValueError(f"suffix_max_len must be in 0..{MAX_SUFFIX_LEN}")


def _accumulate_raw(corpus, alphabet, vocabulary, n0_ik, n_ikjl):
    for sentence in corpus.sentences:
        if not sentence:
            raise EmptySentence("training corpus contains an empty sentence")
        ids = [(alphabet.intern(t), vocabulary.intern(w)) for w, t in sentence]
        key0 = ids[0]
        n0_ik[key0] = n0_ik.get(key0, 0) + 1
        for t in range(len(ids) - 1):
            i, k = ids[t]
            j, l = ids[t + 1]
            key = (i, k, j, l)
            n_ikjl[key] = n_ikjl.get(key, 0) + 1


def accumulate_counts(corpus, alphabet=None, vocabulary=None):
    """Count every adjacent (label, word, label, word) pattern in the corpus.

    Returns (CountTables, alphabet, vocabulary); the interners are created
    here unless existing ones are passed in, in which case they are
    extended append-only.
    """
    if not corpus.sentences:
        raise EmptyCorpus("training corpus has no sentences")
    alphabet = alphabet if alphabet is not None else Interner()
    vocabulary = vocabulary if vocabulary is not None else Interner()
    n0_ik: dict[tuple[int, int], int] = {}
    n_ikjl: dict[tuple[int, int, int, int], int] = {}
    _accumulate_raw(corpus, alphabet, vocabulary, n0_ik, n_ikjl)
    counts = CountTables.from_raw(len(alphabet), n0_ik, n_ikjl)
    return counts, alphabet, vocabulary


def fit_hmc(counts: CountTables) -> HmcParams:
    """Hidden-chain parameters as empirical frequencies of the counts.

    pi(i) = n0_i / L, trans[i, j] = n_ij / n_i, emit[(i, k)] = m_ik / n_i.
    Labels with n_i = 0 keep an all-zero transition row, flagged in
    trans_support, and no emission entries.
    """
    n = counts.n_labels
    pi = counts.n0_i.astype(np.float64) / counts.L
    support = counts.n_i > 0
    trans = np.zeros((n, n), dtype=np.float64)
    rows = counts.n_ij[support].astype(np.float64)
    trans[support] = rows / counts.n_i[support, None]
    emit = {}
    for (i, k), c in counts.m_ik.items():
        emit[(i, k)] = c / counts.n_i[i]
    return HmcParams(pi=pi, trans=trans, trans_support=support, emit=emit)


def fit_pmc(counts: CountTables) -> PmcParams:
    """Pairwise-chain parameters; keys with zero denominator stay absent."""
    n = counts.n_labels
    pi2 = {key: c / counts.L for key, c in counts.n0_ik.items()}
    rows: dict[tuple[int, int, int], dict[int, int]] = {}
    for (i, k, j, l), c in counts.n_ikjl.items():
        rows.setdefault((i, k, j), {})[l] = c
    trans2: dict[tuple[int, int], np.ndarray] = {}
    for (i, k, j), row in rows.items():
        vec = trans2.get((i, k))
        if vec is None:
            vec = np.zeros(n, dtype=np.float64)
            trans2[(i, k)] = vec
        vec[j] = sum(row.values()) / counts.m_ik[(i, k)]
    emit2 = {key: normalize_counts(row) for key, row in rows.items()}
    return PmcParams(pi2=pi2, trans2=trans2, emit2=emit2)


def bundle_from_counts(alphabet, vocabulary, counts: CountTables, task: str,
                       suffix_max_len: int) -> ModelBundle:
    """The one way to build a bundle: attach the tables derived from counts."""
    model = ModelBundle(alphabet=alphabet, vocabulary=vocabulary, counts=counts,
                        task=task, suffix_max_len=suffix_max_len)
    model.hmc = fit_hmc(counts)
    model.features = derive_feature_tables(counts, vocabulary, suffix_max_len)
    return model


def train_model(corpus, config: TrainConfig) -> ModelBundle:
    """One pass over the corpus producing counts and all derived tables."""
    counts, alphabet, vocabulary = accumulate_counts(corpus)
    return bundle_from_counts(alphabet, vocabulary, counts, config.task,
                              config.suffix_max_len)


def update_online(model: ModelBundle, new_corpus) -> ModelBundle:
    """Fold new chains into the counts and rederive every table.

    The result equals training from scratch on the concatenated corpus:
    interning is append-only, counts are merged integers, and parameters
    are single divisions of those integers.
    """
    if not new_corpus.sentences:
        raise EmptyCorpus("online update received an empty corpus")
    alphabet = model.alphabet.copy()
    vocabulary = model.vocabulary.copy()
    n0_ik = dict(model.counts.n0_ik)
    n_ikjl = dict(model.counts.n_ikjl)
    _accumulate_raw(new_corpus, alphabet, vocabulary, n0_ik, n_ikjl)
    counts = CountTables.from_raw(len(alphabet), n0_ik, n_ikjl)
    return bundle_from_counts(alphabet, vocabulary, counts, model.task,
                              model.suffix_max_len)
