"""Count-based maximum likelihood training and exact online updates.

Every parameter is an exact ratio of integer pattern counts; there is no
smoothing. Zero-probability patterns are handled at inference time by the
per-step downgrade, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inference
from .errors import EmptyCorpus, EmptySentence
from .features import MAX_SUFFIX_LEN, derive_feature_tables
from .features import fit_feature_tables  # noqa: F401 - perfbench/tracing.py looks the reference estimator up here
from .model import (CountTable, CountTables, HmcParams, Interner, ModelBundle,
                    key_columns, key_numbers)
from .oracle import fit_pmc  # noqa: F401 - perfbench/tracing.py looks the reference estimator up here

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


def _tally(columns, n_labels, n_words, base=None) -> CountTable:
    """Count equal tuples of token codes into a CountTable.

    columns holds one int64 array per tuple position; a token code is
    label * n_words + word. A tuple's key is its model.key_numbers number,
    so sorting the keys sorts the (label, word, ...) rows. The rows of
    `base`, a table over ids below n_labels and n_words, are added with
    their counts.
    """
    width, radix = len(columns), n_labels * n_words
    if radix ** width > np.iinfo(np.int64).max:
        raise ValueError(f"{n_labels} labels by {n_words} words overflow the count keys")
    key = key_numbers(columns, radix)
    del columns  # callers pass a list of temporaries: free the codes
    weights = np.ones(len(key), dtype=np.int64)
    if base is not None:
        key = np.concatenate((base.numbers(n_labels, n_words), key))
        weights = np.concatenate((base.counts, weights))
    order = np.argsort(key)
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return CountTable(key_columns(key[starts], width, n_labels, n_words),
                      np.add.reduceat(weights[order], starts))


def accumulate_counts(corpus, base=None):
    """Count every chain start and adjacent (label, word, label, word) pattern.

    The corpus's word and tag columns are interned as they are, and its
    sentence lengths mark the chain starts. Returns (CountTables,
    alphabet, vocabulary). With a `base` of that same form, from an
    earlier tally or a model, the result's interners extend the base's
    append-only and its counts are added in, so folding in one corpus
    after another goes through the same tally as counting them together.
    Patterns never cross a sentence boundary.
    """
    lengths = corpus.lengths
    if not len(lengths):
        raise EmptyCorpus("training corpus has no sentences")
    if not lengths.all():
        raise EmptySentence("training corpus contains an empty sentence")
    base_counts, alphabet, vocabulary = base or (None, Interner(), Interner())
    vocabulary, code = vocabulary.extended(corpus.words)
    alphabet, label_ids = alphabet.extended(corpus.tags)
    n_words = len(vocabulary)
    code += label_ids * n_words
    del label_ids  # free it before the tallies, which set the peak memory
    starts = np.cumsum(lengths) - lengths
    follows = np.ones(len(code), dtype=bool)  # token t continues a sentence
    follows[starts] = False
    n_labels = len(alphabet)
    n0_ik = _tally([code[starts]], n_labels, n_words, base_counts and base_counts.n0_ik)
    n_ikjl = _tally([code[:-1][follows[1:]], code[1:][follows[1:]]], n_labels, n_words,
                    base_counts and base_counts.n_ikjl)
    return CountTables(n_labels, n_words, n0_ik, n_ikjl), alphabet, vocabulary


def fit_hmc(counts: CountTables) -> HmcParams:
    """Hidden-chain parameters as empirical frequencies of the counts.

    pi(i) = n0_i / L, trans[i, j] = n_ij / n_i, emit[i, k] = m_ik / n_i.
    Labels with n_i = 0 keep all-zero transition and emission rows,
    flagged in trans_support. emit is written run by run of m_ik
    (CountTables.m_ik_runs), and is zero where m_ik is.
    """
    pi = counts.n0_i.astype(np.float64) / counts.L
    support = counts.n_i > 0
    trans = np.divide(counts.n_ij, counts.n_i[:, None], out=np.zeros(counts.n_ij.shape),
                      where=support[:, None])
    starts, m_ik = counts.m_ik_runs()
    i, k = (column[starts] for column in counts.n_ikjl.columns[:2])
    emit = np.zeros((counts.n_labels, counts.n_words))
    emit[i, k] = m_ik / counts.n_i[i]
    return HmcParams(pi=pi, trans=trans, trans_support=support, emit=emit)


def bundle_from_counts(alphabet, vocabulary, counts: CountTables, task: str,
                       suffix_max_len: int) -> ModelBundle:
    """The one way to build a bundle: derive every table from the counts."""
    hmc = fit_hmc(counts)
    # the index is looked up on the module, where perfbench/tracing.py wraps it
    return ModelBundle(alphabet=alphabet, vocabulary=vocabulary, counts=counts,
                       task=task, suffix_max_len=suffix_max_len, hmc=hmc,
                       features=derive_feature_tables(counts, vocabulary, suffix_max_len),
                       index=inference.DecodeIndex(counts, hmc.trans))


def train_model(corpus, config: TrainConfig) -> ModelBundle:
    """One pass over the corpus producing counts and all derived tables."""
    counts, alphabet, vocabulary = accumulate_counts(corpus)
    return bundle_from_counts(alphabet, vocabulary, counts, config.task,
                              config.suffix_max_len)


def update_online(model: ModelBundle, new_corpus) -> ModelBundle:
    """Fold new chains into the counts and rederive every table.

    The result equals training from scratch on the concatenated corpus:
    interning is append-only, counts are integers summed by the same
    tally, and parameters are single divisions of those integers.
    """
    if not len(new_corpus.lengths):
        raise EmptyCorpus("online update received an empty corpus")
    counts, alphabet, vocabulary = accumulate_counts(
        new_corpus, base=(model.counts, model.alphabet, model.vocabulary))
    return bundle_from_counts(alphabet, vocabulary, counts, model.task,
                              model.suffix_max_len)
