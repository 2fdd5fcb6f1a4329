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
from .model import (CountTable, CountTables, HmcParams, Interner, ModelBundle, key_columns,
                    run_starts)
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


def _tally(key, width, n_labels, n_words, base=None) -> CountTable:
    """Count equal keys of tuples of width token codes into a CountTable.

    A token code is label * n_words + word, and key holds each counted
    tuple's model.key_numbers number, an int64 array that the tally sorts
    in place; sorting the numbers sorts the (label, word, ...) rows. The
    rows of `base`, a table over ids below n_labels and n_words, are added
    with their counts. Tuples whose numbers do not fit int64 are refused,
    whatever key holds.
    """
    radix = n_labels * n_words
    if radix ** width > np.iinfo(np.int64).max:
        raise ValueError(f"{n_labels} labels by {n_words} words overflow the count keys")
    key.sort()
    starts = run_starts(key)  # each run of equal keys is one row
    key, counts = key[starts], np.diff(starts, append=len(key))
    if base is not None:
        # two sorted runs of rows, which a stable sort merges in one pass
        key = np.concatenate((base.numbers(n_labels, n_words), key))
        order = np.argsort(key, kind="stable")
        key, counts = key[order], np.concatenate((base.counts, counts))[order]
        starts = run_starts(key)
        key, counts = key[starts], np.add.reduceat(counts, starts)
    return CountTable(key_columns(key, width, n_labels, n_words), counts)


def accumulate_counts(corpus, base=None):
    """Count every chain start and adjacent (label, word, label, word) pattern.

    The corpus's distinct words and tags are interned in their order of
    first occurrence, and its id columns mapped through them; its sentence
    lengths mark the chain starts. Returns (CountTables, alphabet,
    vocabulary). With a `base` of that same form, from an earlier tally or
    a model, the result's interners extend the base's append-only and its
    counts are added in, so folding in one corpus after another goes
    through the same tally as counting them together. Patterns never
    cross a sentence boundary.
    """
    lengths = corpus.lengths
    if not len(lengths):
        raise EmptyCorpus("training corpus has no sentences")
    if not lengths.all():
        raise EmptySentence("training corpus contains an empty sentence")
    base_counts, alphabet, vocabulary = base or (None, Interner(), Interner())
    vocabulary, word_code = vocabulary.extended(corpus.word_items)
    alphabet, label_code = alphabet.extended(corpus.tag_items)
    n_labels, n_words = len(alphabet), len(vocabulary)
    code = (label_code * n_words)[corpus.tag_ids]
    code += word_code[corpus.word_ids]
    starts = np.cumsum(lengths) - lengths
    n0_ik = _tally(code[starts], 1, n_labels, n_words, base_counts and base_counts.n0_ik)
    # the key number of every adjacent pair of codes, built in one int64
    # array and compressed once to the pairs whose second token continues
    # a sentence
    pair = code[:-1] * (n_labels * n_words)
    pair += code[1:]
    del code
    follows = np.ones(len(pair), dtype=bool)
    follows[starts[1:] - 1] = False
    pair = pair[follows]
    n_ikjl = _tally(pair, 2, n_labels, n_words, base_counts and base_counts.n_ikjl)
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
    counts, alphabet, vocabulary = accumulate_counts(
        new_corpus, base=(model.counts, model.alphabet, model.vocabulary))
    return bundle_from_counts(alphabet, vocabulary, counts, model.task,
                              model.suffix_max_len)
