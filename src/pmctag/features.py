"""Orthographic word features and the suffix back-off emission model.

Unknown test words have no emission probability, so their emission is
approximated by the empirical probability of the feature tuple
(capitalized, hyphen, first-in-sentence, digit, suffix) given the label.
One table is kept per suffix length m = 0..max_len; scoring uses the
longest level whose suffix was seen in training and backs off otherwise.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import EmptyCorpus, EmptyToken

# Longer suffixes are whole words for almost every token; the bound also
# keeps a corrupt model file from asking for millions of levels.
MAX_SUFFIX_LEN = 16


class WordFeatures(NamedTuple):
    """The label-free feature tuple of a word; it keys the feature tables."""

    cap: int
    hyphen: int
    first: int
    digit: int
    suffix: str


def word_suffix(word: str, m: int) -> str:
    """Suffix of length min(m, len(word)); empty string for m = 0."""
    k = min(m, len(word))
    return word[len(word) - k:]


def extract_features(word: str, position: int, m: int) -> WordFeatures:
    """Compute the feature tuple of `word` at 0-based sentence `position`.

    cap is 1 when the first character is an uppercase letter, hyphen when
    any character is '-', first when position is 0, digit when any
    character is a decimal digit.
    """
    if not word:
        raise EmptyToken("cannot extract features from an empty word")
    return WordFeatures(
        cap=1 if word[0].isupper() else 0,
        hyphen=1 if "-" in word else 0,
        first=1 if position == 0 else 0,
        digit=1 if any(ch.isdecimal() for ch in word) else 0,
        suffix=word_suffix(word, m),
    )


@dataclass(frozen=True, eq=False)
class FeatureEmissionTables:
    """Per-level empirical feature-tuple probabilities given the label.

    tuple_ids[m] maps a label-free tuple (cap, hyphen, first, digit,
    suffix_m) to its row in tables[m], a float (n_tuples_m, n_labels)
    array whose entry [r, i] is the conditional frequency of tuple r
    given label i. Rows follow sorted tuple order, and only tuples with
    a positive count get one, so an unknown word's emission column is one
    row read. suffix_support[m] is the set of suffixes seen at level m; it
    decides the back-off level for a word and is derived from the tuple
    keys. Nothing can be changed: the fields cannot be reassigned, the
    per-level sequences are tuples, each tuple_ids[m] is a read-only
    mapping, each suffix_support[m] a frozenset and each array read-only.
    """

    max_len: int
    tuple_ids: tuple[Mapping[WordFeatures, int], ...]
    tables: tuple[np.ndarray, ...]
    suffix_support: tuple[frozenset[str], ...] = field(init=False, repr=False)

    def __post_init__(self):
        for table in self.tables:
            table.setflags(write=False)
        set_field = partial(object.__setattr__, self)  # the dataclass is frozen
        set_field("tables", tuple(self.tables))
        set_field("tuple_ids", tuple(map(MappingProxyType, self.tuple_ids)))
        set_field("suffix_support",
                  tuple(frozenset(key[4] for key in ids) for ids in self.tuple_ids))

    @property
    def n_labels(self) -> int:
        return self.tables[0].shape[1]

    def validate(self, tol=1e-12):
        if len(self.tables) != self.max_len + 1:
            raise AssertionError("one table per suffix length expected")
        for m, table in enumerate(self.tables):
            totals = table.sum(axis=0)
            bad = table.any(axis=0) & (np.abs(totals - 1.0) > tol)
            if bad.any():
                label = int(bad.argmax())
                raise AssertionError(
                    f"level {m} tuples for label {label} sum to {totals[label]!r}")

    def __eq__(self, other):
        return (
            isinstance(other, FeatureEmissionTables)
            and self.max_len == other.max_len
            and self.tuple_ids == other.tuple_ids
            and all(np.array_equal(a, b) for a, b in zip(self.tables, other.tables))
        )


def _tables_from_counts(tuple_ids, tuple_counts, label_totals, max_len):
    """Divide per-level (n_tuples, n_labels) int64 counts by the label totals.

    Both operands are integers below 2**53, so each ratio is rounded once,
    exactly like a Python int division. Labels without a token keep zero
    columns.
    """
    tables = [np.divide(counts, label_totals, out=np.zeros(counts.shape),
                        where=label_totals > 0)
              for counts in tuple_counts]
    return FeatureEmissionTables(max_len=max_len, tuple_ids=tuple_ids, tables=tables)


def _row_ids(tuples) -> dict[WordFeatures, int]:
    """Row of each distinct tuple, in sorted tuple order."""
    return {key: r for r, key in enumerate(sorted(set(tuples)))}


def fit_feature_tables(corpus, alphabet, suffix_max_len: int) -> FeatureEmissionTables:
    """Estimate the per-level feature tables by walking a labeled corpus.

    Counts are integers accumulated over all tokens and divided once per
    entry, so the result is independent of sentence order. alphabet must
    hold every label of the corpus, and a label's id is its table column.
    Training uses derive_feature_tables; this walk is the reference it is
    tested against.
    """
    sentences = corpus.sentences
    if not sentences:
        raise EmptyCorpus("cannot fit feature tables on an empty corpus")
    keyed = [dict() for _ in range(suffix_max_len + 1)]  # (tuple, label) -> count
    for sentence in sentences:
        for pos, (word, label) in enumerate(sentence):
            i = alphabet.index[label]
            for m in range(suffix_max_len + 1):
                key = (extract_features(word, pos, m), i)
                counts = keyed[m]
                counts[key] = counts.get(key, 0) + 1
    n_labels = len(alphabet)
    tuple_ids, tuple_counts = [], []
    for counts_m in keyed:
        ids = _row_ids(key for key, _ in counts_m)
        counts = np.zeros((len(ids), n_labels), dtype=np.int64)
        for (key, i), c in counts_m.items():
            counts[ids[key], i] = c
        tuple_ids.append(ids)
        tuple_counts.append(counts)
    # every token has exactly one tuple per level
    label_totals = tuple_counts[0].sum(axis=0)
    return _tables_from_counts(tuple_ids, tuple_counts, label_totals, suffix_max_len)


def derive_feature_tables(counts, vocabulary, suffix_max_len: int) -> FeatureEmissionTables:
    """Rebuild the feature tables from count tables alone.

    A token occurrence of (label i, word k) is chain-initial n0_ik times
    and non-initial as often as (i, k) appears as the second element of an
    adjacent pattern; only the first-word bit depends on that split, the
    other features are functions of the word string. Every count row is
    one occurrence row (word, first bit, label, count): the n0_ik rows
    with bit 1 and the second halves (j, l) of the n_ikjl rows with bit 0.
    Each (word, bit) that occurs gets its tuple's row id once per level,
    and the occurrence counts are added into those rows. Reproduces
    fit_feature_tables exactly because both routes divide the same
    integer counts.
    """
    n_labels, n_words = counts.n_labels, len(vocabulary)
    # (first bit, label column, word column, counts) of each occurrence source
    sources = [(1, *counts.n0_ik.columns, counts.n0_ik.counts),
               (0, *counts.n_ikjl.columns[2:], counts.n_ikjl.counts)]
    if not any(len(c) for *_, c in sources):
        raise EmptyCorpus("count tables carry no token occurrences")

    words = list(vocabulary)
    shapes = [extract_features(word, 1, 0) for word in words]
    # number the (word, bit) kinds that occur, and find each occurrence's
    # kind; int32 holds the kinds and the table cells (at most 2 * labels x words)
    kind = np.zeros((2, n_words), dtype=np.int32)
    for bit, _, occurring, _ in sources:
        kind[bit, occurring] = 1
    bits, kind_words = np.nonzero(kind)
    kind[bits, kind_words] = np.arange(len(bits))
    bits, kind_words = bits.tolist(), kind_words.tolist()
    occurrence_kinds = [kind[bit][occurring] for bit, _, occurring, _ in sources]
    tuple_ids, tuple_counts = [], []
    for m in range(suffix_max_len + 1):
        suffixes = [word_suffix(word, m) for word in words]
        keys = [(shapes[k].cap, shapes[k].hyphen, bit, shapes[k].digit, suffixes[k])
                for k, bit in zip(kind_words, bits)]
        ids = _row_ids(keys)
        rows = np.fromiter(map(ids.__getitem__, keys), dtype=np.int32, count=len(keys))
        table = np.zeros((len(ids), n_labels), dtype=np.int64)
        for (_, labels, _, c), occurrence_kind in zip(sources, occurrence_kinds):
            cells = rows[occurrence_kind]  # each occurrence's cell in the flat table
            cells *= n_labels
            cells += labels
            np.add.at(table.ravel(), cells, c)
        tuple_ids.append(ids)
        tuple_counts.append(table)
    # every occurrence has exactly one tuple per level
    label_totals = tuple_counts[0].sum(axis=0)
    return _tables_from_counts(tuple_ids, tuple_counts, label_totals, suffix_max_len)


def backoff_level(tables: FeatureEmissionTables, word: str) -> int:
    """Largest level m whose suffix of `word` was observed in training.

    Level 0 uses the empty suffix, which any non-empty training corpus
    supports, so the back-off always terminates.
    """
    for m in range(tables.max_len, -1, -1):
        if word_suffix(word, m) in tables.suffix_support[m]:
            return m
    return 0


def feature_column(tables: FeatureEmissionTables, word: str, position: int) -> np.ndarray:
    """Back-off feature probabilities of `word` under every label.

    The level is a property of the word alone, so every label scores one
    token at the same level, from one row of that level's table. A tuple
    unseen even at the chosen level gives a zero column.
    """
    m = backoff_level(tables, word)
    row = tables.tuple_ids[m].get(extract_features(word, position, m))
    if row is None:
        return np.zeros(tables.n_labels)
    return tables.tables[m][row]
