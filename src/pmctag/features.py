"""Orthographic word features and the suffix back-off emission model.

Unknown test words have no emission probability, so their emission is
approximated by the empirical probability of the feature tuple
(capitalized, hyphen, first-in-sentence, digit, suffix) given the label.
One table is kept per suffix length m = 0..max_len; scoring uses the
longest level whose suffix was seen in training and backs off otherwise.
A tuple is one integer code per level, and both estimators build the
tables from occurrence rows (word, first bit, label, count).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import EmptyCorpus, EmptyToken

# Longer suffixes are whole words for almost every token; the bound also
# keeps a corrupt model file from asking for millions of levels.
MAX_SUFFIX_LEN = 16

# the bits of a feature code; the suffix's rank is the code divided by 16
CAP, HYPHEN, FIRST, DIGIT = 8, 4, 2, 1


class WordFeatures(NamedTuple):
    """The label-free feature tuple of a word; a feature code packs it."""

    cap: int
    hyphen: int
    first: int
    digit: int
    suffix: str


def word_suffix(word: str, m: int) -> str:
    """Suffix of length min(m, len(word)); empty string for m = 0."""
    return word[-m:] if m else ""


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

    suffix_ranks[m] maps each suffix seen at level m to its rank in sorted
    order; it is the level's suffix support, which decides the back-off
    level of a word. codes[m] holds, in increasing order, the codes
    rank * 16 + bits of the tuples with a positive count, and row r of
    tables[m], a float (n_codes_m, n_labels) array, holds the conditional
    frequency of the tuple codes[m][r] given each label. So an unknown
    word's emission column is one code and one row read. Nothing can be
    changed: the fields cannot be reassigned, the per-level sequences are
    tuples, each suffix_ranks[m] is a read-only mapping and each array
    read-only.
    """

    max_len: int
    suffix_ranks: tuple[Mapping[str, int], ...]
    codes: tuple[np.ndarray, ...]
    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        for array in (*self.codes, *self.tables):
            array.setflags(write=False)
        set_field = partial(object.__setattr__, self)  # the dataclass is frozen
        set_field("suffix_ranks", tuple(map(MappingProxyType, self.suffix_ranks)))
        set_field("codes", tuple(self.codes))
        set_field("tables", tuple(self.tables))

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
            and self.suffix_ranks == other.suffix_ranks
            and all(np.array_equal(a, b) for a, b in zip((*self.codes, *self.tables),
                                                         (*other.codes, *other.tables)))
        )


def _shape(word: str) -> int:
    """The cap, hyphen and digit bits of a word's code, as extract_features sets them."""
    if not word:
        raise EmptyToken("cannot extract features from an empty word")
    return CAP * word[0].isupper() | HYPHEN * ("-" in word) | DIGIT * any(map(str.isdecimal, word))


def _build_tables(words, shapes, sources, n_labels, max_len) -> FeatureEmissionTables:
    """The feature tables of occurrence rows (word, first bit, label, count).

    words are the strings the word ids index and shapes their _shape bits.
    A source is a (word ids, first bits, labels, counts) tuple of arrays,
    where the bits or the counts may be one int. Each (word, bit) kind that
    occurs is numbered once, and a level's rows are the kinds' distinct
    codes. The int64 counts are divided once by the label totals, so each
    ratio is rounded once; labels without a token keep zero columns.
    """
    # int32 holds the kinds and the table cells (at most 2 * labels x words)
    kind = np.zeros((2, len(words)), dtype=np.int32)
    for word, bit, _, _ in sources:
        kind[bit, word] = 1
    present = np.flatnonzero(kind.any(axis=0))
    if not len(present):
        raise EmptyCorpus("no token occurrences to build the feature tables from")
    present_words = [words[k] for k in present.tolist()]
    bits, kind_words = np.nonzero(kind)
    kind[bits, kind_words] = np.arange(len(bits))
    occurrence_kinds = [kind[bit, word] for word, bit, _, _ in sources]
    kind_bits = shapes[kind_words] | bits * FIRST
    rank = np.zeros(len(words), dtype=np.int64)
    levels = []  # (suffix ranks, codes, table) of each level
    for m in range(max_len + 1):
        # the words' suffixes (word_suffix, inlined), sliced again rather than kept
        level_suffixes = sorted({word[-m:] if m else "" for word in present_words})
        ranks = {suffix: r for r, suffix in enumerate(level_suffixes)}
        rank[present] = [ranks[word[-m:] if m else ""] for word in present_words]
        level_codes, rows = np.unique(rank[kind_words] * 16 + kind_bits, return_inverse=True)
        row_cells = (rows * n_labels).astype(np.int32)  # each kind's row in the flat table
        counts = np.zeros((len(level_codes), n_labels), dtype=np.int64)
        for (_, _, labels, c), occurrence_kind in zip(sources, occurrence_kinds):
            np.add.at(counts.ravel(), row_cells[occurrence_kind] + labels, c)
        if not m:  # every occurrence has exactly one tuple per level
            label_totals = counts.sum(axis=0)
        table = np.divide(counts, label_totals, out=np.zeros(counts.shape), where=label_totals > 0)
        levels.append((ranks, level_codes, table))
    return FeatureEmissionTables(max_len, *zip(*levels))


def fit_feature_tables(corpus, alphabet, suffix_max_len: int) -> FeatureEmissionTables:
    """Estimate the per-level feature tables by walking a labeled corpus.

    Each token is one occurrence row, with its bits from extract_features,
    so the result is independent of sentence order. alphabet must hold
    every label of the corpus, and a label's id is its table column.
    Training uses derive_feature_tables; this walk is the reference it is
    tested against.
    """
    ids, shapes, rows = {}, [], []
    for sentence in corpus.sentences:
        for pos, (word, label) in enumerate(sentence):
            f = extract_features(word, pos, 0)
            if word not in ids:
                ids[word] = len(ids)
                shapes.append(f.cap * CAP | f.hyphen * HYPHEN | f.digit * DIGIT)
            rows.append((ids[word], f.first, alphabet.index[label]))
    source = (*np.array(rows, dtype=np.intp).reshape(-1, 3).T, 1)  # each token counts once
    return _build_tables(list(ids), np.array(shapes), [source], len(alphabet), suffix_max_len)


def derive_feature_tables(counts, vocabulary, suffix_max_len: int) -> FeatureEmissionTables:
    """Rebuild the feature tables from count tables alone.

    A token occurrence of (label i, word k) is chain-initial n0_ik times
    and non-initial as often as (i, k) appears as the second element of an
    adjacent pattern; only the first-word bit depends on that split, the
    other features are functions of the word string. Every count row is
    one occurrence row (word, first bit, label, count): the n0_ik rows
    with bit 1 and the second halves (j, l) of the n_ikjl rows with bit 0.
    """
    sources = [(counts.n0_ik.columns[1], 1, counts.n0_ik.columns[0], counts.n0_ik.counts),
               (counts.n_ikjl.columns[3], 0, counts.n_ikjl.columns[2], counts.n_ikjl.counts)]
    shapes = np.fromiter(map(_shape, vocabulary.items), dtype=np.int64, count=len(vocabulary))
    return _build_tables(vocabulary.items, shapes, sources, counts.n_labels, suffix_max_len)


def backoff_level(tables: FeatureEmissionTables, word: str) -> int:
    """Largest level m whose suffix of `word` was observed in training.

    Level 0 uses the empty suffix, which any non-empty training corpus
    supports, so the back-off always terminates.
    """
    for m in range(tables.max_len, -1, -1):
        if word_suffix(word, m) in tables.suffix_ranks[m]:
            return m
    return 0


def feature_column(tables: FeatureEmissionTables, word: str, position: int) -> np.ndarray:
    """Back-off feature probabilities of `word` under every label.

    The level is a property of the word alone, so every label scores one
    token at the same level, from one row of that level's table. A tuple
    unseen even at the chosen level gives a zero column.
    """
    m = backoff_level(tables, word)
    rank = tables.suffix_ranks[m][word_suffix(word, m)]
    code = rank * 16 + _shape(word) + FIRST * (position == 0)
    codes = tables.codes[m]
    row = codes.searchsorted(code)
    if row == len(codes) or codes[row] != code:
        return np.zeros(tables.tables[m].shape[1])
    return tables.tables[m][row]
