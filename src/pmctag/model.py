"""Parameter containers for hidden and pairwise Markov chain models.

All hot-path tables are keyed by dense integer ids produced by interning
words and labels once at training time. The raw pattern counts are
CountTables: sorted rows of id tuples with their counts, held as one
narrow id column per key position, which the model file stores as
differences of their key numbers (key_numbers). Memory follows the row
counts: label-by-label tables are dense (n_labels, n_labels) arrays, and
the only dense label-by-word table is the HMC emission table hmc.emit,
(n_labels, n_words) and sized by the vocabulary, so a word without any
entry has an all-zero column. The PMC factors, m_ik and the feature
counts are read from the sorted count rows instead (see
CountTables.m_ik_runs and inference.DecodeIndex).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

PROB_TOL = 1e-12


@dataclass(frozen=True, eq=False, repr=False)
class Interner:
    """Immutable bijection between strings and contiguous integer ids.

    items is a tuple that keeps the first occurrence of each given item,
    and index the read-only mapping from item to id. An interner never
    changes: extended() returns a new one with the unseen tokens appended.
    """

    items: tuple[str, ...] = ()
    index: MappingProxyType = field(init=False)

    def __post_init__(self):
        index = dict(zip(dict.fromkeys(self.items), itertools.count()))
        object.__setattr__(self, "items", tuple(index))
        object.__setattr__(self, "index", MappingProxyType(index))

    def extended(self, tokens) -> tuple["Interner", np.ndarray]:
        """A new interner with the unseen tokens appended, and the tokens' int64 ids.

        Unseen tokens get ids in the order of their first occurrence, and
        the receiver is left as it is. The tokens are walked once, through
        a copy of the index that numbers each new item as it is first
        looked up.
        """
        index = defaultdict(itertools.count(len(self.items)).__next__, self.index.copy())
        ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64,
                          count=len(tokens))
        return Interner(index), ids  # the index's keys are its items in id order

    def get(self, item: str):
        """Id of `item`, or None if it is not an item."""
        return self.index.get(item)

    def __getitem__(self, idx: int) -> str:
        return self.items[idx]

    def __contains__(self, item: str) -> bool:
        return item in self.index

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __eq__(self, other):
        return isinstance(other, Interner) and self.items == other.items

    def __repr__(self):
        return f"Interner({len(self.items)} items)"


@dataclass(frozen=True, eq=False)
class HmcParams:
    """Hidden Markov chain parameters.

    pi[i] is the initial label probability, trans[i, j] the label
    transition probability and emit[i, k] the probability of word k under
    label i, an (n_labels, n_words) array. Labels whose rows have no
    observations are stored as all-zero trans and emit rows with
    trans_support[i] == False. No field can be reassigned, and all four
    arrays are read-only.
    """

    pi: np.ndarray
    trans: np.ndarray
    trans_support: np.ndarray
    emit: np.ndarray

    def __post_init__(self):
        for table in (self.pi, self.trans, self.trans_support, self.emit):
            table.setflags(write=False)

    @property
    def n_labels(self) -> int:
        return self.pi.shape[0]

    def validate(self, tol=PROB_TOL):
        if abs(self.pi.sum() - 1.0) > tol:
            raise AssertionError(f"pi sums to {self.pi.sum()!r}")
        for name, table in (("transition", self.trans), ("emission", self.emit)):
            rows = table.sum(axis=1)
            bad = np.where(self.trans_support, np.abs(rows - 1.0) > tol, rows != 0.0)
            if bad.any():
                i = int(bad.argmax())
                raise AssertionError(f"{name} row {i} sums to {rows[i]!r}")

    def __eq__(self, other):
        return (
            isinstance(other, HmcParams)
            and np.array_equal(self.pi, other.pi)
            and np.array_equal(self.trans, other.trans)
            and np.array_equal(self.trans_support, other.trans_support)
            and np.array_equal(self.emit, other.emit)
        )


def id_dtype(n_ids) -> np.dtype:
    """The narrowest unsigned integer dtype that holds every id below n_ids."""
    return np.min_scalar_type(max(n_ids - 1, 0))


def key_numbers(codes, radix) -> np.ndarray:
    """Each tuple of token codes read as the digits of one number.

    codes holds one int64 array per token position, first digit first,
    and radix is n_labels * n_words, so the numbers sort like the
    (label, word, ...) id rows they stand for.
    """
    number = codes[0]
    for c in codes[1:]:
        number = number * radix + c
    return number


def key_columns(numbers, n_tokens, n_labels, n_words) -> tuple[np.ndarray, ...]:
    """The id columns of key_numbers over n_tokens codes, label then word per token.

    Each column has the id_dtype of its labels or words. numbers, an
    int64 array, is used up: it is divided in place. The token codes
    below radix are held in its id_dtype, not in int64.
    """
    radix = n_labels * n_words
    codes = []
    for _ in range(n_tokens - 1):
        codes[:0] = [np.remainder(numbers, radix, casting="unsafe",
                                  out=np.empty(len(numbers), id_dtype(radix)))]
        numbers //= radix
    codes[:0] = [numbers]
    columns = []
    for code in codes:
        columns += (np.floor_divide(code, n_words, casting="unsafe",
                                    out=np.empty(len(code), id_dtype(n_labels))),
                    np.remainder(code, n_words, casting="unsafe",
                                 out=np.empty(len(code), id_dtype(n_words))))
    return tuple(columns)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Pattern counts as sorted key columns.

    columns holds one id array per key position, a (label, word) pair per
    token, each in the narrowest unsigned dtype that holds its label or
    word ids (id_dtype); the id rows they form strictly increase. counts
    holds the matching positive int64 counts. All arrays are read-only.
    """

    columns: tuple[np.ndarray, ...]
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        for array in (*self.columns, self.counts):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.counts)

    def numbers(self, n_labels, n_words) -> np.ndarray:
        """key_numbers of the key rows, whose ids lie below n_labels and n_words."""
        codes = [label.astype(np.int64) * n_words + word
                 for label, word in zip(self.columns[0::2], self.columns[1::2])]
        return key_numbers(codes, n_labels * n_words)

    def values(self) -> np.ndarray:
        return self.counts

    def __eq__(self, other):
        return (
            isinstance(other, CountTable)
            and len(self.columns) == len(other.columns)
            and all(map(np.array_equal, self.columns, other.columns))
            and np.array_equal(self.counts, other.counts)
        )


def run_starts(values) -> np.ndarray:
    """Index of the first entry of each run of equal entries of a sorted array."""
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new)


def summed(shape, index, counts) -> np.ndarray:
    """int64 array of `shape` with counts added at index; repeats add up."""
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, index, counts)
    return out


@dataclass(frozen=True, eq=False)
class CountTables:
    """Raw pattern counts plus the label marginals derived from them.

    n_ikjl counts adjacent patterns (label i, word k, label j, word l) and
    n0_ik chain-initial (label, word) pairs, as CountTable key columns
    (i, k, j, l) and (i, k); these two tables are the model's only stored
    state. Building the set sums them into int64 label arrays: the chain
    count L and n0_i over n0_ik, n_ij over k and l, and n_i over j. The
    label-by-word marginal m_ik, n_ikjl summed over j and l, is not
    stored: m_ik_runs gives it per run of the sorted n_ikjl rows. No field
    can be reassigned and the marginal arrays are read-only.
    """

    n_labels: int
    n_words: int
    n0_ik: CountTable
    n_ikjl: CountTable
    L: int = field(init=False)
    n0_i: np.ndarray = field(init=False, repr=False)
    n_ij: np.ndarray = field(init=False, repr=False)
    n_i: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        i, _, j, _ = self.n_ikjl.columns
        n_ij = summed((self.n_labels, self.n_labels), (i, j), self.n_ikjl.counts)
        marginals = {"n0_i": summed(self.n_labels, self.n0_ik.columns[0], self.n0_ik.counts),
                     "n_ij": n_ij,
                     "n_i": n_ij.sum(axis=1)}
        object.__setattr__(self, "L", int(self.n0_ik.counts.sum()))
        for name, table in marginals.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def m_ik_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, m): where each (i, k) run of the n_ikjl rows starts, and its m_ik.

        The rows are sorted, so the patterns that start with one (label,
        word) pair form one run of rows, and m_ik, their count total, is
        one np.add.reduceat. A pair that starts no pattern (a word seen
        only at the end of sentences) has m_ik = 0 and no run.
        """
        i, k = self.n_ikjl.columns[:2]
        new = np.ones(len(i), dtype=bool)
        np.not_equal(i[1:], i[:-1], out=new[1:])
        new[1:] |= k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        return starts, np.add.reduceat(self.n_ikjl.counts, starts)

    def validate(self):
        """Check that both count tables hold sorted key rows with positive counts."""
        for table in (self.n0_ik, self.n_ikjl):
            numbers = table.numbers(self.n_labels, self.n_words)
            if not ((table.counts > 0).all() and (np.diff(numbers) > 0).all()):
                raise AssertionError("count table is not sorted positive counts")

    def __eq__(self, other):
        return (
            isinstance(other, CountTables)
            and self.n_labels == other.n_labels
            and self.n0_ik == other.n0_ik
            and self.n_ikjl == other.n_ikjl
        )


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """A trained PMC with its fallback HMC, feature model and decode index.

    Only the interners, the two count tables, the task and the suffix
    length are state; hmc, features and index are derived from them, and
    the PMC factors are count ratios the decoder reads from the index.
    Build bundles with training.bundle_from_counts, which derives every
    table. A bundle is immutable: no field can be reassigned, its
    interners are immutable values, decoding only reads it, and online
    updates build a new one.
    """

    alphabet: Interner
    vocabulary: Interner
    counts: CountTables
    task: str
    suffix_max_len: int
    hmc: HmcParams = field(repr=False)
    features: "FeatureEmissionTables" = field(repr=False)  # noqa: F821 - defined in features.py
    index: "DecodeIndex" = field(repr=False)  # noqa: F821 - defined in inference.py

    def validate(self):
        self.hmc.validate()
        self.counts.validate()
        self.features.validate()
        if (self.counts.n_labels, self.counts.n_words) != (len(self.alphabet),
                                                           len(self.vocabulary)):
            raise AssertionError("count tables disagree with the alphabet or vocabulary size")

    def __eq__(self, other):
        return (
            isinstance(other, ModelBundle)
            and self.alphabet == other.alphabet
            and self.vocabulary == other.vocabulary
            and self.counts == other.counts
            and self.task == other.task
            and self.suffix_max_len == other.suffix_max_len
        )
