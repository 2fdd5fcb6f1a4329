"""Parameter containers for hidden and pairwise Markov chain models.

All hot-path tables are keyed by dense integer ids produced by interning
words and labels once at training time. The raw pattern counts are
CountTables: sorted rows of id tuples with their counts, which the model
file stores as differences of their key numbers (key_numbers). Every
table derived from them is a dense NumPy array:
label-by-label tables are (n_labels, n_labels) and label-by-word tables
are (n_labels, n_words), sized by the vocabulary, so a word without any
entry has an all-zero column.
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


def key_rows(numbers, n_tokens, n_labels, n_words) -> np.ndarray:
    """The (n, 2 * n_tokens) int64 id rows of key_numbers over n_tokens codes."""
    digits = []
    for _ in range(n_tokens):
        numbers, code = np.divmod(numbers, n_labels * n_words)
        digits[:0] = np.divmod(code, n_words)
    return np.column_stack(digits)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Pattern counts as sorted key rows.

    keys is an (n, width) int64 array of id tuples whose rows strictly
    increase; counts holds the matching positive int64 counts. Both
    arrays are read-only.
    """

    keys: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.keys.setflags(write=False)
        self.counts.setflags(write=False)

    def __len__(self) -> int:
        return len(self.counts)

    def numbers(self, n_labels, n_words) -> np.ndarray:
        """key_numbers of the key rows, whose ids lie below n_labels and n_words."""
        codes = self.keys[:, 0::2].T * n_words + self.keys[:, 1::2].T
        return key_numbers(codes, n_labels * n_words)

    def values(self) -> np.ndarray:
        return self.counts

    def __eq__(self, other):
        return (
            isinstance(other, CountTable)
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.counts, other.counts)
        )


def summed(shape, index, counts) -> np.ndarray:
    """int64 array of `shape` with counts added at index; repeats add up."""
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, index, counts)
    return out


@dataclass(frozen=True, eq=False)
class CountTables:
    """Raw pattern counts plus the marginals derived from them.

    n_ikjl counts adjacent patterns (label i, word k, label j, word l) and
    n0_ik chain-initial (label, word) pairs, as CountTable key rows
    (i, k, j, l) and (i, k); these two tables are the model's only stored
    state. Building the set sums them into dense int64 arrays: the chain
    count L and n0_i over n0_ik, n_ij over k and l, m_ik over j and l, and
    n_i over j. m_ik is (n_labels, n_words); a word that never starts a
    pattern (one seen only at the end of sentences) has an all-zero
    column. No field can be reassigned and the marginal arrays are
    read-only.
    """

    n_labels: int
    n_words: int
    n0_ik: CountTable
    n_ikjl: CountTable
    L: int = field(init=False)
    n0_i: np.ndarray = field(init=False, repr=False)
    n_ij: np.ndarray = field(init=False, repr=False)
    m_ik: np.ndarray = field(init=False, repr=False)
    n_i: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        i, k, j, _ = self.n_ikjl.keys.T
        c = self.n_ikjl.counts
        n_ij = summed((self.n_labels, self.n_labels), (i, j), c)
        marginals = {"n0_i": summed(self.n_labels, self.n0_ik.keys[:, 0], self.n0_ik.counts),
                     "n_ij": n_ij,
                     "m_ik": summed((self.n_labels, self.n_words), (i, k), c),
                     "n_i": n_ij.sum(axis=1)}
        object.__setattr__(self, "L", int(self.n0_ik.counts.sum()))
        for name, table in marginals.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

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
        if self.counts.m_ik.shape != (len(self.alphabet), len(self.vocabulary)):
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
