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

from .errors import EmptySupport

PROB_TOL = 1e-12


class Interner:
    """Bijection between strings and contiguous integer ids, append-only.

    A model bundle freezes its interners: items becomes a tuple, index a
    read-only mapping, and intern and intern_all raise TypeError. copy()
    gives an appendable interner with the same ids.
    """

    def __init__(self, items=()):
        self.items: list[str] = []
        self.index: dict[str, int] = {}
        self.frozen = False
        self.intern_all(items)

    def intern(self, item: str) -> int:
        if self.frozen:
            raise TypeError("a frozen interner cannot intern; extend a copy()")
        idx = self.index.get(item)
        if idx is None:
            idx = self.index[item] = len(self.items)
            self.items.append(item)
        return idx

    def intern_all(self, tokens) -> np.ndarray:
        """int64 ids of a sequence of tokens, interning new ones in order.

        New items get ids in the order of their first occurrence, so
        interning tokens one by one gives the same ids. The tokens are
        walked once, through a copy of the index that numbers each new
        item as it is first looked up.
        """
        if self.frozen:
            raise TypeError("a frozen interner cannot intern; extend a copy()")
        n = len(self.items)
        index = defaultdict(itertools.count(n).__next__, self.index)
        ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64,
                          count=len(tokens))
        index.default_factory = None  # a lookup of an unknown item raises again
        self.items.extend(itertools.islice(index, n, None))
        self.index = index
        return ids

    def freeze(self):
        """Make the interner read-only; ids stay as they are."""
        self.items = tuple(self.items)
        self.index = MappingProxyType(self.index)
        self.frozen = True

    def get(self, item: str):
        """Id of `item`, or None if it was never interned."""
        return self.index.get(item)

    def copy(self) -> "Interner":
        return Interner(self.items)

    def __getitem__(self, idx: int) -> str:
        return self.items[idx]

    def __contains__(self, item: str) -> bool:
        return item in self.index

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __eq__(self, other):
        return isinstance(other, Interner) and tuple(self.items) == tuple(other.items)

    def __repr__(self):
        return f"Interner({len(self.items)} items)"


def normalize_counts(counts) -> dict:
    """Turn a non-negative count map into empirical frequencies.

    Raises EmptySupport when no entry is positive.
    """
    if any(v < 0 for v in counts.values()):
        raise ValueError("counts must be non-negative")
    total = sum(counts.values())
    if total == 0:
        raise EmptySupport("cannot normalize a table with no positive count")
    return {k: v / total for k, v in counts.items()}


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


@dataclass(eq=False)
class PmcParams:
    """Pairwise Markov chain parameters, all sparse.

    pi2[(i, k)] is the joint initial probability of (label i, word k).
    trans2[(i, k)] is a dense vector over next labels j. emit2[(i, k, j)]
    maps next word l to its probability. Absent keys mean probability 0.
    """

    pi2: dict[tuple[int, int], float]
    trans2: dict[tuple[int, int], np.ndarray]
    emit2: dict[tuple[int, int, int], dict[int, float]]

    def validate(self, tol=PROB_TOL):
        total = sum(self.pi2.values())
        if abs(total - 1.0) > tol:
            raise AssertionError(f"pi2 sums to {total!r}")
        for key, row in self.trans2.items():
            if abs(row.sum() - 1.0) > tol:
                raise AssertionError(f"trans2[{key}] sums to {row.sum()!r}")
        for key, row in self.emit2.items():
            s = sum(row.values())
            if abs(s - 1.0) > tol:
                raise AssertionError(f"emit2[{key}] sums to {s!r}")


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
    interners are frozen when it is built, decoding only reads it, and
    online updates build a new one.
    """

    alphabet: Interner
    vocabulary: Interner
    counts: CountTables
    task: str
    suffix_max_len: int
    hmc: HmcParams = field(repr=False)
    features: "FeatureEmissionTables" = field(repr=False)  # noqa: F821 - defined in features.py
    index: "DecodeIndex" = field(repr=False)  # noqa: F821 - defined in inference.py

    def __post_init__(self):
        self.alphabet.freeze()
        self.vocabulary.freeze()

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
