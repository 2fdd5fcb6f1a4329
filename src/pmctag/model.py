"""Parameter containers for hidden and pairwise Markov chain models.

All hot-path tables are keyed by dense integer ids produced by interning
words and labels once at training time. The raw pattern counts are dicts
keyed by id tuples; every table derived from them is a dense NumPy array:
label-by-label tables are (n_labels, n_labels) and label-by-word tables
are (n_labels, n_words), sized by the vocabulary, so a word without any
entry has an all-zero column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import EmptySupport

PROB_TOL = 1e-12


class Interner:
    """Append-only bijection between strings and contiguous integer ids."""

    def __init__(self, items=()):
        self.items: list[str] = []
        self.index: dict[str, int] = {}
        for item in items:
            self.intern(item)

    def intern(self, item: str) -> int:
        idx = self.index.get(item)
        if idx is None:
            idx = len(self.items)
            self.items.append(item)
            self.index[item] = idx
        return idx

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
        return isinstance(other, Interner) and self.items == other.items

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


@dataclass(eq=False)
class HmcParams:
    """Hidden Markov chain parameters.

    pi[i] is the initial label probability, trans[i, j] the label
    transition probability and emit[i, k] the probability of word k under
    label i, an (n_labels, n_words) array. Labels whose rows have no
    observations are stored as all-zero trans and emit rows with
    trans_support[i] == False.
    """

    pi: np.ndarray
    trans: np.ndarray
    trans_support: np.ndarray
    emit: np.ndarray

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

    def __eq__(self, other):
        if not isinstance(other, PmcParams):
            return NotImplemented
        if self.pi2 != other.pi2 or self.emit2 != other.emit2:
            return False
        if self.trans2.keys() != other.trans2.keys():
            return False
        return all(np.array_equal(v, other.trans2[k]) for k, v in self.trans2.items())


def count_columns(table, width):
    """Key columns and counts of a dict keyed by width-tuples of ids.

    Returns (keys, counts): keys is a (width, len(table)) int64 array
    whose rows are the key positions, counts the int64 values, both in
    the dict's iteration order.
    """
    n = len(table)
    keys = np.fromiter(chain.from_iterable(table), dtype=np.int64, count=width * n)
    counts = np.fromiter(table.values(), dtype=np.int64, count=n)
    return keys.reshape(n, width).T, counts


def _summed(shape, index, counts) -> np.ndarray:
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, index, counts)
    return out


@dataclass(eq=False)
class CountTables:
    """Raw pattern counts plus cached marginals.

    n_ikjl counts adjacent patterns (label i, word k, label j, word l) and
    n0_ik chain-initial (label, word) pairs; these two dicts are the
    model's only stored state. Everything else follows by summation into
    dense int64 arrays: the chain count L and n0_i over n0_ik, n_ij over
    k and l, m_ik over j and l, and n_i over j. m_ik is (n_labels,
    n_words); a word that never starts a pattern (one seen only at the
    end of sentences) has an all-zero column.
    """

    n0_ik: dict[tuple[int, int], int]
    n_ikjl: dict[tuple[int, int, int, int], int]
    n0_i: np.ndarray = field(repr=False)
    L: int
    n_ij: np.ndarray = field(repr=False)
    m_ik: np.ndarray = field(repr=False)
    n_i: np.ndarray = field(repr=False)

    @classmethod
    def from_raw(cls, n_labels, n_words, n0_ik, n_ikjl) -> "CountTables":
        """Build the table set from raw counts, computing all marginals."""
        (i0, _), c0 = count_columns(n0_ik, 2)
        (i, k, j, _), c = count_columns(n_ikjl, 4)
        n_ij = _summed((n_labels, n_labels), (i, j), c)
        return cls(n0_ik=n0_ik, n_ikjl=n_ikjl, n0_i=_summed(n_labels, i0, c0),
                   L=sum(n0_ik.values()), n_ij=n_ij,
                   m_ik=_summed((n_labels, n_words), (i, k), c), n_i=n_ij.sum(axis=1))

    @property
    def n_labels(self) -> int:
        return self.n0_i.shape[0]

    @property
    def n_words(self) -> int:
        return self.m_ik.shape[1]

    def validate(self):
        """Recompute every marginal by exhaustive summation and compare."""
        if any(c < 0 for c in self.n_ikjl.values()):
            raise AssertionError("negative pattern count")
        fresh = CountTables.from_raw(self.n_labels, self.n_words, self.n0_ik, self.n_ikjl)
        if not all(np.array_equal(getattr(self, name), getattr(fresh, name))
                   for name in ("n_ij", "m_ik", "n_i")):
            raise AssertionError("cached marginals disagree with summation")
        if not np.array_equal(self.n0_i, fresh.n0_i) or self.L != fresh.L:
            raise AssertionError("initial counts disagree with summation")

    def __eq__(self, other):
        return (
            isinstance(other, CountTables)
            and self.n_labels == other.n_labels
            and self.n0_ik == other.n0_ik
            and self.n_ikjl == other.n_ikjl
        )


@dataclass(eq=False)
class ModelBundle:
    """A trained PMC with its fallback HMC and feature model.

    Only the interners, the raw counts, the task and the suffix length are
    state; hmc and features are derived from them, and the PMC factors are
    count ratios the decoder reads from counts directly. Build bundles with
    training.bundle_from_counts, which attaches the derived tables.
    Training never changes a bundle: online updates build a new one. The
    first decode stores the decoder's lookup tables in _decode_cache
    (inference.decode_index), the one attribute set after construction.
    """

    alphabet: Interner
    vocabulary: Interner
    counts: CountTables
    task: str
    suffix_max_len: int
    hmc: HmcParams = field(init=False, repr=False)
    features: "FeatureEmissionTables" = field(init=False, repr=False)  # noqa: F821 - defined in features.py
    _decode_cache: object = field(default=None, init=False, repr=False)

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
