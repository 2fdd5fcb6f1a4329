"""Parameter containers for hidden and pairwise Markov chain models.

All hot-path tables are keyed by dense integer ids produced by interning
words and labels once at training time. Sparse tables are plain dicts;
only the label-transition matrix of the hidden chain is dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    transition probability and emit[(i, k)] the probability of word k
    under label i. Labels whose transition row has no observations are
    stored as all-zero rows with trans_support[i] == False.
    """

    pi: np.ndarray
    trans: np.ndarray
    trans_support: np.ndarray
    emit: dict[tuple[int, int], float]

    @property
    def n_labels(self) -> int:
        return self.pi.shape[0]

    def validate(self, tol=PROB_TOL):
        if abs(self.pi.sum() - 1.0) > tol:
            raise AssertionError(f"pi sums to {self.pi.sum()!r}")
        for i in range(self.n_labels):
            row = self.trans[i].sum()
            if self.trans_support[i]:
                if abs(row - 1.0) > tol:
                    raise AssertionError(f"transition row {i} sums to {row!r}")
            elif row != 0.0:
                raise AssertionError(f"zero-support row {i} is not all-zero")
        emit_row = {}
        for (i, _), p in self.emit.items():
            emit_row[i] = emit_row.get(i, 0.0) + p
        for i, total in emit_row.items():
            if abs(total - 1.0) > tol:
                raise AssertionError(f"emission row {i} sums to {total!r}")

    def __eq__(self, other):
        return (
            isinstance(other, HmcParams)
            and np.array_equal(self.pi, other.pi)
            and np.array_equal(self.trans, other.trans)
            and np.array_equal(self.trans_support, other.trans_support)
            and self.emit == other.emit
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


@dataclass(eq=False)
class CountTables:
    """Raw pattern counts plus cached marginals.

    n_ikjl counts adjacent patterns (label i, word k, label j, word l) and
    n0_ik chain-initial (label, word) pairs; these two are the model's
    only stored state. Everything else follows by summation: the chain
    count L and n0_i over n0_ik, n_ij over k and l, m_ik over j and l,
    and n_i over j.
    """

    n0_ik: dict[tuple[int, int], int]
    n_ikjl: dict[tuple[int, int, int, int], int]
    n0_i: np.ndarray = field(repr=False)
    L: int
    n_ij: np.ndarray = field(repr=False)
    m_ik: dict[tuple[int, int], int] = field(repr=False)
    n_i: np.ndarray = field(repr=False)

    @classmethod
    def from_raw(cls, n_labels, n0_ik, n_ikjl) -> "CountTables":
        """Build the table set from raw counts, computing all marginals."""
        n0_i = np.zeros(n_labels, dtype=np.int64)
        for (i, _), c in n0_ik.items():
            n0_i[i] += c
        n_ij = np.zeros((n_labels, n_labels), dtype=np.int64)
        m_ik: dict[tuple[int, int], int] = {}
        for (i, k, j, l), c in n_ikjl.items():
            n_ij[i, j] += c
            m_ik[(i, k)] = m_ik.get((i, k), 0) + c
        n_i = n_ij.sum(axis=1)
        return cls(n0_ik=n0_ik, n_ikjl=n_ikjl, n0_i=n0_i, L=sum(n0_ik.values()),
                   n_ij=n_ij, m_ik=m_ik, n_i=n_i)

    @property
    def n_labels(self) -> int:
        return self.n0_i.shape[0]

    def validate(self):
        """Recompute every marginal by exhaustive summation and compare."""
        if any(c < 0 for c in self.n_ikjl.values()):
            raise AssertionError("negative pattern count")
        fresh = CountTables.from_raw(self.n_labels, self.n0_ik, self.n_ikjl)
        if self.m_ik != fresh.m_ik:
            raise AssertionError("cached marginals disagree with summation")
        if not np.array_equal(self.n_ij, fresh.n_ij) or not np.array_equal(self.n_i, fresh.n_i):
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
    Immutable after training: share freely across concurrent decoders.
    Online updates build a new bundle rather than mutating in place.
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
        if self.counts.n_labels != len(self.alphabet):
            raise AssertionError("count tables and alphabet disagree on label count")

    def __eq__(self, other):
        return (
            isinstance(other, ModelBundle)
            and self.alphabet == other.alphabet
            and self.vocabulary == other.vocabulary
            and self.counts == other.counts
            and self.task == other.task
            and self.suffix_max_len == other.suffix_max_len
        )
