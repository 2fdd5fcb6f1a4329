"""Exhaustive-enumeration references for inference, usable at tiny scale.

The enumerators score every one of the N^T label sequences against dense
parameter tables and are therefore exact up to float summation. The
decoder's factors for the same tables are built straight from the dense
arrays (`TinyInstance.factors`), for either decoder, and an HMC embeds as
a dense instance.
They ship with the package (not only the tests) so the CLI can self-check
against them on demand. fit_pmc is the sparse pairwise-chain estimator the
tests hold the decoder's count ratios to; no production path uses it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DeadEnd, EmptySentence, EmptySupport
from .inference import DECODERS, PMC_STEP, FactorProvider, LogFactors, _log
from .model import PROB_TOL, CountTables, HmcParams


@lru_cache(maxsize=None)
def _all_sequences(n_labels: int, length: int) -> np.ndarray:
    seqs = np.array(list(itertools.product(range(n_labels), repeat=length)),
                    dtype=np.int64)
    return seqs.reshape(-1, length)


@dataclass
class TinyInstance:
    """Dense PMC tables small enough to enumerate (N^T sequences).

    pi2 is (N, M); trans2 is (N, M, N) over the next label; emit2 is
    (N, M, N, M) over the next word.
    """

    pi2: np.ndarray
    trans2: np.ndarray
    emit2: np.ndarray
    obs: list[int]

    @property
    def n_labels(self) -> int:
        return self.pi2.shape[0]

    @property
    def n_words(self) -> int:
        return self.pi2.shape[1]

    def validate(self, tol=1e-9):
        assert abs(self.pi2.sum() - 1.0) < tol
        assert np.all(np.abs(self.trans2.sum(axis=2) - 1.0) < tol)
        assert np.all(np.abs(self.emit2.sum(axis=3) - 1.0) < tol)
        assert self.n_labels ** len(self.obs) <= 4 ** 7

    def sequence_scores(self) -> tuple[np.ndarray, np.ndarray]:
        """All label sequences (rows) and their joint scores with obs."""
        obs = self.obs
        seqs = _all_sequences(self.n_labels, len(obs))
        scores = self.pi2[seqs[:, 0], obs[0]].copy()
        for t in range(len(obs) - 1):
            scores *= self.trans2[seqs[:, t], obs[t], seqs[:, t + 1]]
            scores *= self.emit2[seqs[:, t], obs[t], seqs[:, t + 1], obs[t + 1]]
        return seqs, scores

    def factors(self, obs=None, decoder="mpm") -> FactorProvider | LogFactors:
        """Decoder factors for obs (default: self.obs), with no downgrade,
        resolved for decoder as resolve_factors resolves a sentence's.

        For "mpm", steps[t, i, j] = trans2[i, k, j] * emit2[i, k, j, l] for
        the word bigram (k, l) at t -> t + 1; all-zero rows contribute
        probability 0. For "map", the log stack adds the logs of the two
        tables, so an embedded HMC scores exactly as its own log
        transitions plus log emissions do, and LogFactors runs the
        decoders' own support pass over it, which finds the dead end.
        """
        if decoder not in DECODERS:
            raise ValueError(f"unknown decoder {decoder!r}")
        obs = np.asarray(self.obs if obs is None else obs, dtype=np.int64)
        if obs.size == 0:
            raise EmptySentence("empty observation sequence")
        k, l = obs[:-1], obs[1:]
        tables = np.asarray if decoder == "mpm" else _log
        # the two index arrays of emit2 are split by a slice, so numpy puts
        # the position axis first; trans2 keeps the label axis first
        trans = tables(self.trans2)[:, k, :].transpose(1, 0, 2)
        emit = tables(self.emit2)[:, k, :, l]
        initial, flags = self.pi2[:, obs[0]], [PMC_STEP] * obs.size
        if decoder == "mpm":
            return FactorProvider(initial, trans * emit, flags)
        return LogFactors(initial, (trans + emit).transpose(0, 2, 1), flags)

    @classmethod
    def random(cls, rng: np.random.Generator, n_max=4, m_max=5, t_max=7) -> "TinyInstance":
        """Draw a fully dense instance with normalized rows."""
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        t = int(rng.integers(1, t_max + 1))
        pi2 = rng.random((n, m))
        pi2 /= pi2.sum()
        trans2 = rng.random((n, m, n))
        trans2 /= trans2.sum(axis=2, keepdims=True)
        emit2 = rng.random((n, m, n, m))
        emit2 /= emit2.sum(axis=3, keepdims=True)
        obs = rng.integers(0, m, size=t).tolist()
        return cls(pi2=pi2, trans2=trans2, emit2=emit2, obs=obs)

    @classmethod
    def random_sparse(cls, rng: np.random.Generator, n_max=4, m_max=5, t_max=7,
                      zero_prob=0.5) -> "TinyInstance":
        """Like random() but with entries zeroed out.

        Rows keeping any mass are renormalized; fully annihilated rows stay
        all-zero, standing in for absent sparse keys. The joint probability
        of the observation may then be zero.
        """
        inst = cls.random(rng, n_max, m_max, t_max)

        def sparsify(a, axis):
            a = np.where(rng.random(a.shape) < zero_prob, 0.0, a)
            total = a.sum(axis=axis, keepdims=True)
            return np.divide(a, total, out=np.zeros_like(a), where=total > 0)

        inst.pi2 = sparsify(inst.pi2, axis=(0, 1))
        inst.trans2 = sparsify(inst.trans2, axis=2)
        inst.emit2 = sparsify(inst.emit2, axis=3)
        return inst


def enumerate_posteriors(instance: TinyInstance) -> np.ndarray:
    """Posterior label marginals by summing over every label sequence."""
    seqs, scores = instance.sequence_scores()
    total = scores.sum()
    if total == 0.0:
        raise DeadEnd(0)
    t_len, n = len(instance.obs), instance.n_labels
    post = np.empty((t_len, n))
    for t in range(t_len):
        for i in range(n):
            post[t, i] = scores[seqs[:, t] == i].sum()
    return post / post.sum(axis=1, keepdims=True)


def enumerate_map(instance: TinyInstance):
    """Exhaustive argmax over label sequences.

    Returns (path, log_score); ties keep the first maximum, which is the
    lexicographically smallest sequence because sequences are enumerated
    in lexicographic order.
    """
    seqs, scores = instance.sequence_scores()
    best = int(scores.argmax())
    if scores[best] == 0.0:
        raise DeadEnd(0)
    return seqs[best].copy(), float(np.log(scores[best]))


def embed_hmc_as_pmc(hmc: HmcParams) -> TinyInstance:
    """Express an HMC as a dense PMC instance with no observations.

    With b = hmc.emit, the (N, M) emission matrix: pi2 = pi[:, None] * b,
    trans2[i, k] copies the label transitions for every word, and
    emit2[i, k, j] = b[j] depends only on the next label. Labels without
    support keep their all-zero trans and emission rows. PMC inference on
    the result reproduces HMC inference, as inference.resolve_factors runs
    it in mode "hmc": the tests hold the two to 1e-12 and to equal paths.
    """
    b = hmc.emit
    n, m = b.shape
    return TinyInstance(
        pi2=hmc.pi[:, None] * b,
        trans2=np.repeat(hmc.trans[:, None, :], m, axis=1),
        emit2=np.broadcast_to(b, (n, m, n, m)).copy(),
        obs=[])


def random_hmc(rng: np.random.Generator, n_max=4, m_max=5) -> HmcParams:
    """Dense random HMC with strictly positive entries, for equivalence tests."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    pi = rng.random(n) + 0.05
    pi /= pi.sum()
    trans = rng.random((n, n)) + 0.05
    trans /= trans.sum(axis=1, keepdims=True)
    emit = rng.random((n, m)) + 0.05
    emit /= emit.sum(axis=1, keepdims=True)
    return HmcParams(pi=pi, trans=trans, emit=emit)


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


def fit_pmc(counts: CountTables) -> PmcParams:
    """Pairwise-chain parameters; keys with zero denominator stay absent."""
    n = counts.n_labels
    n0_ik, n_ikjl = counts.n0_ik, counts.n_ikjl
    pi2 = {(i, k): c / counts.L
           for i, k, c in zip(*(a.tolist() for a in (*n0_ik.columns, n0_ik.counts)))}
    rows: dict[tuple[int, int, int], dict[int, int]] = {}
    m_ik: dict[tuple[int, int], int] = {}
    for i, k, j, l, c in zip(*(a.tolist() for a in (*n_ikjl.columns, n_ikjl.counts))):
        rows.setdefault((i, k, j), {})[l] = c
        m_ik[i, k] = m_ik.get((i, k), 0) + c
    trans2: dict[tuple[int, int], np.ndarray] = {}
    for (i, k, j), row in rows.items():
        vec = trans2.get((i, k))
        if vec is None:
            vec = np.zeros(n, dtype=np.float64)
            trans2[(i, k)] = vec
        # divided like the package's int64 arrays: each count rounded to float64
        vec[j] = sum(row.values()) / np.int64(m_ik[i, k])
    emit2 = {key: normalize_counts(row) for key, row in rows.items()}
    return PmcParams(pi2=pi2, trans2=trans2, emit2=emit2)
