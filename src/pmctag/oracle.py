"""Exhaustive-enumeration references for inference, usable at tiny scale.

The enumerators score every one of the N^T label sequences against dense
parameter tables and are therefore exact up to float summation. The
decoder's factors for the same tables are built straight from the dense
arrays (`TinyInstance.factors`), and an HMC embeds as a dense instance.
They ship with the package (not only the tests) so the CLI can self-check
against them on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DeadEnd, EmptySentence
from .inference import PMC_STEP, FactorProvider
from .model import HmcParams


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

    def factors(self, obs=None) -> FactorProvider:
        """Decoder factors for obs (default: self.obs), with no downgrade.

        steps[t][i, j] = trans2[i, k, j] * emit2[i, k, j, l] for the word
        bigram (k, l) at t -> t + 1; all-zero rows contribute probability 0.
        """
        obs = np.asarray(self.obs if obs is None else obs, dtype=np.int64)
        if obs.size == 0:
            raise EmptySentence("empty observation sequence")
        k, l = obs[:-1], obs[1:]
        # the two index arrays of emit2 are split by a slice, so numpy puts
        # the position axis first; trans2 keeps the label axis first
        steps = self.trans2[:, k, :].transpose(1, 0, 2) * self.emit2[:, k, :, l]
        return FactorProvider(initial=self.pi2[:, obs[0]], steps=list(steps),
                              flags=[PMC_STEP] * obs.size)

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
    the result reproduces HMC inference.
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
    return HmcParams(pi=pi, trans=trans,
                     trans_support=np.ones(n, dtype=bool), emit=emit)
