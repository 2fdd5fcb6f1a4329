"""Posterior marginals and best-path decoding for HMC and PMC.

Both models reduce to the same recursions over per-sentence factors: an
initial vector over labels and one transition-emission matrix per step.
In PMC mode a step whose observed word bigram has no training support is
downgraded to the HMC factor for that step only; emissions of unknown
words fall back to the orthographic feature model.

Forward-backward runs in scaled linear space (normalized at every step);
Viterbi runs in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DeadEnd, EmptySentence
from .features import feature_column
from .model import CountTables, HmcParams, ModelBundle

PMC_STEP = "pmc"
HMC_STEP = "downgraded-hmc"
PLAIN_HMC = "hmc"

MODES = ("hmc", "pmc")
DECODERS = ("mpm", "map")


@dataclass
class FactorProvider:
    """Resolved per-sentence factors.

    initial[i] is the factor over the first label; steps is a (T-1, N, N)
    array whose steps[t, i, j] is the transition-emission factor from
    label i at position t to label j at position t + 1. flags record which
    regime produced each factor, the initial resolution first.
    """

    initial: np.ndarray
    steps: np.ndarray
    flags: list[str]

    @property
    def length(self) -> int:
        return len(self.steps) + 1

    @property
    def n_labels(self) -> int:
        return self.initial.shape[0]

    @property
    def downgraded(self) -> int:
        return sum(1 for f in self.flags if f == HMC_STEP)


@dataclass(frozen=True, eq=False, repr=False, init=False)
class DecodeIndex:
    """Read-only lookup tables of the PMC factors, derived from the counts.

    training.bundle_from_counts builds one with every bundle, as its
    index field, so decoding only reads it. No field can be reassigned or
    deleted, and every array is read-only.

    pi2[i, k] is the PMC initial factor n0_ik / L, an (n_labels, n_words)
    array laid out like hmc.emit; a first word has PMC initial support
    exactly when its column has a positive entry.

    The PMC step factors form a CSR (compressed sparse row) index keyed by
    the word bigram code k * n_words + l. codes holds the distinct codes
    of the bigrams with a positive pattern count, in increasing order,
    followed by one sentinel above every code; the triples of codes[u]
    are the entries offsets[u]:offsets[u + 1] of i, j and ratios. A
    triple (i, j, n_ikjl / m_ik) is a non-zero entry of the PMC step
    factor trans2[i, k][j] * emit2[i, k, j][l], written as the single
    count ratio that product reduces to.
    """

    n_words: int
    pi2: np.ndarray
    codes: np.ndarray
    offsets: np.ndarray
    i: np.ndarray
    j: np.ndarray
    ratios: np.ndarray

    def __init__(self, counts: CountTables):
        n_words = counts.n_words
        pi2 = np.zeros(counts.m_ik.shape)
        pi2[tuple(counts.n0_ik.keys.T)] = counts.n0_ik.counts / counts.L
        i, k, j, l = counts.n_ikjl.keys.T
        c = counts.n_ikjl.counts
        code = k * n_words + l
        order = np.argsort(code, kind="stable")
        code = code[order]
        starts = np.flatnonzero(np.diff(code, prepend=-1))
        tables = {
            "pi2": pi2,
            "codes": np.append(code[starts], np.iinfo(np.int64).max),
            "offsets": np.append(starts, code.size),
            # int32 halves their size; a model with 2**31 labels could not
            # hold even one N x N step
            "i": i[order].astype(np.int32),
            "j": j[order].astype(np.int32),
            "ratios": (c / counts.m_ik[i, k])[order],
        }
        # a frozen dataclass sets its fields through object.__setattr__
        object.__setattr__(self, "n_words", n_words)
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def bigram_slots(self, wids) -> np.ndarray:
        """Position in codes of each adjacent word pair, -1 without support.

        wids holds one vocabulary id per word, -1 for an unknown word.
        """
        k, l = wids[:-1], wids[1:]
        code = np.where((k >= 0) & (l >= 0), k * self.n_words + l, -1)
        slots = np.searchsorted(self.codes, code)
        return np.where(self.codes[slots] == code, slots, -1)

    def write_pmc_steps(self, steps, slots):
        """Overwrite steps[t] with the PMC factor of bigram slots[t] >= 0."""
        at = np.flatnonzero(slots >= 0)
        lo = self.offsets[slots[at]]
        sizes = self.offsets[slots[at] + 1] - lo
        # triple positions: the slices lo[s]:lo[s] + sizes[s], concatenated
        pos = np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
        steps[at] = 0.0
        steps[np.repeat(at, sizes), self.i[pos], self.j[pos]] = self.ratios[pos]


def decode_index(model: ModelBundle) -> DecodeIndex:
    """The bundle's decode index; perfbench/run.py reads it through this name."""
    return model.index


def _emission_columns(model, sentence, wids) -> np.ndarray:
    """(T, N) emission columns: hmc.emit for known words, features otherwise."""
    cols = model.hmc.emit[:, wids].T
    for t in np.flatnonzero(wids < 0).tolist():
        cols[t] = feature_column(model.features, sentence[t], t)
    return cols


def _hmc_factors(hmc: HmcParams, cols) -> FactorProvider:
    """HMC factors for the (T, N) emission columns of a sentence."""
    return FactorProvider(initial=hmc.pi * cols[0], steps=hmc.trans * cols[1:, None, :],
                          flags=[PLAIN_HMC] * len(cols))


def _support(alive, step):
    """0/1 vector of the labels reachable through `step` from `alive`, or
    None when there is none.

    alive is a 0/1 vector and factors are non-negative, so the product is
    positive exactly where some alive label has a positive entry.
    """
    reached = np.sign(np.dot(alive, step))
    return reached if np.count_nonzero(reached) else None


def resolve_factors(model: ModelBundle, sentence, mode="pmc") -> FactorProvider:
    """Resolve the factor sequence for one sentence of word strings.

    In PMC mode, step t -> t+1 keeps the PMC factor when both words are
    known and the bigram pattern count is positive, and is downgraded to
    the HMC factor otherwise; the initial factor likewise uses the joint
    initial table when the first word has support there. A kept PMC step
    that would leave no label with forward support is downgraded as well:
    two individually supported bigrams need not agree on the label of the
    word they share, so a run of PMC factors can strand the forward
    recursion even though every factor has positive entries. Support is
    tracked as 0/1 vectors, since scaled forward cannot underflow; once a
    step leaves no label alive even as an HMC step, the sentence is a
    genuine dead end that the recursions report. In HMC mode all factors
    come from the hidden chain directly. Every step is written into one
    (T-1, N, N) stack.
    """
    if not sentence:
        raise EmptySentence("cannot resolve factors for an empty sentence")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    hmc = model.hmc
    vocabulary = model.vocabulary.index
    wids = np.array([vocabulary.get(w, -1) for w in sentence])
    cols = _emission_columns(model, sentence, wids)
    factors = _hmc_factors(hmc, cols)
    if mode == "hmc":
        return factors

    index, steps = model.index, factors.steps
    if wids[0] >= 0 and index.pi2[:, wids[0]].any():
        initial = index.pi2[:, wids[0]]
        flags = [PMC_STEP]
    else:
        initial = factors.initial
        flags = [HMC_STEP]
    slots = index.bigram_slots(wids)
    index.write_pmc_steps(steps, slots)
    flags += [PMC_STEP if u >= 0 else HMC_STEP for u in slots.tolist()]

    alive = np.sign(initial)  # forward support, checked until a dead end
    for t, step in enumerate(steps):
        reached = _support(alive, step)
        if reached is None and flags[t + 1] == PMC_STEP:
            np.multiply(hmc.trans, cols[t + 1], out=step)
            flags[t + 1] = HMC_STEP
            reached = _support(alive, step)
        if reached is None:
            break
        alive = reached
    return FactorProvider(initial=initial, steps=steps, flags=flags)


def factors_from_hmc(params: HmcParams, obs) -> FactorProvider:
    """Classic HMC factors for an id-encoded observation sequence."""
    if len(obs) == 0:
        raise EmptySentence("empty observation sequence")
    return _hmc_factors(params, params.emit[:, obs].T)


def forward(factors: FactorProvider):
    """Scaled forward pass.

    Returns (alpha, scales) where every alpha row sums to 1 and the
    unnormalized forward probabilities are alpha[t] * prod(scales[:t+1]).
    """
    t_len, n = factors.length, factors.n_labels
    alpha = np.empty((t_len, n))
    scales = np.empty(t_len)
    vec = factors.initial
    total = vec.sum()
    if total == 0.0:
        raise DeadEnd(0)
    alpha[0] = vec / total
    scales[0] = total
    for t, step in enumerate(factors.steps):
        vec = alpha[t] @ step
        total = vec.sum()
        if total == 0.0:
            raise DeadEnd(t + 1)
        alpha[t + 1] = vec / total
        scales[t + 1] = total
    return alpha, scales


def backward(factors: FactorProvider):
    """Scaled backward pass; the last row is uniform after normalization.

    Returns (beta, scales) with unnormalized backward probabilities equal
    to beta[t] * prod(scales[t:]).
    """
    t_len, n = factors.length, factors.n_labels
    beta = np.empty((t_len, n))
    scales = np.empty(t_len)
    beta[t_len - 1] = 1.0 / n
    scales[t_len - 1] = float(n)
    for t in range(t_len - 2, -1, -1):
        vec = factors.steps[t] @ beta[t + 1]
        total = vec.sum()
        if total == 0.0:
            raise DeadEnd(t)
        beta[t] = vec / total
        scales[t] = total
    return beta, scales


def posterior_marginals(factors: FactorProvider) -> np.ndarray:
    """T x N matrix of per-position label posteriors; rows sum to 1.

    The per-step scalings cancel inside each row, so the result equals the
    unscaled computation.
    """
    alpha, _ = forward(factors)
    beta, _ = backward(factors)
    prod = alpha * beta
    totals = prod.sum(axis=1)
    dead = np.flatnonzero(totals == 0.0)
    if dead.size:
        # forward and backward can each survive on disjoint supports when
        # no full path has positive probability
        raise DeadEnd(int(dead[0]))
    return prod / totals[:, None]


def mpm_path(factors: FactorProvider) -> np.ndarray:
    """Position-wise posterior argmax; ties go to the lowest label id."""
    return posterior_marginals(factors).argmax(axis=1)


# Log score of a zero factor. np.log can be several times slower on zeros
# than on positive numbers, so zeros get this finite stand-in, not -inf:
# any path through one scores below _LOG_ZERO / 2, any other path above it
# (a step adds at least log(5e-324) > -745).
_LOG_ZERO = -1e300


def _log(x) -> np.ndarray:
    zero = x == 0
    out = np.log(x + zero)  # log 1 = 0 where x is 0
    out += zero * _LOG_ZERO
    return out


def map_path(factors: FactorProvider):
    """Best label sequence under the resolved factors (max-product).

    Returns (path, log_score). Works in log space; among equal-scoring
    paths the lexicographically smallest id sequence is returned, obtained
    by maximizing suffix scores first and reconstructing front to back
    with argmax ties resolved to the lowest id.
    """
    t_len = factors.length
    # scores[t, i, j]: log step t plus the best suffix score from j at t + 1
    scores = _log(np.asarray(factors.steps))
    head = _log(factors.initial)
    suffix = 0.0
    for t in range(t_len - 2, -1, -1):
        scores[t] += suffix
        suffix = scores[t].max(axis=1)
    head += suffix
    best = head.max()
    if best < _LOG_ZERO / 2:
        forward(factors)  # raises DeadEnd at the first position without mass
        raise DeadEnd(t_len - 1)
    path = np.empty(t_len, dtype=np.int64)
    path[0] = head.argmax()
    for t in range(t_len - 1):
        path[t + 1] = scores[t, path[t]].argmax()
    return path, float(best)


@dataclass
class DecodeResult:
    """Labels plus the per-step regime flags for diagnostics."""

    labels: list[str]
    flags: list[str]
    log_score: float | None = None

    @property
    def downgraded(self) -> int:
        return sum(1 for f in self.flags if f == HMC_STEP)

    @property
    def resolutions(self) -> int:
        return len(self.flags)


def decode_sentence(model: ModelBundle, sentence, mode="pmc",
                    decoder="mpm") -> DecodeResult:
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    factors = resolve_factors(model, sentence, mode=mode)
    score = None
    if decoder == "mpm":
        ids = mpm_path(factors)
    else:
        ids, score = map_path(factors)
    labels = [model.alphabet[i] for i in ids]
    return DecodeResult(labels=labels, flags=factors.flags, log_score=score)


def decode_mpm(model: ModelBundle, sentence, mode="pmc") -> list[str]:
    """Marginal-posterior-mode labels for one sentence of word strings."""
    return decode_sentence(model, sentence, mode, "mpm").labels


def decode_map(model: ModelBundle, sentence, mode="pmc") -> list[str]:
    """Jointly most probable labels (Viterbi) for one sentence."""
    return decode_sentence(model, sentence, mode, "map").labels
