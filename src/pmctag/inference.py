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
from .features import backoff_level, extract_features
from .model import HmcParams, ModelBundle

PMC_STEP = "pmc"
HMC_STEP = "downgraded-hmc"
PLAIN_HMC = "hmc"

MODES = ("hmc", "pmc")
DECODERS = ("mpm", "map")


@dataclass
class FactorProvider:
    """Resolved per-sentence factors.

    initial[i] is the factor over the first label; steps[t][i, j] is the
    transition-emission factor from label i at position t to label j at
    position t + 1. flags record which regime produced each factor, the
    initial resolution first.
    """

    initial: np.ndarray
    steps: list[np.ndarray]
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


class DecodeIndex:
    """Read-only lookup structures derived from a trained bundle.

    emission_columns[k] and pi2_columns[k] hold the HMC emission and the
    PMC initial factor n0_ik / L of word k as vectors over labels.
    pair_labels maps an observed word bigram (k, l) to the triples
    (i, j, n_ikjl / m_ik) with a positive pattern count: the non-zero
    entries of the PMC step factor trans2[i, k][j] * emit2[i, k, j][l],
    written as the single count ratio that product reduces to.
    """

    def __init__(self, model: ModelBundle):
        n = len(model.alphabet)
        counts = model.counts
        self.n_labels = n
        self.emission_columns = _columns(model.hmc.emit.items(), n)
        self.pi2_columns = _columns(
            ((key, c / counts.L) for key, c in counts.n0_ik.items()), n)
        m_ik = counts.m_ik
        self.pair_labels: dict[tuple[int, int], list[tuple[int, int, float]]] = {}
        for (i, k, j, l), c in counts.n_ikjl.items():
            self.pair_labels.setdefault((k, l), []).append((i, j, c / m_ik[(i, k)]))
        self.zero_column = np.zeros(n)
        self.zero_column.setflags(write=False)


def _columns(items, n) -> dict[int, np.ndarray]:
    """Group ((label, word), value) entries into per-word label vectors."""
    columns: dict[int, np.ndarray] = {}
    for (i, k), p in items:
        col = columns.get(k)
        if col is None:
            col = np.zeros(n)
            columns[k] = col
        col[i] = p
    return columns


def decode_index(model: ModelBundle) -> DecodeIndex:
    index = model._decode_cache
    if index is None:
        index = DecodeIndex(model)
        model._decode_cache = index
    return index


def _feature_column(model: ModelBundle, word: str, position: int) -> np.ndarray:
    """Feature-model emission vector for a word outside the vocabulary."""
    tables = model.features
    m = backoff_level(tables, word)
    f = extract_features(word, position, m)
    table = tables.tables[m]
    n = len(model.alphabet)
    col = np.zeros(n)
    for i in range(n):
        col[i] = table.get((i, f.cap, f.hyphen, f.first, f.digit, f.suffix), 0.0)
    return col


def _emission_column(model, index, word, wid, position):
    if wid is None:
        return _feature_column(model, word, position)
    return index.emission_columns.get(wid, index.zero_column)


def _pmc_step_factor(index, triples):
    f = np.zeros((index.n_labels, index.n_labels))
    for i, j, p in triples:
        f[i, j] = p
    return f


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
    tracked as booleans, since scaled forward cannot underflow; once a
    step leaves no label alive even as an HMC step, the sentence is a
    genuine dead end that the recursions report. In HMC mode all factors
    come from the hidden chain directly.
    """
    if not sentence:
        raise EmptySentence("cannot resolve factors for an empty sentence")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    index = decode_index(model)
    hmc = model.hmc
    pmc = mode == "pmc"
    hmc_flag = HMC_STEP if pmc else PLAIN_HMC
    wids = [model.vocabulary.get(w) for w in sentence]

    if pmc and wids[0] in index.pi2_columns:
        initial = index.pi2_columns[wids[0]]
        flags = [PMC_STEP]
    else:
        initial = hmc.pi * _emission_column(model, index, sentence[0], wids[0], 0)
        flags = [hmc_flag]

    alive = initial > 0 if pmc else None  # forward support while still checked
    steps: list[np.ndarray] = []
    for t in range(len(sentence) - 1):
        l = wids[t + 1]
        step = None
        triples = index.pair_labels.get((wids[t], l)) if pmc else None
        if triples:
            step = _pmc_step_factor(index, triples)
            if alive is not None:
                nxt = (alive @ (step > 0)) > 0
                if not nxt.any():
                    step = None
        flags.append(hmc_flag if step is None else PMC_STEP)
        if step is None:
            col = _emission_column(model, index, sentence[t + 1], l, t + 1)
            step = hmc.trans * col[None, :]
            if alive is not None:
                nxt = (alive @ (step > 0)) > 0
        if alive is not None:
            alive = nxt if nxt.any() else None
        steps.append(step)
    return FactorProvider(initial=initial, steps=steps, flags=flags)


def factors_from_hmc(params: HmcParams, obs) -> FactorProvider:
    """Classic HMC factors for an id-encoded observation sequence."""
    if len(obs) == 0:
        raise EmptySentence("empty observation sequence")
    n = params.n_labels
    cols = []
    for k in obs:
        col = np.zeros(n)
        for i in range(n):
            col[i] = params.emit.get((i, k), 0.0)
        cols.append(col)
    initial = params.pi * cols[0]
    steps = [params.trans * cols[t + 1][None, :] for t in range(len(obs) - 1)]
    return FactorProvider(initial=initial, steps=steps,
                          flags=[PLAIN_HMC] * len(obs))


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


def _log(x):
    with np.errstate(divide="ignore"):
        return np.log(x)


def map_path(factors: FactorProvider):
    """Best label sequence under the resolved factors (max-product).

    Returns (path, log_score). Works in log space; among equal-scoring
    paths the lexicographically smallest id sequence is returned, obtained
    by maximizing suffix scores first and reconstructing front to back
    with argmax ties resolved to the lowest id.
    """
    t_len, n = factors.length, factors.n_labels
    log_steps = [_log(s) for s in factors.steps]
    suffix = np.zeros((t_len, n))
    for t in range(t_len - 2, -1, -1):
        suffix[t] = (log_steps[t] + suffix[t + 1][None, :]).max(axis=1)
    head = _log(factors.initial) + suffix[0]
    best = head.max()
    if best == -np.inf:
        forward(factors)  # raises DeadEnd at the first position without mass
        raise DeadEnd(t_len - 1)
    path = np.empty(t_len, dtype=np.int64)
    path[0] = head.argmax()
    for t in range(t_len - 1):
        path[t + 1] = (log_steps[t][path[t]] + suffix[t + 1]).argmax()
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
