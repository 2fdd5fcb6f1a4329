"""Posterior marginals and best-path decoding for HMC and PMC.

Both models reduce to the same recursions over per-sentence factors: an
initial vector over labels and one transition-emission matrix per step.
In PMC mode a step whose observed word bigram has no training support is
downgraded to the HMC factor for that step only; emissions of unknown
words fall back to the orthographic feature model.

Forward-backward runs in scaled linear space: each step is one
vector-matrix product, and the rows are normalized once per block of
_BLOCK steps. The forward pass runs when the factors are built, so it
also finds the downgrades and the dead end. Viterbi runs in log space
from log tables: the model's log transitions, the sentence's log
emission columns and the logs of its PMC ratios.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import DeadEnd, EmptySentence
from .features import feature_column
from .model import CountTables, HmcParams, ModelBundle

PMC_STEP = "pmc"
HMC_STEP = "downgraded-hmc"
PLAIN_HMC = "hmc"

MODES = ("hmc", "pmc")
DECODERS = ("mpm", "map")

# Rows of the scaled recursions are normalized once every _BLOCK steps.
# The factors are probabilities, so within a block the forward mass only
# shrinks and a backward row holds at most N times the mass of the row
# before it: when the block's last row keeps more than _TINY, no row of
# the block came near underflow. Otherwise the step into the block's first
# row with _TINY or less is redone from the normalized row before it, and
# the next block starts after that step. Inside a block an entry can
# still underflow to zero once it falls below about 5e-324 / _TINY =
# 5e-124 of its row's mass, where per-step normalization keeps entries
# down to about 5e-324 of the mass. So a row that comes out empty is
# judged by the exact support (_reaches), and if that is not empty, the
# recursion is redone with blocks of one step.
_BLOCK = 16
_TINY = 1e-200


def _reaches(first, mats, rows, s) -> bool:
    """Whether the exact 0/1 support at position s reaches a label through mats[s].

    The exact support of a position is the set of labels that some path
    of positive factors from first reaches; underflow cannot change it.
    It is the support of rows[s] when, at every position up to s, the row
    holds exactly the labels that the row before reaches, which one
    batched product checks. Otherwise it is rebuilt step by step.
    """
    live = np.sign(rows[:s + 1])
    reach = np.sign(np.matmul(live[:, None, :], mats[:s + 1])[:, 0])
    if (live[0] == np.sign(first)).all() and (live[1:] == reach[:-1]).all():
        return bool(reach[-1].any())
    support = first > 0
    for mat in mats[:s + 1]:
        support = np.dot(support, mat) > 0
    return bool(support.any())


def _chain(first, mats, rows, scales, rescue=None, block=_BLOCK) -> int | None:
    """Scaled recursion rows[s + 1] ~ rows[s] @ mats[s] from rows[0] ~ first.

    Fills rows with normalized rows and scales with row masses, so that
    rows[s] * prod(scales[:s + 1]) is the unscaled recursion, and returns
    the first position whose row has no mass, or None. Each step is one
    vector-matrix product into the next row, and each block of rows is
    normalized at once. When the step into a row leaves it empty and the
    exact support does not reach past it either, rescue(s) may replace
    mats[s] before the step is redone; with no mass at position 0 no label
    reaches step 0 either, so rescue(0) is offered before giving up there.
    A row left empty although the exact support reaches past it lost its
    entries to underflow inside a block, and the recursion is redone with
    blocks of one step.
    """
    total = np.add.reduce(first)
    if total == 0.0:
        if rescue is not None and len(mats):
            rescue(0)
        return 0
    np.divide(first, total, out=rows[0])
    scales[0] = total
    dot, add, row, mat = np.dot, np.add.reduce, list(rows), list(mats)
    lo, n_steps = 0, len(mat)
    while lo < n_steps:
        hi = min(lo + block, n_steps)
        for s in range(lo, hi):
            dot(row[s], mat[s], out=row[s + 1])
        mass = add(rows[lo + 1:hi + 1], axis=1)
        low = mass[-1] <= _TINY
        if low:  # keep the rows before the first one low on mass,
            hi = lo + int((mass <= _TINY).argmax())
            mass = mass[:hi - lo]
        rows[lo + 1:hi + 1] /= mass[:, None]
        scales[lo + 1:hi + 1] = mass
        scales[lo + 2:hi + 1] /= mass[:-1]
        if low:  # and redo the step into it from a normalized row
            total = add(dot(row[hi], mat[hi], out=row[hi + 1]))
            if total == 0.0 and rescue is not None and not _reaches(first, mats, rows, hi):
                rescue(hi)
                total = add(dot(row[hi], mat[hi], out=row[hi + 1]))
            if total == 0.0:
                if block > 1 and _reaches(first, mats, rows, hi):
                    return _chain(first, mats, rows, scales, rescue, block=1)
                return hi + 1
            row[hi + 1] /= total
            scales[hi + 1] = total
            hi += 1
        lo = hi
    return None


@dataclass(eq=False)
class FactorProvider:
    """Resolved per-sentence factors and their forward pass.

    initial[i] is the factor over the first label; steps is a (T-1, N, N)
    array whose steps[t, i, j] is the transition-emission factor from
    label i at position t to label j at position t + 1. flags record which
    regime produced each factor, the initial resolution first.

    Building one runs the scaled forward pass: alpha holds its normalized
    rows, scales the row masses, and dead the first position without
    forward mass, or None. rescue is handed to that pass (see _chain).
    log_steps returns a fresh (T-1, N, N) stack of log factors for Viterbi,
    built from the producer's log tables and laid out [t, j, i]: the log of
    steps[t, i, j].
    """

    initial: np.ndarray
    steps: np.ndarray
    flags: list[str]
    log_steps: Callable[[], np.ndarray] = field(repr=False)
    rescue: InitVar[Callable[[int], None] | None] = None
    alpha: np.ndarray = field(init=False, repr=False)
    scales: np.ndarray = field(init=False, repr=False)
    dead: int | None = field(init=False)

    def __post_init__(self, rescue):
        n = len(self.initial)
        self.steps = np.ascontiguousarray(self.steps, dtype=np.float64).reshape(-1, n, n)
        self.alpha = np.empty((len(self.steps) + 1, n))
        self.scales = np.empty(len(self.steps) + 1)
        self.dead = _chain(self.initial, self.steps, self.alpha, self.scales, rescue)

    @property
    def length(self) -> int:
        return len(self.steps) + 1

    @property
    def n_labels(self) -> int:
        return self.initial.shape[0]


@dataclass(frozen=True, eq=False, repr=False, init=False)
class DecodeIndex:
    """Read-only lookup tables of the PMC factors, derived from the counts.

    training.bundle_from_counts builds one with every bundle, as its
    index field, so decoding only reads it. No field can be reassigned or
    deleted, and every array is read-only.

    The PMC initial factors pi2[i, k] = n0_ik / L form a per-word CSR
    table: the chain-initial labels of word k and their factors are
    pi2_labels and pi2_values at pi2_offsets[k]:pi2_offsets[k + 1], labels
    ascending. pi2_column(k) expands one word's column over all labels; a
    first word has PMC initial support exactly when that column has an
    entry.

    The PMC step factors form a CSR (compressed sparse row) index keyed by
    the word bigram code k * n_words + l. codes holds the distinct codes
    of the bigrams with a positive pattern count, in increasing order,
    followed by one sentinel above every code; the triples of codes[u]
    are the entries offsets[u]:offsets[u + 1] of flat and ratios. A
    triple (i * n_labels + j, n_ikjl / m_ik) is a non-zero entry of the
    PMC step factor trans2[i, k][j] * emit2[i, k, j][l], at its offset in
    the flattened N x N step, written as the single count ratio that
    product reduces to; m_ik comes run by run (CountTables.m_ik_runs).

    log_trans_t is the log of the HMC transitions `trans`, transposed:
    log_trans_t[j, i] = log trans[i, j], the layout of Viterbi's score
    steps, to which it adds the log emission columns of the HMC steps.
    """

    n_words: int
    pi2_offsets: np.ndarray
    pi2_labels: np.ndarray
    pi2_values: np.ndarray
    codes: np.ndarray
    offsets: np.ndarray
    flat: np.ndarray
    ratios: np.ndarray
    log_trans_t: np.ndarray

    def __init__(self, counts: CountTables, trans: np.ndarray):
        n_words = counts.n_words
        first_labels, first_words = counts.n0_ik.columns
        by_word = np.argsort(first_words, kind="stable")
        pi2_offsets = np.zeros(n_words + 1, dtype=np.int64)
        np.cumsum(np.bincount(first_words, minlength=n_words), out=pi2_offsets[1:])
        i, k, j, l = counts.n_ikjl.columns
        order, codes, offsets = _bigram_runs(k, l, n_words)
        runs, m_ik = counts.m_ik_runs()
        ratios = m_ik.astype(np.float64).repeat(np.diff(runs, append=len(order)))
        np.divide(counts.n_ikjl.counts, ratios, out=ratios)
        ratios = ratios[order]
        # int32 halves their size; a model whose N x N offsets overflow
        # it could not hold even one N x N step
        flat = i[order].astype(np.int32)
        flat *= counts.n_labels
        flat += j[order]
        tables = {
            "pi2_offsets": pi2_offsets,
            "pi2_labels": first_labels[by_word],
            "pi2_values": (counts.n0_ik.counts / counts.L)[by_word],
            "codes": codes,
            "offsets": offsets,
            "flat": flat,
            "ratios": ratios,
            "log_trans_t": _log(trans.T),
        }
        # a frozen dataclass sets its fields through object.__setattr__
        object.__setattr__(self, "n_words", n_words)
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def pi2_column(self, k) -> np.ndarray | None:
        """The PMC initial factors pi2[:, k] of first word k, None if all are zero."""
        lo, hi = self.pi2_offsets[k], self.pi2_offsets[k + 1]
        if lo == hi:
            return None
        column = np.zeros(len(self.log_trans_t))
        column[self.pi2_labels[lo:hi]] = self.pi2_values[lo:hi]
        return column

    def bigram_slots(self, wids) -> np.ndarray:
        """Position in codes of each adjacent word pair, -1 without support.

        wids holds one vocabulary id per word, -1 for an unknown word.
        """
        k, l = wids[:-1], wids[1:]
        # an unknown first word gives a code below 0 as well
        code = np.where(l >= 0, k * self.n_words + l, -1)
        slots = self.codes.searchsorted(code)
        return np.where(self.codes[slots] == code, slots, -1)

    def write_pmc_steps(self, steps, slots):
        """Overwrite steps[t] with the PMC factor of bigram slots[t] >= 0.

        Returns the triples written, as the arrays (t, flat, ratios): the
        step, the offset in the flattened step and the value.
        """
        at = (slots >= 0).nonzero()[0]
        lo = self.offsets[slots[at]]
        sizes = self.offsets[slots[at] + 1] - lo
        t = at.repeat(sizes)
        # triple positions: the slices lo[s]:lo[s] + sizes[s], concatenated
        pos = np.arange(t.size) + (lo - sizes.cumsum() + sizes).repeat(sizes)
        flat, ratios = self.flat[pos], self.ratios[pos]
        steps[at] = 0.0
        _flat_steps(steps)[t, flat] = ratios
        return t, flat, ratios


def _bigram_runs(k, l, n_words):
    """(order, codes, offsets) of the bigram codes k * n_words + l.

    order sorts the codes stably, codes holds the distinct ones in
    increasing order followed by a sentinel above every code, and the
    rows order[offsets[u]:offsets[u + 1]] are the ones with codes[u].
    """
    code = k.astype(np.int64)
    code *= n_words
    code += l
    order = np.argsort(code, kind="stable")
    code.sort()  # the values of code[order], sorted in place
    new = np.ones(len(code), dtype=bool)
    np.not_equal(code[1:], code[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return (order, np.append(code[starts], np.iinfo(np.int64).max),
            np.append(starts, code.size))


def _flat_steps(steps) -> np.ndarray:
    """(T-1, N * N) view of a (T-1, N, N) stack; a triple's flat offset indexes a row."""
    return steps.reshape(len(steps), steps.shape[1] * steps.shape[2])


def decode_index(model: ModelBundle) -> DecodeIndex:
    """The bundle's decode index; perfbench/run.py reads it through this name."""
    return model.index


# Log score of a zero factor. np.log can be several times slower on zeros
# than on positive numbers, so zeros get this finite stand-in, not -inf:
# any path through one scores below _LOG_ZERO / 2, any other path above it
# (a step adds at least log(5e-324) > -745).
_LOG_ZERO = -1e300


def _log(x) -> np.ndarray:
    out = np.full(np.shape(x), _LOG_ZERO)
    np.log(x, out=out, where=x > 0)
    return out


# Both builders below repeat the emission column over a whole N x N step
# before the transition table is combined with it, which numpy does
# several times faster than a broadcast.

def _hmc_steps(trans, cols) -> np.ndarray:
    """(T-1, N, N) stack of the HMC factors trans[i, j] * cols[t + 1][j]."""
    steps = cols[1:, None, :].repeat(len(trans), axis=1)
    np.multiply(steps, trans, out=steps)
    return steps


def _log_steps(log_trans_t, cols, kept, t, flat, ratios) -> np.ndarray:
    """(T-1, N, N) log factors of a sentence for Viterbi, laid out [t, j, i].

    Step t is log_trans_t plus the log of the emission column cols[t + 1]
    over its rows, unless kept[t] marks it a PMC step: then it holds the
    logs of its triples, the ratios at (t, flat) as write_pmc_steps
    returned them, and _LOG_ZERO elsewhere. kept is read when the stack is
    built, so after every rescue.
    """
    n = len(log_trans_t)
    # a kept step starts from _LOG_ZERO, which adding a log transition
    # leaves at _LOG_ZERO or below, and gets its ratios
    log_cols = _log(cols)
    log_cols[1:][kept] = _LOG_ZERO
    scores = log_cols[1:, :, None].repeat(n, axis=2)
    scores += log_trans_t
    live = kept[t]
    i, j = np.divmod(flat[live], n)
    _flat_steps(scores)[t[live], j * n + i] = np.log(ratios[live])
    return scores


def _hmc_factors(hmc: HmcParams, cols, log_trans_t) -> FactorProvider:
    """HMC factors for the (T, N) emission columns of a sentence."""
    none = np.empty(0, dtype=np.intp)  # no step is PMC, there are no triples
    return FactorProvider(initial=hmc.pi * cols[0], steps=_hmc_steps(hmc.trans, cols),
                          flags=[PLAIN_HMC] * len(cols),
                          log_steps=partial(_log_steps, log_trans_t, cols,
                                            np.zeros(len(cols) - 1, dtype=bool),
                                            none, none, np.empty(0)))


def resolve_factors(model: ModelBundle, sentence, mode="pmc") -> FactorProvider:
    """Resolve the factor sequence for one sentence of word strings.

    In PMC mode, step t -> t+1 keeps the PMC factor when both words are
    known and the bigram pattern count is positive, and is downgraded to
    the HMC factor otherwise; the initial factor likewise uses the joint
    initial table when the first word has support there. A kept PMC step
    that would leave no label with forward support is downgraded as well:
    two individually supported bigrams need not agree on the label of the
    word they share, so a run of PMC factors can strand the forward
    recursion even though every factor has positive entries. The forward
    pass finds these steps: a kept PMC step is downgraded exactly when its
    forward row is empty and the exact 0/1 support, which cannot
    underflow, is empty too (see _chain). Once a step leaves no label alive
    even as an HMC step, the sentence is a genuine dead end that the
    recursions report. In HMC mode all factors come from the hidden chain
    directly. Every step is written into one (T-1, N, N) stack.
    """
    if not sentence:
        raise EmptySentence("cannot resolve factors for an empty sentence")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    hmc, index = model.hmc, model.index
    vocabulary = model.vocabulary.index
    ids = [vocabulary.get(w, -1) for w in sentence]
    wids = np.array(ids)
    # (T, N) emission columns: hmc.emit for known words, features otherwise
    cols = hmc.emit.T[wids]
    for pos, word_id in enumerate(ids):
        if word_id < 0:
            cols[pos] = feature_column(model.features, sentence[pos], pos)
    if mode == "hmc":
        return _hmc_factors(hmc, cols, index.log_trans_t)

    initial = index.pi2_column(ids[0]) if ids[0] >= 0 else None
    if initial is not None:
        flags = [PMC_STEP]
    else:
        initial = hmc.pi * cols[0]
        flags = [HMC_STEP]
    steps = _hmc_steps(hmc.trans, cols)
    slots = index.bigram_slots(wids)
    kept = slots >= 0
    t, flat, ratios = index.write_pmc_steps(steps, slots)
    flags += [PMC_STEP if k else HMC_STEP for k in kept.tolist()]

    def rescue(s):
        """Downgrade step s to its HMC factor if it is a kept PMC step."""
        if kept[s]:
            np.multiply(hmc.trans, cols[s + 1], out=steps[s])
            kept[s] = False
            flags[s + 1] = HMC_STEP

    return FactorProvider(initial, steps, flags,
                          partial(_log_steps, index.log_trans_t, cols, kept, t, flat, ratios),
                          rescue)


def factors_from_hmc(params: HmcParams, obs) -> FactorProvider:
    """Classic HMC factors for an id-encoded observation sequence."""
    if len(obs) == 0:
        raise EmptySentence("empty observation sequence")
    return _hmc_factors(params, params.emit.T[np.asarray(obs)], _log(params.trans.T))


def forward(factors: FactorProvider):
    """Scaled forward pass, as run when the factors were built.

    Returns (alpha, scales) where every alpha row sums to 1 and the
    unnormalized forward probabilities are alpha[t] * prod(scales[:t+1]).
    """
    if factors.dead is not None:
        raise DeadEnd(factors.dead)
    return factors.alpha, factors.scales


def backward(factors: FactorProvider):
    """Scaled backward pass; the last row is uniform after normalization.

    Returns (beta, scales) with unnormalized backward probabilities equal
    to beta[t] * prod(scales[t:]). It is the forward recursion run over
    the transposed steps from the end.
    """
    t_len, n = factors.length, factors.n_labels
    beta = np.empty((t_len, n))
    scales = np.empty(t_len)
    dead = _chain(np.ones(n), factors.steps[::-1].transpose(0, 2, 1), beta[::-1],
                  scales[::-1])
    if dead is not None:
        raise DeadEnd(t_len - 1 - dead)
    return beta, scales


def posterior_marginals(factors: FactorProvider) -> np.ndarray:
    """T x N matrix of per-position label posteriors; rows sum to 1.

    The scalings cancel inside each row, so the result equals the
    unscaled computation.
    """
    alpha, _ = forward(factors)
    beta, _ = backward(factors)
    prod = alpha * beta
    totals = np.add.reduce(prod, axis=1)
    if not totals.all():
        # forward and backward can each survive on disjoint supports when
        # no full path has positive probability
        raise DeadEnd(int(np.flatnonzero(totals == 0.0)[0]))
    prod /= totals[:, None]
    return prod


def mpm_path(factors: FactorProvider) -> np.ndarray:
    """Position-wise posterior argmax; ties go to the lowest label id."""
    return posterior_marginals(factors).argmax(axis=1)


def map_path(factors: FactorProvider):
    """Best label sequence under the resolved factors (max-product).

    Returns (path, log_score). Works in log space; among equal-scoring
    paths the lexicographically smallest id sequence is returned, obtained
    by maximizing suffix scores first and reconstructing front to back
    with ties resolved to the lowest id. Without a path, the dead end is
    the forward pass's.
    """
    # scores[t, j, i]: log step t from i to j plus the best suffix score
    # from j at t + 1; suffix is a column over j, and the best over j is an
    # elementwise maximum of rows
    scores = list(factors.log_steps())
    head = _log(factors.initial)
    suffix = np.zeros((len(head), 1))
    for step in reversed(scores):
        step += suffix
        suffix = np.maximum.reduce(step, axis=0, keepdims=True).T
    head += suffix[:, 0]
    best = head.max()
    if best < _LOG_ZERO / 2:
        raise DeadEnd(factors.length - 1 if factors.dead is None else factors.dead)
    path = [int(head.argmax())]
    for step in scores:
        path.append(int(step[:, path[-1]].argmax()))
    return np.array(path), float(best)


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
    """Decode one sentence of word strings: its labels and per-step flags.

    decoder "mpm" gives the marginal-posterior-mode labels and "map" the
    jointly most probable ones (Viterbi) with their log score.
    """
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    factors = resolve_factors(model, sentence, mode=mode)
    score = None
    if decoder == "mpm":
        ids = mpm_path(factors)
    else:
        ids, score = map_path(factors)
    labels = list(map(model.alphabet.items.__getitem__, ids.tolist()))
    return DecodeResult(labels=labels, flags=factors.flags, log_score=score)
