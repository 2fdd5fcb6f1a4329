"""Per-step reference for pmctag.inference's decoder.

For MPM the package resolves a sentence's factors and runs the scaled
forward pass in one loop and normalizes the rows of its recursions once
per block of steps; for MAP it builds only Viterbi's log stack, from log
tables, and reads the downgrades and the dead end off its 0/1 support.
This module keeps the decoder that design replaced: a separate 0/1-support loop for the annihilation
downgrade, forward and backward passes normalized at every step, and
Viterbi over the log of the whole factor stack. Property tests check that
both give the same flags, dead ends, labels, posteriors and MAP scores. It
is not used by the package.
"""

from dataclasses import dataclass

import numpy as np

from pmctag.errors import DeadEnd, EmptySentence
from pmctag.features import feature_column
from pmctag.inference import HMC_STEP, PLAIN_HMC, PMC_STEP

_LOG_ZERO = -1e300


@dataclass
class Outcome:
    flags: list
    dead: int | None = None     # position of the dead end, if any
    ids: list | None = None     # label ids
    post: np.ndarray | None = None
    score: float | None = None


def _bigram_slots(index, wids):
    """The index slot of each word bigram of a sentence, -1 without support."""
    k, l = wids[:-1], wids[1:]
    code = np.where((k >= 0) & (l >= 0), k * (index.n_words + 1) + l, -1)
    slots = np.searchsorted(index.codes, code)
    return np.where(index.codes[slots] == code, slots, -1)


def _support(alive, step):
    """0/1 vector of the labels reachable through `step` from `alive`, or None."""
    reached = np.sign(np.dot(alive, step))
    return reached if np.count_nonzero(reached) else None


def resolve_factors(model, sentence, mode="pmc"):
    """(initial, steps, flags) of one sentence of word strings."""
    if not sentence:
        raise EmptySentence("cannot resolve factors for an empty sentence")
    hmc, index = model.hmc, model.index
    wids = np.array([model.vocabulary.index.get(w, -1) for w in sentence])
    cols = hmc.emit[:, wids].T
    for t in np.flatnonzero(wids < 0).tolist():
        cols[t] = feature_column(model.features, sentence[t], t)
    initial, steps = hmc.pi * cols[0], hmc.trans * cols[1:, None, :]
    if mode == "hmc":
        return initial, steps, [PLAIN_HMC] * len(sentence)

    n, counts = len(model.alphabet), model.counts
    # the PMC initial factor n0_ik / L of the first word, from the counts
    first_labels, first_words = counts.n0_ik.columns
    first = (first_words == wids[0]) if wids[0] >= 0 else np.zeros(len(counts.n0_ik), bool)
    if first.any():
        initial = np.zeros(n)
        initial[first_labels[first]] = counts.n0_ik.counts[first] / counts.L
        flags = [PMC_STEP]
    else:
        flags = [HMC_STEP]
    for t, u in enumerate(_bigram_slots(index, wids).tolist()):
        if u < 0:
            flags.append(HMC_STEP)
            continue
        flags.append(PMC_STEP)
        steps[t] = 0.0
        for p in range(index.offsets[u], index.offsets[u + 1]):
            i, j = divmod(int(index.flat[p]), n)
            steps[t, i, j] = index.ratios[p]

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
    return initial, steps, flags


def forward(initial, steps):
    """Forward rows normalized at every step, and their scales."""
    alpha = np.empty((len(steps) + 1, len(initial)))
    scales = np.empty(len(steps) + 1)
    vec = initial
    for t in range(len(steps) + 1):
        if t:
            vec = alpha[t - 1] @ steps[t - 1]
        total = vec.sum()
        if total == 0.0:
            raise DeadEnd(t)
        alpha[t] = vec / total
        scales[t] = total
    return alpha, scales


def backward(steps, n):
    """Backward rows normalized at every step, and their scales."""
    t_len = len(steps) + 1
    beta = np.empty((t_len, n))
    scales = np.empty(t_len)
    beta[t_len - 1] = 1.0 / n
    scales[t_len - 1] = float(n)
    for t in range(t_len - 2, -1, -1):
        vec = steps[t] @ beta[t + 1]
        total = vec.sum()
        if total == 0.0:
            raise DeadEnd(t)
        beta[t] = vec / total
        scales[t] = total
    return beta, scales


def posterior_marginals(initial, steps):
    alpha, _ = forward(initial, steps)
    beta, _ = backward(steps, len(initial))
    prod = alpha * beta
    totals = prod.sum(axis=1)
    dead = np.flatnonzero(totals == 0.0)
    if dead.size:
        raise DeadEnd(int(dead[0]))
    return prod / totals[:, None]


def _log(x):
    zero = x == 0
    out = np.log(x + zero)
    out += zero * _LOG_ZERO
    return out


def map_path(initial, steps):
    """(ids, log score) of the best path over the log of the whole stack;
    among tied paths the lexicographically smallest."""
    t_len = len(steps) + 1
    scores = _log(np.asarray(steps))
    head = _log(initial)
    suffix = 0.0
    for t in range(t_len - 2, -1, -1):
        scores[t] += suffix
        suffix = scores[t].max(axis=1)
    head += suffix
    best = head.max()
    if best < _LOG_ZERO / 2:
        forward(initial, steps)  # raises DeadEnd at the first position without mass
        raise DeadEnd(t_len - 1)
    path = [int(head.argmax())]
    for t in range(t_len - 1):
        path.append(int(scores[t, path[-1]].argmax()))
    return path, float(best)


def path_score(model, sentence, mode, ids):
    """Log score of the label ids under the sentence's resolved factors."""
    initial, steps, _ = resolve_factors(model, sentence, mode)
    return float(_log(initial[ids[0]]) + _log(steps[np.arange(len(steps)), ids[:-1], ids[1:]]).sum())


def decode(model, sentence, mode="pmc", decoder="mpm") -> Outcome:
    initial, steps, flags = resolve_factors(model, sentence, mode)
    try:
        if decoder == "mpm":
            post = posterior_marginals(initial, steps)
            return Outcome(flags, ids=post.argmax(axis=1).tolist(), post=post)
        ids, score = map_path(initial, steps)
        return Outcome(flags, ids=ids, score=score)
    except DeadEnd as exc:
        return Outcome(flags, dead=exc.position)
