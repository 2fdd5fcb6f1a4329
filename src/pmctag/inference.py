"""Posterior marginals and best-path decoding for HMC and PMC.

Both models reduce to the same recursions over per-sentence factors: an
initial vector over labels and one transition-emission matrix per step.
In PMC mode a step whose observed word bigram has no training support is
downgraded to the HMC factor for that step only; emissions of unknown
words fall back to the orthographic feature model.

Resolving the factors has two parts. The lookups run per window of
sentences (lookup_window): the vocabulary, the emission columns, the
feature columns of unknown words, the bigram slots and the PMC triples
(those of (START, word) into a sentence's first word give its initial
factor) are read once over all the window's tokens, which sets each
token's regime flag. The factor build and the recursions run per
sentence (resolve_factors and the decoders), on a window of one: a
sentence's view of a larger window, or the lookup of a list of words.

Two producers resolve the factors for the decoder that reads them, a
FactorProvider for MPM and a LogFactors of log tables for MAP:
resolve_factors, whose stacks one builder (_steps) builds in either mode,
and the enumeration oracle's TinyInstance.factors, from its dense tables.
HMC decoding is resolve_factors in mode "hmc", the path `--mode hmc`
runs, and the tests hold an HMC embedded as a PMC
(oracle.embed_hmc_as_pmc) to it. Each type runs its decoder's pass
when it is built and offers one rescue the steps whose exact 0/1
support comes out empty, so both find the same downgrades and dead end.
For MPM, forward-backward runs in scaled linear space, one vector-matrix
product per step, with rows normalized once per block of _BLOCK steps
and the exact 0/1 support as the fallback where a row underflows. For
MAP, no float factor is built: a boolean pass of the log stack's support
(_support) stands in.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import accumulate

import numpy as np

from .errors import DeadEnd, EmptySentence
from .features import feature_column
from .model import CountTables, ModelBundle, run_starts

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
# recursion is redone with blocks of one step. MAP's boolean support pass
# (_support) checks for an empty row once per block as well.
_BLOCK = 16
_TINY = 1e-200


def _reaches(mats, rows, s, verified) -> bool:
    """Whether the exact 0/1 support at position s reaches a label through mats[s].

    The exact support of a position is the set of labels that some path
    of positive factors from the first position reaches; underflow cannot
    change it. verified = [v, support] holds a position v <= s and its
    exact support, and is moved to s: the support at s is that of rows[s]
    when, from v to s, each row holds exactly the labels that the row
    before reaches, which one batched product checks. Otherwise it is
    carried step by step from v.
    """
    v, support = verified
    live = np.sign(rows[v:s + 1])
    reach = np.sign(np.matmul(live[:, None, :], mats[v:s + 1])[:, 0])
    if (live[0] == support).all() and (live[1:] == reach[:-1]).all():
        verified[:] = s, live[-1]
        return bool(reach[-1].any())
    for mat in mats[v:s]:
        support = np.dot(support, mat) > 0
    verified[:] = s, support
    return bool((np.dot(support, mats[s]) > 0).any())


def _chain(first, mats, rows, scales, rescue=None, block=_BLOCK, verified=None) -> int | None:
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
    blocks of one step. Each check of the exact support starts where the
    last one ended (see _reaches), which neither a rescue nor the redo
    moves back. rescue(s) says whether it replaced mats[s], and only then
    is the step redone.
    """
    total = np.add.reduce(first)
    if total == 0.0:
        if rescue is not None and len(mats):
            rescue(0)
        return 0
    np.divide(first, total, out=rows[0])
    scales[0] = total
    verified = verified or [0, np.sign(first)]
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
            if (total == 0.0 and rescue is not None and not _reaches(mats, rows, hi, verified)
                    and rescue(hi)):
                total = add(dot(row[hi], mat[hi], out=row[hi + 1]))
            if total == 0.0:
                if block > 1 and _reaches(mats, rows, hi, verified):
                    return _chain(first, mats, rows, scales, rescue, 1, verified)
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

    Building one runs the scaled forward pass, as a LogFactors runs its
    support pass: alpha holds its normalized rows, scales the row masses,
    and dead the first position without forward mass, or None. rescue,
    on resolve_factors' contract, is offered each step whose forward row
    and exact 0/1 support come out empty (see _chain), and a row left
    empty after it is the dead end. They hold no log stack, so map_path
    refuses them: factors resolved for MAP are LogFactors.
    """

    initial: np.ndarray
    steps: np.ndarray
    flags: list[str]
    rescue: InitVar[object] = None
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

    The PMC factors form one CSR (compressed sparse row) index keyed by
    the bigram code k * (n_words + 1) + l of words k and l, where
    k = n_words, START, stands for the start of a sentence. codes holds
    the distinct codes of the bigrams with a positive count, in increasing
    order, followed by one sentinel above every code; the triples of
    codes[u] are the entries offsets[u]:offsets[u + 1] of flat and ratios.
    A triple (i * n_labels + j, n_ikjl / m_ik) of a word bigram is a
    non-zero entry of the PMC step factor trans2[i, k][j] * emit2[i, k, j][l],
    at its offset in the flattened N x N step, written as the single count
    ratio that product reduces to; m_ik comes run by run
    (CountTables.m_ik_runs). The chain runs over (label, word) pairs, so
    the initial factor pi2[i, l] = n0_il / L is the step out of a start
    pair: the bigram (START, l) has the triples (i, n0_il / L), from
    source label 0 to first label i, labels ascending.

    log_trans_t is the log of the HMC transitions `trans`, transposed:
    log_trans_t[j, i] = log trans[i, j], the layout of Viterbi's score
    steps, to which it adds the log emission columns of the HMC steps.
    """

    n_words: int
    codes: np.ndarray
    offsets: np.ndarray
    flat: np.ndarray
    ratios: np.ndarray
    log_trans_t: np.ndarray

    def __init__(self, counts: CountTables, trans: np.ndarray):
        n_words, n = counts.n_words, len(counts.n_ikjl)
        i, k, j, l = counts.n_ikjl.columns
        first_labels, first_words = counts.n0_ik.columns
        start = np.full(len(first_words), n_words)  # START, before each first word
        order, codes, offsets = _bigram_runs((k, start), (l, first_words), n_words + 1)
        runs, m_ik = counts.m_ik_runs()
        ratios = m_ik.astype(np.float64).repeat(np.diff(runs, append=n))
        np.divide(counts.n_ikjl.counts, ratios, out=ratios)
        # then the initial factors' rows, in two steps that hold two copies at most
        ratios = np.append(ratios, counts.n0_ik.counts / counts.L)
        ratios = ratios[order]
        # int32 halves their size; a model whose N x N offsets overflow
        # it could not hold even one N x N step
        flat = np.concatenate((i, first_labels), dtype=np.int32)
        flat[:n] *= counts.n_labels
        flat[:n] += j
        tables = {
            "codes": codes,
            "offsets": offsets,
            "flat": flat[order],
            "ratios": ratios,
            "log_trans_t": _log(trans.T),
        }
        # a frozen dataclass sets its fields through object.__setattr__
        object.__setattr__(self, "n_words", n_words)
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def bigram_slots(self, wids, heads) -> np.ndarray:
        """Position in codes of the bigram into each token, -1 without support.

        wids holds one vocabulary id per token, -1 for an unknown word, and
        heads the position of each sentence's first token. The bigram into
        a first token is (START, word), so no bigram crosses a sentence end.
        """
        k = np.empty_like(wids)
        k[1:] = wids[:-1]
        k[heads] = self.n_words
        # an unknown first word gives a code below 0 as well
        code = np.where(wids >= 0, k * (self.n_words + 1) + wids, -1)
        slots = self.codes.searchsorted(code)
        return np.where(self.codes[slots] == code, slots, -1)

    def pmc_triples(self, slots):
        """The triples of every slot >= 0, as arrays (t, flat, ratios).

        t is the step, the index of the slot's token minus one, so the
        triples of an initial factor come at step -1; flat is the offset in
        the flattened N x N step and ratios the value, in step order.
        """
        at = (slots >= 0).nonzero()[0]
        bigrams = slots[at]
        hi = self.offsets[bigrams + 1]
        sizes = hi - self.offsets[bigrams]
        t = at.repeat(sizes)
        t -= 1
        # triple positions: the slices hi[s] - sizes[s]:hi[s], concatenated
        pos = np.arange(t.size) + (hi - sizes.cumsum()).repeat(sizes)
        return t, self.flat[pos], self.ratios[pos]


def _bigram_runs(k, l, radix):
    """(order, codes, offsets) of the bigram codes k * radix + l.

    k and l are sequences of arrays, each read as their concatenation.
    order sorts the codes stably, codes holds the distinct ones in
    increasing order followed by a sentinel above every code, and the
    rows order[offsets[u]:offsets[u + 1]] are the ones with codes[u].
    """
    code = np.concatenate(k, dtype=np.int64)
    code *= radix
    code += np.concatenate(l)
    order = np.argsort(code, kind="stable")
    code.sort()  # the values of code[order], sorted in place
    starts = run_starts(code)
    return (order, np.append(code[starts], np.iinfo(np.int64).max),
            np.append(starts, code.size))


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


def _steps(table, rows, kept, empty, combine) -> np.ndarray:
    """(T-1, N, N) stack whose step t is combine(table, rows[t + 1]).

    rows holds one row per position, shaped to broadcast against table; a
    kept[t] step starts from empty, which combining leaves empty. rows[1:]
    is repeated over each step before combining, which numpy does several
    times faster than a broadcast.
    """
    rows = np.where(kept[:, None, None], empty, rows[1:])
    steps = rows.repeat(len(table), axis=rows.shape.index(1, 1))  # the axis rows lack
    combine(steps, table, out=steps)
    return steps


def _support(initial, scores, rescue=None) -> int | None:
    """First position that the exact 0/1 support of the log factors does not
    reach, or None; scores is laid out [t, j, i].

    The support of step t is the set of entries of scores[t] above
    _LOG_ZERO / 2, and the forward support is carried through it as
    booleans, one product per step, which cannot underflow. Emptiness is
    checked once per block of _BLOCK steps, on the block's last row. Where
    a row of the block comes out empty, rescue(s) is offered the step s
    into it, as _chain offers it: when it rewrites scores[s] and says so,
    the pass restarts at that step, so a rescue redoes at most one block;
    otherwise the row is the dead end. With no support at position 0,
    rescue(0) is offered before giving up there.
    """
    live = list(scores > _LOG_ZERO / 2)  # live[t][j, i]: step t takes i to j
    rows = np.empty((len(scores) + 1, len(initial)), dtype=bool)
    np.greater(initial, 0.0, out=rows[0])
    if not rows[0].any():
        if rescue is not None and len(scores):
            rescue(0)
        return 0
    row, product, lo, n_steps = list(rows), np.matmul, 0, len(live)
    while lo < n_steps:
        hi = min(lo + _BLOCK, n_steps)
        for s in range(lo, hi):
            product(live[s], row[s], out=row[s + 1])
        # an empty row empties every row after it
        if not row[hi].any():
            s = lo + int(np.logical_or.reduce(rows[lo + 1:hi + 1], axis=1).argmin())
            if rescue is None or not rescue(s):
                return s + 1
            live[s] = scores[s] > _LOG_ZERO / 2
            hi = s
        lo = hi
    return None


@dataclass(eq=False)
class LogFactors:
    """Resolved per-sentence factors for Viterbi alone, as log tables.

    initial and flags are as in FactorProvider; scores is the (T-1, N, N)
    stack of log factors laid out [t, j, i]. There is no float step stack
    and no forward pass: building one runs the boolean support pass
    (_support) instead, which sets dead, the first position that the exact
    0/1 support does not reach, or None. rescue is handed to that pass on
    the contract FactorProvider's has (see resolve_factors), so both find
    the same downgrades and dead end. map_path adds its suffix scores into
    scores and sets decoded, so a LogFactors is decoded once.
    """

    initial: np.ndarray
    scores: np.ndarray = field(repr=False)
    flags: list[str]
    rescue: InitVar[object] = None
    dead: int | None = field(init=False)
    decoded: bool = field(default=False, init=False)

    def __post_init__(self, rescue):
        self.dead = _support(self.initial, self.scores, rescue)


@dataclass(eq=False, slots=True)
class WindowLookup:
    """The table lookups of a window of sentences, made once over all their tokens.

    lookup_window builds one for a model and a mode. starts holds the
    token offset of each sentence and then the token count. cols holds the
    emission column of each token, slots the bigram slot of the factor
    into it (-1 without PMC support; a first token's is that of its
    initial factor) and flags its regime flag. The PMC triples (t, flat,
    ratios) come in step order, t counting the steps of each triple's
    sentence from -1, the initial factor's; those of sentence s are
    triples[s]:triples[s + 1], and the first initials[s] of them are its
    initial factor's. sentence(s) hands out sentence s as a window of
    one, of views of this window's arrays.
    """

    model: ModelBundle
    mode: str
    starts: list[int]
    cols: np.ndarray = field(repr=False)
    flags: list[str] = field(repr=False)
    slots: np.ndarray = field(repr=False)
    triples: list[int] = field(repr=False)
    initials: list[int] = field(repr=False)
    t: np.ndarray = field(repr=False)
    flat: np.ndarray = field(repr=False)
    ratios: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.starts) - 1

    def sentence(self, s) -> "WindowLookup":
        """Sentence s as a window of one."""
        lo, hi = self.starts[s], self.starts[s + 1]
        a, b = self.triples[s], self.triples[s + 1]
        return WindowLookup(self.model, self.mode, [0, hi - lo], self.cols[lo:hi],
                            self.flags[lo:hi], self.slots[lo:hi], [0, b - a],
                            self.initials[s:s + 1], self.t[a:b], self.flat[a:b], self.ratios[a:b])


def lookup_window(model: ModelBundle, words, lengths, mode="pmc", ids=None) -> WindowLookup:
    """Look up what the factors of a window of sentences read from the model's tables.

    words holds the window's words in token order, or, when ids is given,
    the distinct words that ids (one per token) index; lengths holds the
    token count of each sentence, in order. Each table is read once over
    all the tokens: one vocabulary lookup (of each distinct word, with
    ids), one emission gather, the feature column of an unknown word once
    per distinct (word, first in its sentence) pair, one bigram_slots call
    (the bigram into each token), one pmc_triples call, and each token's
    regime flag: PMC_STEP where it has a slot, else the fallback flag.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    starts = [0, *accumulate(lengths)]
    if 0 in lengths:
        raise EmptySentence("cannot resolve factors for an empty sentence")
    hmc, index = model.hmc, model.index
    vocabulary = model.vocabulary.index
    known = [vocabulary.get(w, -1) for w in words]
    wids = np.array(known, dtype=np.int64)
    if ids is not None:
        wids = wids[ids]
        known = wids.tolist()
    # (T, N) emission columns: hmc.emit for known words, features otherwise
    cols = hmc.emit.T[wids]
    heads = starts[:-1]
    if -1 in known:
        found, firsts = {}, set(heads)
        for pos, word_id in enumerate(known):
            if word_id < 0:
                key = words[pos if ids is None else ids[pos]], pos in firsts
                column = found.get(key)
                if column is None:  # the position only sets the first-word bit
                    column = found[key] = feature_column(model.features, key[0],
                                                         0 if key[1] else 1)
                cols[pos] = column
    if mode == "hmc":
        slots = np.full(len(wids), -1)
    else:
        slots = index.bigram_slots(wids, heads)
    fallback = HMC_STEP if mode == "pmc" else PLAIN_HMC
    flags = [PMC_STEP if u >= 0 else fallback for u in slots.tolist()]
    t, flat, ratios = index.pmc_triples(slots)
    # a sentence's triples start at its step -1, the initial factor's, which end at its step 0
    if len(heads) > 1:  # cut the triples per sentence, and count its steps from -1
        triples = t.searchsorted(np.array(starts) - 1).tolist()
        initials = (t.searchsorted(heads) - triples[:-1]).tolist()
        t = t - np.repeat(heads, np.diff(triples))
    else:  # a lone sentence's steps count from -1 already
        triples, initials = [0, len(t)], [int(t.searchsorted(0))]
    return WindowLookup(model, mode, starts, cols, flags, slots, triples, initials, t, flat,
                        ratios)


def resolve_factors(model: ModelBundle, sentence, mode="pmc",
                    decoder="mpm") -> FactorProvider | LogFactors:
    """Resolve the factor sequence for one sentence.

    The sentence is a window of one sentence looked up for this model and
    mode, such as window.sentence(s), or a list of word strings, which is
    looked up as one (see lookup_window); any other window is refused with
    a ValueError. The lookup has set each token's regime flag; the factors
    start from a copy of those flags, which the downgrades below rewrite.

    In PMC mode, step t -> t+1 keeps the PMC factor when both words are
    known and the bigram pattern count is positive, and is downgraded to
    the HMC factor otherwise; the initial factor likewise is that of the
    bigram (START, first word), from its triples at step -1, or the HMC
    one, hmc.pi times the first emission column. A kept PMC step
    that would leave no label with forward support is downgraded as well:
    two individually supported bigrams need not agree on the label of the
    word they share, so a run of PMC factors can strand the forward
    recursion even though every factor has positive entries. Once a step
    leaves no label alive even as an HMC step, the sentence is a genuine
    dead end. In HMC mode all factors come from the hidden chain directly.

    Both decoders build their stack with _steps, a kept PMC step starting
    empty and then given its triples: floats laid out [t, i, j] for "mpm";
    for "map" logs laid out [t, j, i], and no float stack. One rescue(s)
    serves both: if step s is a kept PMC step, it rewrites it as its HMC
    step, flags it HMC_STEP and returns True, else it returns False. A
    FactorProvider ("mpm", see _chain) and a LogFactors ("map", see
    _support) offer it the same steps, those whose exact 0/1 support comes
    out empty, and give the same flags and dead ends.
    """
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    window = sentence
    if not isinstance(window, WindowLookup):
        window = lookup_window(model, sentence, (len(sentence),), mode)
    elif window.model is not model or window.mode != mode or len(window) != 1:
        raise ValueError("the sentence is not one sentence looked up for this model and mode")
    # a copy of the flags: a rescue rewrites them, and one window may be decoded twice
    cols, flags, kept, hmc = window.cols, list(window.flags), window.slots[1:] >= 0, model.hmc
    # the initial factor: its triples (one per label) come first, at step -1; else HMC's
    n, n0 = cols.shape[1], window.initials[0]
    initial = np.bincount(window.flat[:n0], window.ratios[:n0], n) if n0 else hmc.pi * cols[0]
    t, flat, ratios = window.t[n0:], window.flat[n0:], window.ratios[n0:]
    if decoder == "map":  # log factors, laid out [t, j, i]
        table, rows = model.index.log_trans_t, _log(cols)[:, :, None]
        empty, combine = _LOG_ZERO, np.add
        i, j = np.divmod(flat, n)
        flat, ratios = j * n + i, np.log(ratios)
    else:
        table, rows, empty, combine = hmc.trans, cols[:, None, :], 0.0, np.multiply
    stack = _steps(table, rows, kept, empty, combine)
    stack.reshape(len(stack), n * n)[t, flat] = ratios  # a triple's flat offset indexes a row

    def rescue(s):
        """Downgrade step s to its HMC factor if it is a kept PMC step; whether it was."""
        if not kept[s]:
            return False
        combine(table, rows[s + 1], out=stack[s])
        kept[s] = False
        flags[s + 1] = HMC_STEP
        return True

    return (LogFactors if decoder == "map" else FactorProvider)(initial, stack, flags, rescue)


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


def map_path(factors: LogFactors):
    """Best label sequence under the resolved factors (max-product).

    Returns (path, log_score). Works in log space, on factors.scores, into
    which it adds its suffix scores; among equal-scoring paths the
    lexicographically smallest id sequence is returned, obtained by
    maximizing suffix scores first and reconstructing front to back with
    ties resolved to the lowest id. A sentence without a path has a dead
    end, which the exact 0/1 support pass (_support) found when the
    LogFactors were built; it is raised before any score is computed. Only
    LogFactors are taken, as every producer resolves them with
    decoder="map"; a FactorProvider, resolved for MPM, is refused, and so
    are factors already decoded, whose scores hold the suffix scores.
    """
    if not isinstance(factors, LogFactors):
        raise ValueError('these factors have no log stack for Viterbi; '
                         'resolve the sentence with decoder="map"')
    if factors.dead is not None:
        raise DeadEnd(factors.dead)
    if factors.decoded:
        raise ValueError("these factors were decoded already; resolve the sentence again")
    factors.decoded = True
    # scores[t, j, i]: log step t from i to j plus the best suffix score
    # from j at t + 1; suffix is a column over j, and the best over j is an
    # elementwise maximum of rows
    scores = list(factors.scores)
    head = _log(factors.initial)
    suffix = np.zeros((len(head), 1))
    for step in reversed(scores):
        step += suffix
        suffix = np.maximum.reduce(step, axis=0, keepdims=True).T
    head += suffix[:, 0]
    best = head.max()
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
    """Decode one sentence: its labels and per-step flags.

    The sentence is a list of word strings or a window of one sentence
    looked up for this model and mode, such as window.sentence(s) (see
    resolve_factors); both give the same result. decoder "mpm" gives the
    marginal-posterior-mode labels and "map" the jointly most probable
    ones (Viterbi) with their log score. The factors are resolved for the
    decoder (see resolve_factors); the flags are the lookup's, downgraded.
    """
    factors = resolve_factors(model, sentence, mode=mode, decoder=decoder)
    score = None
    if decoder == "mpm":
        ids = mpm_path(factors)
    else:
        ids, score = map_path(factors)
    labels = list(map(model.alphabet.items.__getitem__, ids.tolist()))
    return DecodeResult(labels=labels, flags=factors.flags, log_score=score)
