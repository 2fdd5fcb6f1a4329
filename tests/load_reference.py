"""Dense reference for the tables pmctag derives from its count tables.

The package keeps a count table as narrow id columns, reads the marginal
m_ik run by run of the sorted pattern rows, counts feature occurrences
from sparse (word, first bit, label) rows and keeps the PMC initial
factors as the sentence-start bigrams of its one CSR index. This module
keeps the derivation that design replaced: (n, width) int64 key rows
decoded from the key numbers, dense int64 (labels, words) marginals,
dense first and rest feature counts with each kind's code packed from
extract_features, and a dense pi2. Property tests check that both give
the same tables bit for bit. It is not used by the package.
"""

import numpy as np

from pmctag.features import FeatureEmissionTables, extract_features, word_suffix
from pmctag.inference import _log
from pmctag.model import CountTable, HmcParams, id_dtype
from pmctag.serialize import FORMAT_VERSION


def table_from_rows(rows, counts, n_labels, n_words) -> CountTable:
    """A CountTable of sorted (label, word, ...) id rows and their counts."""
    rows = np.array(rows, dtype=np.int64).reshape(len(counts), -1)
    columns = [rows[:, p].astype(id_dtype(n_words if p % 2 else n_labels))
               for p in range(rows.shape[1])]
    return CountTable(columns, np.array(counts, dtype=np.int64))


def key_rows(table, n_labels, n_words) -> np.ndarray:
    """The (n, width) int64 id rows of a count table, decoded from its key numbers."""
    numbers = table.numbers(n_labels, n_words)
    digits = []
    for _ in range(len(table.columns) // 2):
        numbers, code = np.divmod(numbers, n_labels * n_words)
        digits[:0] = np.divmod(code, n_words)
    return np.column_stack(digits)


def summed(shape, index, counts) -> np.ndarray:
    """int64 array of `shape` with counts added at index; repeats add up."""
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, index, counts)
    return out


def marginals(counts) -> dict:
    """n0_i, n_ij, the dense (labels, words) m_ik and n_i of a CountTables."""
    n, v = counts.n_labels, counts.n_words
    i, k, j, _ = key_rows(counts.n_ikjl, n, v).T
    c = counts.n_ikjl.counts
    n_ij = summed((n, n), (i, j), c)
    return {"n0_i": summed(n, key_rows(counts.n0_ik, n, v)[:, 0], counts.n0_ik.counts),
            "n_ij": n_ij,
            "m_ik": summed((n, v), (i, k), c),
            "n_i": n_ij.sum(axis=1)}


def fit_hmc(counts) -> HmcParams:
    """pi = n0_i / L, trans = n_ij / n_i and emit = m_ik / n_i from dense marginals."""
    dense = marginals(counts)
    pi = dense["n0_i"].astype(np.float64) / counts.L
    support = dense["n_i"] > 0
    trans, emit = (np.divide(table, dense["n_i"][:, None], out=np.zeros(table.shape),
                             where=support[:, None])
                   for table in (dense["n_ij"], dense["m_ik"]))
    return HmcParams(pi=pi, trans=trans, trans_support=support, emit=emit)


def derive_feature_tables(counts, vocabulary, suffix_max_len):
    """The feature tables from dense first and rest (labels, words) counts."""
    n, v = counts.n_labels, len(vocabulary)
    shape = (n, v)
    first = summed(shape, tuple(key_rows(counts.n0_ik, n, v).T), counts.n0_ik.counts)
    rest = summed(shape, tuple(key_rows(counts.n_ikjl, n, v)[:, 2:].T), counts.n_ikjl.counts)
    label_totals = first.sum(axis=1) + rest.sum(axis=1)

    words = list(vocabulary)
    first_words = np.flatnonzero(first.any(axis=0))
    rest_words = np.flatnonzero(rest.any(axis=0))
    occurrences = np.vstack([first[:, first_words].T, rest[:, rest_words].T])
    kinds = [(k, 1) for k in first_words.tolist()] + [(k, 0) for k in rest_words.tolist()]
    ranks, codes, tables = [], [], []
    for m in range(suffix_max_len + 1):
        suffixes = {k: word_suffix(words[k], m) for k, _ in kinds}
        ranks.append({suffix: r for r, suffix in enumerate(sorted(set(suffixes.values())))})
        keys = []
        for k, bit in kinds:
            f = extract_features(words[k], 1 - bit, m)
            keys.append(ranks[m][f.suffix] * 16 + f.cap * 8 + f.hyphen * 4 + f.first * 2
                        + f.digit)
        level_codes, rows = np.unique(keys, return_inverse=True)
        codes.append(level_codes)
        tables.append(np.divide(summed((len(level_codes), shape[0]), rows, occurrences),
                                label_totals, out=np.zeros((len(level_codes), shape[0])),
                                where=label_totals > 0))
    return FeatureEmissionTables(suffix_max_len, ranks, codes, tables)


def decode_index(counts, trans) -> dict:
    """The decode index's arrays, with the initial factors also as a dense
    (labels, words) pi2; the bigram (START, k) of first word k, START =
    n_words, holds the non-zero column pi2[:, k] with source label 0."""
    n, v = counts.n_labels, counts.n_words
    pi2 = np.zeros((n, v))
    pi2[tuple(key_rows(counts.n0_ik, n, v).T)] = counts.n0_ik.counts / counts.L
    i, k, j, l = key_rows(counts.n_ikjl, n, v).T
    c = counts.n_ikjl.counts
    code = k * (v + 1) + l
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = np.flatnonzero(np.diff(code, prepend=-1))
    first_words, first_labels = np.nonzero(pi2.T)  # by word, labels ascending
    start_codes = v * (v + 1) + first_words
    start_runs = np.flatnonzero(np.diff(start_codes, prepend=-1))
    return {
        "pi2": pi2,
        "codes": np.concatenate((code[starts], start_codes[start_runs],
                                 [np.iinfo(np.int64).max])),
        "offsets": np.concatenate((starts, code.size + start_runs,
                                   [code.size + start_codes.size])),
        "flat": np.concatenate(((i * n + j)[order], first_labels)).astype(np.int32),
        "ratios": np.concatenate(((c / marginals(counts)["m_ik"][i, k])[order],
                                  pi2.T[first_words, first_labels])),
        "log_trans_t": _log(trans.T),
    }


def model_stats(model) -> str:
    """pmctag's model_stats text, with pmc-transitions counted on the dense m_ik."""
    counts = model.counts
    lines = [
        f"format-version {FORMAT_VERSION}",
        f"task {model.task}",
        f"labels {len(model.alphabet)}",
        f"words {len(model.vocabulary)}",
        f"chains {counts.L}",
        f"pattern-keys {len(counts.n_ikjl)}",
        f"pattern-total {int(counts.n_ikjl.counts.sum())}",
        f"hmc-emissions {np.count_nonzero(model.hmc.emit)}",
        f"pmc-initial {len(counts.n0_ik)}",
        f"pmc-transitions {np.count_nonzero(marginals(counts)['m_ik'])}",
        f"pmc-emissions {len(counts.n_ikjl)}",
        f"suffix-max-len {model.suffix_max_len}",
    ]
    for m, table in enumerate(model.features.tables):
        lines.append(f"feature-entries-{m} {np.count_nonzero(table)}")
    return "\n".join(lines) + "\n"
