"""Orthographic word features and the suffix back-off emission model.

Unknown test words have no emission probability, so their emission is
approximated by the empirical probability of the feature tuple
(capitalized, hyphen, first-in-sentence, digit, suffix) given the label.
One table is kept per suffix length m = 0..max_len; scoring uses the
longest level whose suffix was seen in training and backs off otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyCorpus, EmptyToken

# Feature tuple keys are (label, cap, hyphen, first, digit, suffix).
FeatureKey = tuple[int, int, int, int, int, str]

# Longer suffixes are whole words for almost every token; the bound also
# keeps a corrupt model file from asking for millions of levels.
MAX_SUFFIX_LEN = 16


@dataclass(frozen=True)
class WordFeatures:
    cap: int
    hyphen: int
    first: int
    digit: int
    suffix: str


def word_suffix(word: str, m: int) -> str:
    """Suffix of length min(m, len(word)); empty string for m = 0."""
    k = min(m, len(word))
    return word[len(word) - k:]


def extract_features(word: str, position: int, m: int) -> WordFeatures:
    """Compute the feature tuple of `word` at 0-based sentence `position`.

    cap is 1 when the first character is an uppercase letter, hyphen when
    any character is '-', first when position is 0, digit when any
    character is a decimal digit.
    """
    if not word:
        raise EmptyToken("cannot extract features from an empty word")
    return WordFeatures(
        cap=1 if word[0].isupper() else 0,
        hyphen=1 if "-" in word else 0,
        first=1 if position == 0 else 0,
        digit=1 if any(ch.isdecimal() for ch in word) else 0,
        suffix=word_suffix(word, m),
    )


@dataclass(eq=False)
class FeatureEmissionTables:
    """Per-level empirical feature-tuple probabilities given the label.

    tables[m] maps (label, cap, hyphen, first, digit, suffix_m) to its
    conditional frequency. suffix_support[m] is the set of suffixes seen
    at level m; it decides the back-off level for a word and is derived
    from the table keys (every observed tuple has positive probability).
    """

    max_len: int
    tables: list[dict[FeatureKey, float]]
    suffix_support: list[set[str]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.suffix_support is None:
            self.suffix_support = [
                {key[5] for key in table} for table in self.tables
            ]

    def validate(self, tol=1e-12):
        if len(self.tables) != self.max_len + 1:
            raise AssertionError("one table per suffix length expected")
        for m, table in enumerate(self.tables):
            per_label: dict[int, float] = {}
            for key, p in table.items():
                per_label[key[0]] = per_label.get(key[0], 0.0) + p
            for label, total in per_label.items():
                if abs(total - 1.0) > tol:
                    raise AssertionError(
                        f"level {m} tuples for label {label} sum to {total!r}")

    def __eq__(self, other):
        return (
            isinstance(other, FeatureEmissionTables)
            and self.max_len == other.max_len
            and self.tables == other.tables
        )


def _tables_from_tuple_counts(tuple_counts, label_totals, max_len):
    tables = []
    for m in range(max_len + 1):
        table = {}
        for key, c in tuple_counts[m].items():
            table[key] = c / label_totals[key[0]]
        tables.append(table)
    return FeatureEmissionTables(max_len=max_len, tables=tables)


def fit_feature_tables(corpus, alphabet, suffix_max_len: int) -> FeatureEmissionTables:
    """Estimate the per-level feature tables by walking a labeled corpus.

    Counts are integers accumulated over all tokens and divided once per
    key, so the result is independent of sentence order. Training uses
    derive_feature_tables; this walk is the reference it is tested against.
    """
    if not corpus.sentences:
        raise EmptyCorpus("cannot fit feature tables on an empty corpus")
    tuple_counts = [dict() for _ in range(suffix_max_len + 1)]
    label_totals: dict[int, int] = {}
    for sentence in corpus.sentences:
        for pos, (word, label) in enumerate(sentence):
            i = alphabet.intern(label)
            label_totals[i] = label_totals.get(i, 0) + 1
            for m in range(suffix_max_len + 1):
                f = extract_features(word, pos, m)
                key = (i, f.cap, f.hyphen, f.first, f.digit, f.suffix)
                counts = tuple_counts[m]
                counts[key] = counts.get(key, 0) + 1
    return _tables_from_tuple_counts(tuple_counts, label_totals, suffix_max_len)


def derive_feature_tables(counts, vocabulary, suffix_max_len: int) -> FeatureEmissionTables:
    """Rebuild the feature tables from count tables alone.

    A token occurrence of (label i, word k) is chain-initial n0_ik times
    and non-initial as often as (i, k) appears as the second element of an
    adjacent pattern; only the first-word bit depends on that split, the
    other features are functions of the word string. Reproduces
    fit_feature_tables exactly because both routes divide the same
    integer counts.
    """
    second_occ: dict[tuple[int, int], int] = {}
    for (_, _, j, l), c in counts.n_ikjl.items():
        second_occ[(j, l)] = second_occ.get((j, l), 0) + c
    occ: dict[tuple[int, int], tuple[int, int]] = {}
    for key, c in counts.n0_ik.items():
        occ[key] = (c, second_occ.get(key, 0))
    for key, c in second_occ.items():
        if key not in occ:
            occ[key] = (0, c)

    tuple_counts = [dict() for _ in range(suffix_max_len + 1)]
    label_totals: dict[int, int] = {}
    for (i, k), (first_c, rest_c) in occ.items():
        word = vocabulary[k]
        label_totals[i] = label_totals.get(i, 0) + first_c + rest_c
        f = extract_features(word, 1, 0)
        for m in range(suffix_max_len + 1):
            suffix = word_suffix(word, m)
            counts_m = tuple_counts[m]
            if first_c:
                key = (i, f.cap, f.hyphen, 1, f.digit, suffix)
                counts_m[key] = counts_m.get(key, 0) + first_c
            if rest_c:
                key = (i, f.cap, f.hyphen, 0, f.digit, suffix)
                counts_m[key] = counts_m.get(key, 0) + rest_c
    if not label_totals:
        raise EmptyCorpus("count tables carry no token occurrences")
    return _tables_from_tuple_counts(tuple_counts, label_totals, suffix_max_len)


def backoff_level(tables: FeatureEmissionTables, word: str) -> int:
    """Largest level m whose suffix of `word` was observed in training.

    Level 0 uses the empty suffix, which any non-empty training corpus
    supports, so the back-off always terminates.
    """
    for m in range(tables.max_len, -1, -1):
        if word_suffix(word, m) in tables.suffix_support[m]:
            return m
    return 0


def feature_emission_prob(tables: FeatureEmissionTables, label: int,
                          word: str, position: int) -> float:
    """Back-off feature probability of `word` under `label`.

    The level is a property of the word alone, so every label scores one
    token at the same level. Returns 0.0 when the tuple is unseen even at
    the chosen level.
    """
    m = backoff_level(tables, word)
    f = extract_features(word, position, m)
    key = (label, f.cap, f.hyphen, f.first, f.digit, f.suffix)
    return tables.tables[m].get(key, 0.0)
