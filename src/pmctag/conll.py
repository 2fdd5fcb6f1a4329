"""Column-formatted (CoNLL-style) corpus reading and writing.

Token lines are whitespace-separated columns; sentences are separated by
blank lines. Reading never normalizes tokens: the feature functions need
raw orthography.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormatError, UnknownTag


@dataclass
class LabeledCorpus:
    """Sentences of (word, label) pairs with an optional split name."""

    sentences: list[list[tuple[str, str]]]
    split: str | None = None

    def __len__(self):
        return len(self.sentences)

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    def words(self) -> list[list[str]]:
        return [[w for w, _ in sent] for sent in self.sentences]

    def labels(self) -> list[list[str]]:
        return [[t for _, t in sent] for sent in self.sentences]


def read_records(stream, word_column=0, skip_pattern=None, comment_prefix=None,
                 tag_column=None):
    """Parse column records: a list of sentences, each a list of column lists.

    Lines whose word column matches `skip_pattern` (a regex, fully matched)
    are dropped, as are lines starting with `comment_prefix`. Every retained
    token line must have the word column, the tag column when one is given,
    and the same column count as the others; violations raise FormatError
    with the 1-based line number. Negative column numbers, a tag column
    equal to the word column and an invalid skip_pattern are rejected
    before the first line is read.
    """
    for name, column in (("word", word_column), ("tag", tag_column)):
        if column is not None and column < 0:
            raise FormatError(f"{name} column must be 0 or more, not {column}")
    if tag_column == word_column:
        raise FormatError(f"tag column and word column are both {word_column}")
    try:
        skip = re.compile(skip_pattern) if skip_pattern else None
    except re.error as exc:
        raise FormatError(f"invalid skip pattern {skip_pattern!r}: {exc}") from None
    sentences = []
    current = []
    expected_cols = None
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped:
            if current:
                sentences.append(current)
            current = []
            continue
        if comment_prefix and stripped.startswith(comment_prefix):
            continue
        cols = stripped.split()
        if word_column >= len(cols):
            raise FormatError(
                f"expected a word in column {word_column}, found {len(cols)} columns",
                line=lineno)
        if skip and skip.fullmatch(cols[word_column]):
            continue
        if tag_column is not None and tag_column >= len(cols):
            raise FormatError(
                f"expected a tag in column {tag_column}, found {len(cols)} columns",
                line=lineno)
        if expected_cols is None:
            expected_cols = len(cols)
        elif len(cols) != expected_cols:
            raise FormatError(
                f"ragged row: {len(cols)} columns where previous lines had {expected_cols}",
                line=lineno)
        current.append(cols)
    if current:
        sentences.append(current)
    return sentences


def read_conll(stream, word_column=0, tag_column=1, skip_pattern=None,
               comment_prefix=None, split=None) -> LabeledCorpus:
    """Read a labeled corpus, taking words and tags from the given columns."""
    records = read_records(stream, word_column=word_column,
                           skip_pattern=skip_pattern, comment_prefix=comment_prefix,
                           tag_column=tag_column)
    sentences = [[(cols[word_column], cols[tag_column]) for cols in sent]
                 for sent in records]
    return LabeledCorpus(sentences=sentences, split=split)


def write_conll(sentences, stream):
    """Write sentences of column rows (or a LabeledCorpus) with single spaces.

    Inverse of read_records on the emitted columns; output bytes are
    deterministic.
    """
    if isinstance(sentences, LabeledCorpus):
        sentences = [[[w, t] for w, t in sent] for sent in sentences.sentences]
    for sent in sentences:
        for cols in sent:
            stream.write(" ".join(cols))
            stream.write("\n")
        stream.write("\n")


def read_tag_mapping(stream) -> dict[str, str]:
    """Parse a mapping file of `source<TAB>target` lines."""
    mapping = {}
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) != 2:
            raise FormatError(f"expected 'source target', got {stripped!r}", line=lineno)
        source, target = fields
        if source in mapping and mapping[source] != target:
            raise FormatError(f"conflicting targets for {source!r}", line=lineno)
        mapping[source] = target
    return mapping


def apply_mapping(corpus: LabeledCorpus, mapping: dict[str, str]) -> LabeledCorpus:
    """Replace every label through `mapping`; words are untouched.

    Raises UnknownTag listing all corpus tags absent from the mapping.
    """
    missing = {t for sent in corpus.sentences for _, t in sent if t not in mapping}
    if missing:
        raise UnknownTag(missing)
    sentences = [[(w, mapping[t]) for w, t in sent] for sent in corpus.sentences]
    return LabeledCorpus(sentences=sentences, split=corpus.split)


def mark_known(corpus: LabeledCorpus, vocabulary) -> list[list[bool]]:
    """Per-token bits: True iff the token string is in the model vocabulary."""
    return [[w in vocabulary for w, _ in sent] for sent in corpus.sentences]
