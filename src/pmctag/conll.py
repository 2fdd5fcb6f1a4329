"""Column-formatted (CoNLL-style) corpus reading and writing.

Token lines are whitespace-separated columns; sentences are separated by
blank lines. Reading never normalizes tokens: the feature functions need
raw orthography.
"""

from __future__ import annotations

import re
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .errors import FormatError, UnknownTag


class LabeledCorpus:
    """Sentences of (word, label) pairs, held as two flat token columns.

    words and tags hold every token's word and label in corpus order, and
    lengths (int64) the token count of each sentence. LabeledCorpus(sentences)
    flattens a sequence of sentences of (word, label) pairs once;
    from_columns takes the columns as they are, so readers and mappings
    build no per-token objects. The columns are not meant to be changed.
    """

    __slots__ = ("words", "tags", "lengths")

    def __init__(self, sentences):
        self.words, self.tags = (list(map(itemgetter(field), chain.from_iterable(sentences)))
                                 for field in (0, 1))
        self.lengths = np.fromiter(map(len, sentences), dtype=np.int64,
                                   count=len(sentences))

    @classmethod
    def from_columns(cls, words, tags, lengths) -> "LabeledCorpus":
        """A corpus over the given columns; their sizes must agree."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if not len(words) == len(tags) == lengths.sum():
            raise ValueError(f"{len(words)} words and {len(tags)} tags for "
                             f"sentences of {lengths.sum()} tokens")
        corpus = cls.__new__(cls)
        corpus.words, corpus.tags, corpus.lengths = words, tags, lengths
        return corpus

    def __len__(self):
        return len(self.lengths)

    @property
    def n_tokens(self) -> int:
        return len(self.words)

    def per_sentence(self, column) -> list[list]:
        """Cut an iterable of one item per token into per-sentence lists."""
        items = iter(column)
        return [list(islice(items, n)) for n in self.lengths.tolist()]

    @property
    def sentences(self) -> list[list[tuple[str, str]]]:
        """The (word, label) tuple lists of the sentences, built on each access."""
        return self.per_sentence(zip(self.words, self.tags))


def _dropped(line, word_column, skip, comment_prefix) -> bool:
    """True for a comment line or a token line whose word matches `skip`.

    A line too short for the word column is kept, so the parse reports it.
    """
    stripped = line.strip()
    if not stripped:
        return False
    if comment_prefix and stripped.startswith(comment_prefix):
        return True
    if skip is None:
        return False
    cols = stripped.split()
    return word_column < len(cols) and skip.fullmatch(cols[word_column]) is not None


def _parse(stream, word_column, tag_column, skip_pattern, comment_prefix):
    """Split a stream's text into tokens and sentence lengths.

    Returns (flat, width, lengths): every token of the kept lines in
    order, the column count shared by every token line and the int64
    array of the number of token lines of each sentence. A line ends at
    each newline character and nowhere else; it is blank when it holds
    only whitespace (anything str.split splits on), and blank lines end
    sentences. The tokens of the whole text are the tokens of its lines,
    since a newline is whitespace. Bad options raise FormatError before
    the stream is read; a token line that is too short or ragged raises
    it with the line's number.
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
    text = stream.read()
    lines = text.split("\n")
    kept = None  # original 0-based index of each kept line, when lines are dropped
    if skip or comment_prefix:
        kept = [n for n, line in enumerate(lines)
                if not _dropped(line, word_column, skip, comment_prefix)]
        lines = [lines[n] for n in kept]
        text = "\n".join(lines)
    widths = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
    del lines
    token = widths > 0
    if not token.any():
        return [], 1, np.zeros(0, dtype=np.int64)  # any positive width slices no tokens
    width = int(widths[token.argmax()])
    need = max(word_column, -1 if tag_column is None else tag_column) + 1
    bad = token & ((widths != width) | (width < need))
    if bad.any():
        first = int(bad.argmax())
        raise _row_error(int(widths[first]), width, word_column, tag_column,
                         (kept[first] if kept is not None else first) + 1)
    # sentences are the runs of token lines
    edges = np.diff(token.astype(np.int8), prepend=0, append=0)
    lengths = np.flatnonzero(edges < 0) - np.flatnonzero(edges > 0)
    return text.split(), width, lengths


def _row_error(n_cols, width, word_column, tag_column, line) -> FormatError:
    """The error of a token line that is too short or has not `width` columns."""
    if n_cols <= word_column:
        return FormatError(
            f"expected a word in column {word_column}, found {n_cols} columns", line=line)
    if tag_column is not None and n_cols <= tag_column:
        return FormatError(
            f"expected a tag in column {tag_column}, found {n_cols} columns", line=line)
    return FormatError(
        f"ragged row: {n_cols} columns where previous lines had {width}", line=line)


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
    flat, width, lengths = _parse(stream, word_column, tag_column, skip_pattern,
                                  comment_prefix)
    rows = (flat[r:r + width] for r in range(0, len(flat), width))
    return [list(islice(rows, n)) for n in lengths.tolist()]


def read_conll(stream, word_column=0, tag_column=1, skip_pattern=None,
               comment_prefix=None) -> LabeledCorpus:
    """Read a labeled corpus, taking words and tags from the given columns.

    Reads the same lines as read_records and raises the same errors. The
    corpus columns are stride slices of the text's tokens.
    """
    flat, width, lengths = _parse(stream, word_column, tag_column, skip_pattern,
                                  comment_prefix)
    return LabeledCorpus.from_columns(flat[word_column::width], flat[tag_column::width],
                                      lengths)


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
    """Parse a mapping file of `source target` lines split on any whitespace."""
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
    missing = set(corpus.tags).difference(mapping)
    if missing:
        raise UnknownTag(missing)
    return LabeledCorpus.from_columns(corpus.words, list(map(mapping.__getitem__, corpus.tags)),
                                      corpus.lengths)


def mark_known(corpus: LabeledCorpus, vocabulary) -> list[list[bool]]:
    """Per-token bits: True iff the token string is in the model vocabulary."""
    return corpus.per_sentence(map(vocabulary.__contains__, corpus.words))
