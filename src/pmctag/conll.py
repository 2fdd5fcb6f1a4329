"""Column-formatted (CoNLL-style) corpus reading and writing.

Token lines are whitespace-separated columns; sentences are separated by
blank lines. Reading never normalizes tokens: the feature functions need
raw orthography. One set of line rules (_Scanner) serves both ways of
reading: read_records and read_conll take a whole stream at once, and
windows() checks a whole stream a block of lines at a time, keeping no
tokens, before cutting it into windows of whole sentences for them.
"""

from __future__ import annotations

import codecs
import io
import re
from itertools import chain, compress, islice
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


class _Scanner:
    """The corpus line rules, applied to consecutive blocks of one stream's lines.

    Made from the reader options, which it checks before any line is read:
    negative column numbers, a tag column equal to the word column and an
    invalid skip_pattern raise FormatError. scan() takes the next block of
    lines, each ending at a newline character and nowhere else, and drops
    the comment and skip lines. A line is blank when it holds only
    whitespace (anything str.split splits on). The first token line of the
    stream fixes the column count; a later token line, in any block, that
    has another count or is too short for the word or tag column raises
    FormatError with its line number in the stream.
    """

    def __init__(self, word_column, tag_column, skip_pattern, comment_prefix):
        for name, column in (("word", word_column), ("tag", tag_column)):
            if column is not None and column < 0:
                raise FormatError(f"{name} column must be 0 or more, not {column}")
        if tag_column == word_column:
            raise FormatError(f"tag column and word column are both {word_column}")
        try:
            self.skip = re.compile(skip_pattern) if skip_pattern else None
        except re.error as exc:
            raise FormatError(f"invalid skip pattern {skip_pattern!r}: {exc}") from None
        self.word_column, self.tag_column = word_column, tag_column
        self.comment_prefix = comment_prefix
        self.need = max(word_column, -1 if tag_column is None else tag_column) + 1
        self.width = None  # the column count of the stream's first token line
        self.lines = 0  # lines scanned so far

    def scan(self, lines):
        """(kept lines, their column counts) of the next block of lines.

        The kept lines are `lines` itself when no line can be dropped, and
        the counts an int64 array, 0 for a blank line.
        """
        first, self.lines = self.lines, self.lines + len(lines)
        kept = None  # 0-based index in the block of each kept line, when lines are dropped
        if self.skip or self.comment_prefix:
            kept = [n for n, line in enumerate(lines)
                    if not _dropped(line, self.word_column, self.skip, self.comment_prefix)]
            lines = [lines[n] for n in kept]
        widths = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64,
                             count=len(lines))
        token = widths > 0
        if token.any():
            if self.width is None:
                self.width = int(widths[token.argmax()])
            bad = token & ((widths != self.width) | (self.width < self.need))
            if bad.any():
                n = int(bad.argmax())
                raise _row_error(int(widths[n]), self.width, self.word_column,
                                 self.tag_column, first + (kept[n] if kept is not None else n) + 1)
        return lines, widths


def _parse(stream, word_column, tag_column, skip_pattern, comment_prefix):
    """Split a stream's text into tokens and sentence lengths.

    Returns (flat, width, lengths): every token of the kept lines in
    order, the column count shared by every token line and the int64
    array of the number of token lines of each sentence. Lines are
    checked by _Scanner, all in one block, and blank lines end sentences.
    The tokens of the whole text are the tokens of its lines, since a
    newline is whitespace.
    """
    scanner = _Scanner(word_column, tag_column, skip_pattern, comment_prefix)
    text = stream.read()
    lines = text.split("\n")
    kept, widths = scanner.scan(lines)
    if kept is not lines:
        text = "\n".join(kept)
    del lines, kept
    if scanner.width is None:
        return [], 1, np.zeros(0, dtype=np.int64)  # any positive width slices no tokens
    # sentences are the runs of token lines
    edges = np.diff((widths > 0).astype(np.int8), prepend=0, append=0)
    lengths = np.flatnonzero(edges < 0) - np.flatnonzero(edges > 0)
    return text.split(), scanner.width, lengths


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


# Lines per block of the check pass in windows()
_CHECK_LINES = 4096


def windows(stream, budget, word_column=0, tag_column=None, skip_pattern=None,
            comment_prefix=None, mapping=None):
    """Check a whole corpus stream, then return an iterator over its windows.

    The check applies read_records' rules to every line, a block of lines
    at a time, and keeps no tokens; with a tag mapping it also raises
    UnknownTag, listing every tag of the stream that the mapping lacks.
    So a bad line anywhere raises before the first window is read. The
    stream must be seekable, since it is then rewound and read again.

    Each window is a text stream of whole sentences, read as the iterator
    advances: it ends at the first blank line after at least `budget`
    non-blank lines (kept or dropped), or at the end of the stream, so a
    window is longer than the budget only by the rest of one sentence. An
    empty stream gives one empty window. Reading every window with the
    same options gives the sentences of the whole stream, in order.
    """
    scanner = _Scanner(word_column, tag_column, skip_pattern, comment_prefix)
    if not stream.seekable():
        raise FormatError("the input cannot be read twice; give a regular file, not a pipe")
    missing = set()
    try:
        while lines := list(islice(stream, _CHECK_LINES)):
            kept, widths = scanner.scan(lines)
            if mapping is not None:
                tags = (line.split()[tag_column] for line in compress(kept, widths))
                missing.update(tag for tag in tags if tag not in mapping)
    except UnicodeDecodeError as exc:
        raise _decode_error(stream, exc) from None
    if missing:
        raise UnknownTag(missing)
    stream.seek(0)
    return _cut(stream, budget)


def _decode_error(stream, exc):
    """The error of the first bytes of a text file stream that do not decode,
    which raised `exc`.

    The stream decodes its file a chunk at a time, and the position of its
    UnicodeDecodeError counts from the chunk. This decodes the file again
    from the start, a block at a time and keeping nothing, and says what
    the codec says when it decodes the whole file at once: the position
    counts from the start of the file. `exc` is returned as it is if the
    file now decodes.
    """
    stream.seek(0)
    decoder = codecs.getincrementaldecoder(stream.encoding)()
    offset = 0  # bytes of the file before the block
    while True:
        block = stream.buffer.read(1 << 16)
        pending = len(decoder.getstate()[0])  # bytes of the blocks before, not yet decoded
        try:
            decoder.decode(block, final=not block)
        except UnicodeDecodeError as found:
            bad = found.object[found.start:found.end]
            start = offset - pending + found.start
            where = (f"byte 0x{bad[0]:02x} in position {start}" if len(bad) == 1
                     else f"bytes in position {start}-{start + len(bad) - 1}")
            return FormatError(f"'{found.encoding}' codec can't decode {where}: {found.reason}")
        if not block:
            return exc
        offset += len(block)


def _cut(stream, budget):
    """The windows of windows(), without the check."""
    lines, filled, cut = [], 0, False
    for line in stream:
        lines.append(line)
        if not line.isspace():
            filled += 1
        elif filled >= budget:
            yield io.StringIO("".join(lines))
            lines, filled, cut = [], 0, True
    if filled or not cut:
        yield io.StringIO("".join(lines))


def write_conll(sentences, stream):
    """Write sentences of column rows with single spaces.

    Inverse of read_records on the emitted columns; output bytes are
    deterministic.
    """
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
