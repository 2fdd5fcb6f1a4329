"""Column-formatted (CoNLL-style) corpus reading and writing.

Token lines are whitespace-separated columns; sentences are separated by
blank lines. Reading never normalizes tokens: the feature functions need
raw orthography. Every reader reads a stream once, through windows(): it
cuts the stream into windows of whole sentences, of WINDOW_LINES
non-blank lines in the readers, and checks each line once, by one set of
line rules (_Scanner), so a stream may be a pipe. read_records keeps the
column rows of each window, read_conll only id columns of its words and
tags, and either parses one window of windows() as it is.
"""

from __future__ import annotations

import codecs
import itertools
import re
from collections import defaultdict
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .errors import FormatError, UnknownTag


class LabeledCorpus:
    """Sentences of (word, label) pairs, held as two flat id columns.

    word_ids and tag_ids (int32) index every token's word and label, in
    corpus order, into word_items and tag_items, the distinct words and
    labels in order of first occurrence; lengths (int64) holds the token
    count of each sentence. LabeledCorpus(sentences) interns sentences of
    (word, label) pairs, and from_ids takes id columns as they are. words
    and tags are built on each access. The columns are not meant to be
    changed.
    """

    __slots__ = ("word_items", "word_ids", "tag_items", "tag_ids", "lengths")

    def __init__(self, sentences):
        self.word_items, self.word_ids = _interned(map(itemgetter(0), chain(*sentences)))
        self.tag_items, self.tag_ids = _interned(map(itemgetter(1), chain(*sentences)))
        self.lengths = np.fromiter(map(len, sentences), dtype=np.int64,
                                   count=len(sentences))

    @classmethod
    def from_ids(cls, word_items, word_ids, tag_items, tag_ids, lengths) -> "LabeledCorpus":
        """A corpus over id columns into the given items; their sizes must agree."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if not len(word_ids) == len(tag_ids) == lengths.sum():
            raise ValueError(f"{len(word_ids)} words and {len(tag_ids)} tags for "
                             f"sentences of {lengths.sum()} tokens")
        corpus = cls.__new__(cls)
        corpus.word_items, corpus.tag_items = tuple(word_items), tuple(tag_items)
        corpus.word_ids, corpus.tag_ids, corpus.lengths = word_ids, tag_ids, lengths
        return corpus

    def __len__(self):
        return len(self.lengths)

    @property
    def n_tokens(self) -> int:
        return len(self.word_ids)

    @property
    def words(self) -> list[str]:
        return np.array(self.word_items, dtype=object)[self.word_ids].tolist()

    @property
    def tags(self) -> list[str]:
        return np.array(self.tag_items, dtype=object)[self.tag_ids].tolist()

    def per_sentence(self, column) -> list[list]:
        """Cut an iterable of one item per token into per-sentence lists."""
        items = iter(column)
        return [list(islice(items, n)) for n in self.lengths.tolist()]

    @property
    def sentences(self) -> list[list[tuple[str, str]]]:
        """The (word, label) tuple lists of the sentences, built on each access."""
        return self.per_sentence(zip(self.words, self.tags))


def _ids(index, tokens) -> np.ndarray:
    """The int32 ids of tokens in `index`, a defaultdict(itertools.count().__next__),
    which gives each new token the next id."""
    return np.fromiter(map(index.__getitem__, tokens), dtype=np.int32)


def _interned(tokens) -> tuple[tuple, np.ndarray]:
    """The distinct tokens in order of first occurrence, and each token's id among them."""
    index = defaultdict(itertools.count().__next__)
    ids = _ids(index, tokens)
    return tuple(index), ids


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


def _drained(lines) -> str:
    """The lines joined into one text; the list is emptied."""
    text = "".join(lines)
    lines.clear()
    return text


def _through_blank(stream):
    """The stream's next lines up to and including the first blank one."""
    for line in stream:
        yield line
        if line.isspace():
            return


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


# Non-blank lines per window of the readers and of the CLI
WINDOW_LINES = 2048


def windows(stream, budget, word_column=0, tag_column=None, skip_pattern=None,
            comment_prefix=None):
    """The windows of a corpus stream, read once, as the iterator advances.

    A window is (text, lengths, width): the kept lines of a block of whole
    sentences as one text, the int64 token count of each sentence, and the
    stream's column count. A block is the next `budget` (at least 1)
    non-blank lines, kept or dropped, with the blank lines among them and
    the lines up to the next blank line. Blocks without a token line are
    left out; a stream without token lines gives one empty window, of width
    None. Each line is checked once, by one _Scanner, as it is read: a bad
    line, or bytes that do not decode (_decode_error), raise when their
    window is reached, with the line number in the stream. read_records and
    read_conll parse a window as it is, given the options it was read with.
    """
    if budget < 1:
        raise ValueError(f"window budget must be 1 or more, not {budget}")
    scanner = _Scanner(word_column, tag_column, skip_pattern, comment_prefix)
    try:
        while True:
            lines, widths, filled = [], [], 0
            # once `budget` non-blank lines are read, read on to the end of the sentence
            while read := list(islice(stream, budget - filled) if filled < budget
                                else _through_blank(stream)):
                kept, counts = scanner.scan(read)
                lines += kept
                widths.append(counts)
                if filled >= budget:
                    break
                filled += len(read) - int(np.count_nonzero(counts == 0))
            if not filled:
                break
            widths = np.concatenate(widths)
            del read, kept
            if widths.any():  # sentences are the runs of token lines
                edges = np.diff((widths > 0).astype(np.int8), prepend=0, append=0)
                # the text is made in the yield, so the frame holds no line
                # and no text while the window is used
                yield (_drained(lines), np.flatnonzero(edges < 0) - np.flatnonzero(edges > 0),
                       scanner.width)
    except UnicodeDecodeError as exc:
        raise _decode_error(stream, exc) from None
    if scanner.width is None:  # no token line
        yield "", np.zeros(0, dtype=np.int64), None


def _windows_of(source, *options):
    """One window of windows() as it is, or a stream's windows of WINDOW_LINES lines."""
    return (source,) if isinstance(source, tuple) else windows(source, WINDOW_LINES, *options)


def read_records(stream, word_column=0, skip_pattern=None, comment_prefix=None,
                 tag_column=None):
    """Parse column records: a list of sentences, each a list of column lists.

    Lines whose word column matches `skip_pattern` (a regex, fully matched)
    are dropped, as are lines starting with `comment_prefix`. Every retained
    token line must have the word column, the tag column when one is given,
    and the same column count as the others; violations raise FormatError
    with the 1-based line number. Negative column numbers, a tag column
    equal to the word column and an invalid skip_pattern are rejected
    before the first line is read. `stream` may also be one window of
    windows(), which is parsed as it is.
    """
    sentences = []
    for text, lengths, width in _windows_of(stream, word_column, tag_column,
                                            skip_pattern, comment_prefix):
        flat = text.split()
        # width is None only in the empty window, whose range is empty
        rows = (flat[r:r + width] for r in range(0, len(flat), width or 1))
        sentences += [list(islice(rows, n)) for n in lengths.tolist()]
    return sentences


def read_conll(stream, word_column=0, tag_column=1, skip_pattern=None,
               comment_prefix=None) -> LabeledCorpus:
    """Read a labeled corpus, taking words and tags from the given columns.

    Reads the same lines as read_records, also from one window, and raises
    the same errors. Each window is interned as it is read, so only the
    corpus's id columns grow with the stream.
    """
    words, tags = defaultdict(itertools.count().__next__), defaultdict(itertools.count().__next__)
    blocks = [(_ids(words, ()), _ids(tags, ()), np.zeros(0, dtype=np.int64))]
    for text, lengths, width in _windows_of(stream, word_column, tag_column,
                                            skip_pattern, comment_prefix):
        flat = text.split()
        blocks.append((_ids(words, flat[word_column::width]),
                       _ids(tags, flat[tag_column::width]), lengths))
    word_ids, tag_ids, lengths = map(np.concatenate, zip(*blocks))
    return LabeledCorpus.from_ids(words, word_ids, tags, tag_ids, lengths)


def _decode_error(stream, exc) -> FormatError:
    """The FormatError of the first bytes of a stream that do not decode, which raised `exc`.

    The stream decodes a chunk at a time, and the position of its
    UnicodeDecodeError counts from the chunk. A file is decoded again from
    the start, a block at a time and keeping nothing, to say what the codec
    says when it decodes the whole file at once: the position counts from
    the start of the file. A stream that cannot seek, such as a pipe, is
    not read again: its error names the bytes and gives no position.
    """
    found, start = exc, None
    if stream.seekable():
        stream.seek(0)
        decoder = codecs.getincrementaldecoder(stream.encoding)()
        offset = 0  # bytes of the file before the block
        while True:
            block = stream.buffer.read(1 << 16)
            pending = len(decoder.getstate()[0])  # bytes of the blocks before, not yet decoded
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as bad:
                found, start = bad, offset - pending + bad.start
                break
            if not block:
                break
            offset += len(block)
    bad = found.object[found.start:found.end]
    if start is None:
        where = ("byte" if len(bad) == 1 else "bytes") + "".join(f" 0x{b:02x}" for b in bad)
    elif len(bad) == 1:
        where = f"byte 0x{bad[0]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{start + len(bad) - 1}"
    return FormatError(f"'{found.encoding}' codec can't decode {where}: {found.reason}")


def write_conll(sentences, stream):
    """Write sentences of column rows with single spaces.

    Inverse of read_records on the emitted columns; output bytes are
    deterministic.
    """
    for sent in sentences:
        for cols in sent:
            stream.write(" ".join(cols) + "\n")
        stream.write("\n")


def read_tag_mapping(stream) -> dict[str, str]:
    """Parse a mapping file of `source target` lines split on any whitespace.

    Bytes that do not decode raise the FormatError of _decode_error, as
    in the corpus readers.
    """
    mapping = {}
    try:
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
    except UnicodeDecodeError as exc:
        raise _decode_error(stream, exc) from None
    return mapping


def apply_mapping(corpus: LabeledCorpus, mapping: dict[str, str]) -> LabeledCorpus:
    """Replace every label through `mapping`; words are untouched.

    Raises UnknownTag listing all corpus tags absent from the mapping.
    """
    missing = set(corpus.tag_items).difference(mapping)
    if missing:
        raise UnknownTag(missing)
    tag_items, new_ids = _interned(map(mapping.__getitem__, corpus.tag_items))
    return LabeledCorpus.from_ids(corpus.word_items, corpus.word_ids, tag_items,
                                  new_ids[corpus.tag_ids], corpus.lengths)


def mark_known(corpus: LabeledCorpus, vocabulary) -> list[list[bool]]:
    """Per-token bits: True iff the token string is in the model vocabulary."""
    known = np.fromiter(map(vocabulary.__contains__, corpus.word_items), dtype=bool,
                        count=len(corpus.word_items))
    return corpus.per_sentence(known[corpus.word_ids].tolist())
