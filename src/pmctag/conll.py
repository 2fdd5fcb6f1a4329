"""Column-formatted (CoNLL-style) corpus reading and writing.

Token lines are whitespace-separated columns; sentences are separated by
blank lines. Reading never normalizes tokens: the feature functions need
raw orthography. Every reader reads a stream once, through windows(): it
cuts the stream into windows of whole sentences, of WINDOW_LINES
non-blank lines in the readers, so a stream may be a pipe. A corpus
repeats its lines, so each line is looked up in a bounded table of the
distinct lines (_LineTable), and only a line new to the table is split
and checked by the line rules. A window gives each token line as its
entry in the table. read_records builds the column rows of each window
from its distinct lines; read_conll interns the word and tag of each
entry once and keeps only id columns. Either parses one window of
windows() as it is.
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


class _LineTable:
    """The corpus line rules, and the distinct lines of a stream read so far.

    Made from the reader options, which it checks before any line is read:
    negative column numbers, a tag column equal to the word column and an
    invalid skip_pattern raise FormatError. lookup() takes the stream's next
    lines, each ending at a newline character and nowhere else, and gives
    each one's entry with one dict lookup: the distinct lines are numbered
    in order of first occurrence, and entry n is lines[n]. Only a line new
    to the table is split, to be checked, and given its kind: a line that
    holds only whitespace (anything str.split splits on) is BLANK, a comment
    line or a token line whose word matches skip_pattern is DROPPED, and any
    other line is a TOKEN line. The first token line of the stream fixes
    the column count, `width`; a later new token line that has another
    count or is too short for the word or tag column raises FormatError
    with its line number in the stream, so every token line in the table
    has passed the checks. clear() empties the table; the width stays.
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
        self.seen = 0  # lines looked up so far
        self.clear()

    def clear(self):
        """Start an empty table; the lists of lines already handed out stay as they are."""
        self.index = defaultdict(itertools.count().__next__)  # each distinct line: its entry
        self.lines = []  # the line of each entry
        self.kinds = np.zeros(0, dtype=np.int8)  # the kind of each entry

    def lookup(self, lines) -> np.ndarray:
        """The int32 entry of each of the stream's next lines."""
        known = len(self.index)
        entries = np.fromiter(map(self.index.__getitem__, lines), dtype=np.int32,
                              count=len(lines))
        if len(self.index) > known:  # the lines new to the table, in order of first occurrence
            new = list(islice(reversed(self.index), len(self.index) - known))
            new.reverse()
            self.kinds = np.concatenate([self.kinds, self._kinds(new, lines)])
            self.lines += new
        self.seen += len(lines)
        return entries

    def _kinds(self, new, lines) -> np.ndarray:
        """The kinds of the lines `new`, each first seen in `lines`, which are checked."""
        widths = np.fromiter(map(len, map(str.split, new)), dtype=np.int64, count=len(new))
        kinds = np.where(widths > 0, TOKEN, BLANK).astype(np.int8)
        if self.skip or self.comment_prefix:
            kinds[np.fromiter(map(self._dropped, new), dtype=bool, count=len(new))] = DROPPED
        token = kinds == TOKEN
        if token.any():
            if self.width is None:
                self.width = int(widths[token.argmax()])
            bad = token & ((widths != self.width) | (self.width < self.need))
            if bad.any():
                n = int(bad.argmax())
                raise _row_error(int(widths[n]), self.width, self.word_column,
                                 self.tag_column, self.seen + lines.index(new[n]) + 1)
        return kinds

    def _dropped(self, line) -> bool:
        """True for a comment line or a token line whose word matches skip_pattern.

        A line too short for the word column is kept, so the check reports it.
        """
        stripped = line.strip()
        if self.comment_prefix and stripped.startswith(self.comment_prefix):
            return True
        if self.skip is None:
            return False
        cols = stripped.split()
        return (self.word_column < len(cols)
                and self.skip.fullmatch(cols[self.word_column]) is not None)


# The kinds of line in a _LineTable
TOKEN, BLANK, DROPPED = 0, 1, 2
# Distinct lines a _LineTable holds before it is cleared, about 1 MB: a
# line of a short word and tag costs about 125 B in the table
TABLE_LINES = 8192


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

    A window is (entries, lengths, lines, width): the int32 entry of each
    token line of a block of whole sentences, the int64 token count of each
    sentence, the line of each entry, and the stream's column count.
    A block is the next `budget` (at least 1) non-blank lines, kept or
    dropped, with the blank lines among them and the lines up to the next
    blank line. Blocks without a token line are left out; a stream without
    token lines gives one empty window, of width 0. Each line is looked up
    once in one _LineTable, as it is read, and each distinct line is split
    and checked once per table: a bad line, or bytes that do not decode
    (_decode_error), raise when their window is reached, with the line
    number in the stream. The table is cleared before a window once it
    holds TABLE_LINES lines, so its memory does not grow with the stream;
    a window keeps the lines of its entries. read_records and read_conll
    parse a window as it is, given the options it was read with.
    """
    if budget < 1:
        raise ValueError(f"window budget must be 1 or more, not {budget}")
    table = _LineTable(word_column, tag_column, skip_pattern, comment_prefix)
    try:
        while True:
            if len(table.index) >= TABLE_LINES:
                table.clear()
            entries, filled = [], 0
            # once `budget` non-blank lines are read, read on to the end of the sentence
            while read := list(islice(stream, budget - filled) if filled < budget
                                else _through_blank(stream)):
                entries.append(table.lookup(read))
                if filled >= budget:
                    break
                filled += int(np.count_nonzero(table.kinds[entries[-1]] != BLANK))
            if not filled:
                break
            del read  # the frame holds no line while the window is used
            entries = np.concatenate(entries)
            kinds = table.kinds[entries]
            kept = kinds != DROPPED
            entries, token = entries[kept], kinds[kept] == TOKEN
            if token.any():  # sentences are the runs of token lines
                edges = np.diff(token.astype(np.int8), prepend=0, append=0)
                yield (entries[token], np.flatnonzero(edges < 0) - np.flatnonzero(edges > 0),
                       table.lines, table.width)
    except UnicodeDecodeError as exc:
        raise _decode_error(stream, exc) from None
    if table.width is None:  # no token line
        yield np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int64), [], 0


def _windows_of(source, *options):
    """One window of windows() as it is, or a stream's windows of WINDOW_LINES lines."""
    return (source,) if isinstance(source, tuple) else windows(source, WINDOW_LINES, *options)


def _columns(lines, entries) -> list[str]:
    """The columns of the lines of `entries`, one line after another."""
    return " ".join(map(lines.__getitem__, entries.tolist())).split()


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
    windows(), which is parsed as it is: each distinct line of a window is
    split once, and each token gets its own list of its line's columns.
    """
    sentences = []
    for entries, lengths, lines, width in _windows_of(stream, word_column, tag_column,
                                                      skip_pattern, comment_prefix):
        distinct, at = np.unique(entries, return_inverse=True)
        rows = list(zip(*[iter(_columns(lines, distinct))] * width))  # of each distinct line
        tokens = map(list, map(rows.__getitem__, at.tolist()))
        sentences += [list(islice(tokens, n)) for n in lengths.tolist()]
    return sentences


def read_conll(stream, word_column=0, tag_column=1, skip_pattern=None,
               comment_prefix=None) -> LabeledCorpus:
    """Read a labeled corpus, taking words and tags from the given columns.

    Reads the same lines as read_records, also from one window, and raises
    the same errors. The word and tag of each line in a window's table are
    interned once, in order of first occurrence, and each window's id
    columns are gathered through its entries, so only the corpus's id
    columns grow with the stream.
    """
    words, tags = defaultdict(itertools.count().__next__), defaultdict(itertools.count().__next__)
    blocks = [(_ids(words, ()), _ids(tags, ()), np.zeros(0, dtype=np.int64))]
    table, ids = None, None  # the table's lines, and the word and tag id of each entry or -1
    for entries, lengths, lines, width in _windows_of(stream, word_column, tag_column,
                                                      skip_pattern, comment_prefix):
        if lines is not table:  # a new table, none of whose lines is interned
            table, ids = lines, np.zeros((2, 0), dtype=np.int32)
        if ids.shape[1] < len(lines):  # -1 for each entry added since
            ids = np.concatenate([ids, np.full((2, len(lines) - ids.shape[1]), -1, np.int32)], 1)
        new = entries[ids[0, entries] < 0]  # the tokens of the entries not interned yet
        if len(new):
            flat = _columns(lines, new)
            ids[0, new] = _ids(words, flat[word_column::width])
            ids[1, new] = _ids(tags, flat[tag_column::width])
        blocks.append((*ids[:, entries], lengths))
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
