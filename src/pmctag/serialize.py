"""Versioned binary model files.

A model file stores only what cannot be derived: the task, the suffix
length, the label and word interners and the two raw count tables n0_ik
and n_ikjl. Every probability table is rederived on load, so a file
cannot carry tables that disagree with its counts.

Version 3 stores a count table as its row count and two arrays: the
first differences of the rows' key numbers (model.key_numbers, the
rows' token codes read as the digits of one base labels x words number,
which sort like the rows), then the positive counts. Each array is
stored at the narrowest of 1, 2, 4 or 8 bytes per value that holds its
largest value, behind a one-byte width tag, and the reader accepts no
other width. It rebuilds the key columns with one cumulative sum and
model.key_columns. A model serializes to exactly one byte string, and the
reader rejects anything else, so every file it accepts writes back to
the same bytes. Integers are little-endian, and a CRC32 trailer guards
against corruption.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import CorruptModel, UnsupportedVersion
from .features import MAX_SUFFIX_LEN
from .model import CountTable, CountTables, Interner, ModelBundle, key_columns
from .training import TASKS, bundle_from_counts

MAGIC = b"PMCTAG\r\n"
FORMAT_VERSION = 3
# byte widths of the unsigned integers a count table array may be stored in
WIDTHS = (1, 2, 4, 8)
# Largest labels x words a model file may declare. The one dense label-by-word
# table, hmc.emit, takes 8 bytes per cell, so a model at the cap needs about
# 134 MB for it; Penn Treebank POS tagging (45 tags, about 50k words) needs
# 2.25M cells.
MAX_TABLE_CELLS = 2 ** 24


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def u32(self, v):
        self.parts.append(struct.pack("<I", v))

    def u64(self, v):
        self.parts.append(struct.pack("<Q", v))

    def raw(self, b):
        self.parts.append(b)

    def string(self, s: str):
        b = s.encode("utf-8")
        self.u64(len(b))
        self.raw(b)

    def string_list(self, items):
        self.u64(len(items))
        for s in items:
            self.string(s)

    def packed(self, a: np.ndarray):
        """A non-negative int array at its narrowest width, behind a width tag."""
        width = _narrowest(int(a.max(initial=0)))
        self.raw(bytes((width,)))
        self.raw(a.astype(f"<u{width}").tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def _take(self, n) -> memoryview:
        end = self.pos + n
        if end > len(self.data):
            raise CorruptModel("model payload is truncated")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u32(self):
        return struct.unpack("<I", self._take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8))[0]

    def string(self) -> str:
        n = self.u64()
        try:
            return str(self._take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptModel(f"undecodable string: {exc}") from None

    def string_list(self):
        return [self.string() for _ in range(self.u64())]

    def packed(self, n) -> np.ndarray:
        """n values stored by _Writer.packed, refused at any other width."""
        (width,) = self._take(1)
        if width not in WIDTHS:
            raise CorruptModel(f"unknown width tag {width}")
        values = np.frombuffer(self._take(n * width), dtype=f"<u{width}")
        top = int(values.max(initial=0))
        if _narrowest(top) != width:
            raise CorruptModel(f"{width}-byte width is wider than needed for {top}")
        return values

    def done(self):
        if self.pos != len(self.data):
            raise CorruptModel("trailing bytes after model payload")


def _narrowest(top) -> int:
    """Byte width of the narrowest unsigned integer in WIDTHS holding top."""
    return next(width for width in WIDTHS if top < 1 << 8 * width)


def _exact_sum(values) -> int:
    # exact: neither 32-bit half of the values can overflow its uint64 sum
    values = values.astype(np.uint64, copy=False)
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())


def _write_count_table(w, table: CountTable, n_labels, n_words):
    w.u64(len(table))
    w.packed(np.diff(table.numbers(n_labels, n_words), prepend=0))
    w.packed(table.counts)


def _read_count_table(r, n_tokens, n_labels, n_words):
    """(table, exact count total) of a count table of n_tokens (label,
    word) pairs per key row."""
    limit = (n_labels * n_words) ** n_tokens  # the key numbers lie below it
    n = r.u64()
    steps = r.packed(n)
    # the differences are non-negative, so their sum is the largest key number
    if n and _exact_sum(steps) >= limit:
        raise CorruptModel("count key refers to an unknown label or word")
    if not steps[1:].all():
        raise CorruptModel("count keys are not strictly increasing")
    counts = r.packed(n)
    if not counts.all():
        raise CorruptModel("zero count stored")
    columns = key_columns(np.cumsum(steps, dtype=np.int64), n_tokens, n_labels, n_words)
    return CountTable(columns, counts.astype(np.int64)), _exact_sum(counts)


def _check_every_id_used(n_labels, n_words, n0_ik, n_ikjl):
    """Raise CorruptModel unless every label and word occurs in a count key.

    Every token of a training corpus starts a chain (an n0_ik key) or ends
    a pattern (an n_ikjl key), so only a damaged or crafted file declares
    a label or word that no key uses.
    """
    for what, size, first, pair in (("label", n_labels, 0, (0, 2)),
                                    ("word", n_words, 1, (1, 3))):
        used = np.zeros(size, dtype=bool)
        used[n0_ik.columns[first]] = True
        for column in pair:
            used[n_ikjl.columns[column]] = True
        if not used.all():
            raise CorruptModel(f"{what} {int(used.argmin())} occurs in no count key")


def _read_interner(r, what) -> Interner:
    items = r.string_list()
    interner = Interner(items)
    if len(interner) != len(items):
        raise CorruptModel(f"duplicate {what}")
    return interner


def serialize_model(model: ModelBundle) -> bytes:
    """Deterministic byte encoding of a model bundle.

    A model beyond MAX_TABLE_CELLS raises ValueError, since no reader
    would load it.
    """
    cells = len(model.alphabet) * len(model.vocabulary)
    if cells > MAX_TABLE_CELLS:
        raise ValueError(f"{len(model.alphabet)} labels by {len(model.vocabulary)} words "
                         f"exceed the {MAX_TABLE_CELLS} table cells a model file may hold")
    w = _Writer()
    w.string(model.task)
    w.u32(model.suffix_max_len)
    w.string_list(model.alphabet.items)
    w.string_list(model.vocabulary.items)
    n, v = len(model.alphabet), len(model.vocabulary)
    _write_count_table(w, model.counts.n0_ik, n, v)
    _write_count_table(w, model.counts.n_ikjl, n, v)
    payload = w.getvalue()
    header = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(payload))
    return header + payload + struct.pack("<I", zlib.crc32(payload))


def deserialize_model(data: bytes) -> ModelBundle:
    """Rebuild a model bundle from serialize_model output.

    Any byte string either loads as a model that passes validate() or
    raises CorruptModel or UnsupportedVersion. Every label and word must
    occur in a count key and labels x words may not exceed
    MAX_TABLE_CELLS, so the dense emission table a file makes the loader
    allocate is bounded. The cap is checked before the count tables are
    read, so their key numbers stay below 2 ** 48.
    """
    head_len = len(MAGIC) + 12
    if len(data) < head_len:
        raise CorruptModel("model header is truncated")
    if data[:len(MAGIC)] != MAGIC:
        raise CorruptModel("bad magic bytes")
    version, payload_len = struct.unpack("<IQ", data[len(MAGIC):head_len])
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"format version {version} is not supported")
    if len(data) != head_len + payload_len + 4:
        raise CorruptModel("model file length does not match header")
    payload = memoryview(data)[head_len:head_len + payload_len]
    (crc,) = struct.unpack("<I", data[head_len + payload_len:])
    if zlib.crc32(payload) != crc:
        raise CorruptModel("checksum mismatch")

    r = _Reader(payload)
    task = r.string()
    if task not in TASKS:
        raise CorruptModel(f"unknown task {task!r}")
    suffix_max_len = r.u32()
    if suffix_max_len > MAX_SUFFIX_LEN:
        raise CorruptModel(f"suffix length {suffix_max_len} exceeds {MAX_SUFFIX_LEN}")
    alphabet = _read_interner(r, "label")
    vocabulary = _read_interner(r, "word")
    if "" in vocabulary:
        raise CorruptModel("empty word in vocabulary")
    n, v = len(alphabet), len(vocabulary)
    if n * v > MAX_TABLE_CELLS:
        raise CorruptModel(f"{n} labels by {v} words exceed {MAX_TABLE_CELLS} table cells")
    n0_ik, chains = _read_count_table(r, 1, n, v)
    n_ikjl, patterns = _read_count_table(r, 2, n, v)
    r.done()
    # the feature tables add both tables' counts per label: every token
    # starts a chain or ends a pattern
    if chains + patterns >= 2 ** 63:
        raise CorruptModel("counts overflow a signed 64-bit total")
    if not n0_ik:
        raise CorruptModel("model holds no chains")
    _check_every_id_used(n, v, n0_ik, n_ikjl)
    counts = CountTables(n, v, n0_ik, n_ikjl)
    return bundle_from_counts(alphabet, vocabulary, counts, task, suffix_max_len)


def save_model(model: ModelBundle, path) -> int:
    """Write the model file; returns the number of bytes written."""
    data = serialize_model(model)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def load_model(path) -> ModelBundle:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())


def model_stats(model: ModelBundle) -> str:
    """Line-oriented diagnostic dump of counts and table sizes."""
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
        f"pmc-transitions {len(counts.m_ik_runs()[0])}",
        f"pmc-emissions {len(counts.n_ikjl)}",
        f"suffix-max-len {model.suffix_max_len}",
    ]
    for m, table in enumerate(model.features.tables):
        lines.append(f"feature-entries-{m} {np.count_nonzero(table)}")
    return "\n".join(lines) + "\n"
