"""Versioned binary model files.

A model file stores only what cannot be derived: the task, the suffix
length, the label and word interners and the two raw count tables n0_ik
and n_ikjl. Every probability table is rederived on load, so a file
cannot carry tables that disagree with its counts. A count table is
stored as its CountTable arrays: the key rows in strictly increasing
order, then the positive counts. Writing is an array dump, and a model
serializes to exactly one byte string; the reader checks the arrays,
rejects anything else and hands them out as they are. A CRC32 trailer
guards against corruption; ids are stored as little-endian uint32,
counts as uint64.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import CorruptModel, UnsupportedVersion
from .features import MAX_SUFFIX_LEN
from .model import CountTable, CountTables, Interner, ModelBundle, rows_increase
from .training import TASKS, bundle_from_counts

MAGIC = b"PMCTAG\r\n"
FORMAT_VERSION = 2
# Largest labels x words a model file may declare. Each dense label-by-word
# table (m_ik, hmc.emit, the index's pi2) takes 8 bytes per cell, so a model
# at the cap needs about 400 MB for them; Penn Treebank POS tagging (45 tags,
# about 50k words) needs 2.25M cells.
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

    def array(self, a: np.ndarray, dtype):
        a = np.ascontiguousarray(a, dtype=dtype)
        self.u64(a.size)
        self.raw(a.tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n) -> bytes:
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
            return self._take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptModel(f"undecodable string: {exc}") from None

    def string_list(self):
        return [self.string() for _ in range(self.u64())]

    def array(self, dtype) -> np.ndarray:
        n = self.u64()
        itemsize = np.dtype(dtype).itemsize
        return np.frombuffer(self._take(n * itemsize), dtype=dtype)

    def done(self):
        if self.pos != len(self.data):
            raise CorruptModel("trailing bytes after model payload")


def _write_count_table(w, table: CountTable):
    w.array(table.keys, np.uint32)
    w.array(table.counts, np.uint64)


def _read_count_table(r, id_limits) -> CountTable:
    """Read a count table whose key columns are bounded by id_limits."""
    width = len(id_limits)
    keys = r.array(np.uint32)
    values = r.array(np.uint64)
    if keys.size != values.size * width:
        raise CorruptModel("count key and value arrays disagree in size")
    keys = keys.reshape(-1, width)
    if (keys >= np.array(id_limits, dtype=np.int64)).any():
        raise CorruptModel("count key refers to an unknown label or word")
    if (values == 0).any():
        raise CorruptModel("zero count stored")
    keys = keys.astype(np.int64)
    if not rows_increase(keys):
        raise CorruptModel("count keys are not strictly increasing")
    # exact: neither 32-bit half of the counts can overflow its uint64 sum
    total = (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())
    if total >= 2 ** 63:
        raise CorruptModel("counts overflow a signed 64-bit total")
    return CountTable(keys, values.astype(np.int64))


def _check_every_id_used(n_labels, n_words, n0_ik, n_ikjl):
    """Raise CorruptModel unless every label and word occurs in a count key.

    Every token of a training corpus starts a chain (an n0_ik key) or ends
    a pattern (an n_ikjl key), so only a damaged or crafted file declares
    a label or word that no key uses.
    """
    for what, size, first, pair in (("label", n_labels, 0, (0, 2)),
                                    ("word", n_words, 1, (1, 3))):
        used = np.zeros(size, dtype=bool)
        used[n0_ik.keys[:, first]] = True
        for column in pair:
            used[n_ikjl.keys[:, column]] = True
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
    _write_count_table(w, model.counts.n0_ik)
    _write_count_table(w, model.counts.n_ikjl)
    payload = w.getvalue()
    header = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(payload))
    return header + payload + struct.pack("<I", zlib.crc32(payload))


def deserialize_model(data: bytes) -> ModelBundle:
    """Rebuild a model bundle from serialize_model output.

    Any byte string either loads as a model that passes validate() or
    raises CorruptModel or UnsupportedVersion. Every label and word must
    occur in a count key and labels x words may not exceed
    MAX_TABLE_CELLS, so the dense tables a file makes the loader allocate
    are bounded; both checks read each key row once.
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
    payload = data[head_len:head_len + payload_len]
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
    n0_ik = _read_count_table(r, (n, v))
    n_ikjl = _read_count_table(r, (n, v, n, v))
    r.done()
    if not n0_ik:
        raise CorruptModel("model holds no chains")
    _check_every_id_used(n, v, n0_ik, n_ikjl)
    if n * v > MAX_TABLE_CELLS:
        raise CorruptModel(f"{n} labels by {v} words exceed {MAX_TABLE_CELLS} table cells")
    counts = CountTables(n, v, n0_ik, n_ikjl)
    return bundle_from_counts(alphabet, vocabulary, counts, task, suffix_max_len)


def save_model(model: ModelBundle, path):
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


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
        f"pmc-transitions {np.count_nonzero(counts.m_ik)}",
        f"pmc-emissions {len(counts.n_ikjl)}",
        f"suffix-max-len {model.suffix_max_len}",
    ]
    for m, table in enumerate(model.features.tables):
        lines.append(f"feature-entries-{m} {np.count_nonzero(table)}")
    return "\n".join(lines) + "\n"
