"""Versioned binary model files.

A model file stores only what cannot be derived: the task, the suffix
length, the label and word interners and the two raw count tables n0_ik
and n_ikjl. Every probability table is rederived on load, so a file
cannot carry tables that disagree with its counts.

Version 4 stores every integer array as its byte count, then its values
as unsigned LEB128 varints: seven bits per byte, lowest first, with the
top bit set on every byte of a value but its last. The reader accepts
only the canonical form: no value takes more bytes than it needs (a
last byte of 0 after others), none exceeds 64 bits, and the byte count
holds exactly the declared number of values. An interner is its string
count, the array of its strings' UTF-8 byte lengths and then one blob of
those bytes. A count table is its row count and two arrays: the first
differences of the rows' key numbers (model.key_numbers, the rows' token
codes read as the digits of one base labels x words number, which sort
like the rows), then the positive counts. The reader decodes each array
in blocks of at most VARINT_BLOCK bytes, so no temporary grows with the
table, and rebuilds the key columns with a cumulative sum and
model.key_columns. A model serializes to exactly one byte string, and the
reader rejects anything else, so every file it accepts writes back to
the same bytes. The header, the row and string counts and the byte counts
are fixed-width little-endian integers, and a CRC32 trailer guards
against corruption. Files of versions 1 to 3 raise UnsupportedVersion
and must be retrained.

A stored pattern takes about 2.8-3.4 bytes, against 5-6 in version 3,
which stored each array at the one width of its largest value. The
benchmark's seed-1 models take 211,085 (train-online), 191,642 (tag-mpm)
and 305,783 bytes (eval-map-oov), against 439,488, 390,136 and 458,209.
"""

from __future__ import annotations

import struct
import zlib
from itertools import accumulate

import numpy as np

from .errors import CorruptModel, UnsupportedVersion
from .features import MAX_SUFFIX_LEN
from .model import CountTable, CountTables, Interner, ModelBundle, key_columns
from .training import TASKS, bundle_from_counts

MAGIC = b"PMCTAG\r\n"
FORMAT_VERSION = 4
# Largest labels x words a model file may declare. The one dense label-by-word
# table, hmc.emit, takes 8 bytes per cell, so a model at the cap needs about
# 134 MB for it; Penn Treebank POS tagging (45 tags, about 50k words) needs
# 2.25M cells.
MAX_TABLE_CELLS = 2 ** 24
# Varint bytes decoded, and values encoded, at a time.
VARINT_BLOCK = 8192
# the varint bytes of a 64-bit value, at 7 bits each
VARINT_MAX_BYTES = 10


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

    def strings(self, items):
        """The string count, the strings' byte lengths as varints, then their bytes."""
        encoded = [s.encode("utf-8") for s in items]
        self.u64(len(encoded))
        self.varints(np.fromiter(map(len, encoded), np.uint64, len(encoded)))
        self.raw(b"".join(encoded))

    def varints(self, values: np.ndarray):
        """Non-negative integers as canonical LEB128 varints, behind their byte count."""
        blocks = [_encode_varints(values[at:at + VARINT_BLOCK].astype(np.uint64))
                  for at in range(0, len(values), VARINT_BLOCK)]
        self.u64(sum(map(len, blocks)))
        self.parts += blocks

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
        return _utf8(self._take(n), [n])[0]

    def strings(self) -> list[str]:
        """The strings written by _Writer.strings."""
        sizes = [size for block in self.varints(self.u64()) for size in block.tolist()]
        return _utf8(self._take(sum(sizes)), sizes)

    def varints(self, n):
        """The n values written by _Writer.varints, as uint64 blocks of at
        most VARINT_BLOCK values, refused unless canonical.

        n is checked against the bytes left before anything is read, and
        the blocks are decoded as they are drawn.
        """
        # every value takes a byte, behind the array's 8-byte byte count
        if n + 8 > len(self.data) - self.pos:
            raise CorruptModel("model payload is truncated")
        data = np.frombuffer(self._take(self.u64()), dtype=np.uint8)
        if len(data) and data[-1] >= 0x80:
            raise CorruptModel("unterminated varint")
        return _varint_blocks(data, n)

    def done(self):
        if self.pos != len(self.data):
            raise CorruptModel("trailing bytes after model payload")


def _utf8(blob: memoryview, sizes) -> list[str]:
    """blob cut into strings of the given byte lengths, each decoded as UTF-8."""
    blob = bytes(blob)
    ends = list(accumulate(sizes))
    try:
        return [blob[a:b].decode("utf-8") for a, b in zip([0, *ends], ends)]
    except UnicodeDecodeError as exc:
        raise CorruptModel(f"undecodable string: {exc}") from None


def _encode_varints(values: np.ndarray) -> bytes:
    """uint64 values as canonical LEB128 varints."""
    width = max(1, -(-int(values.max(initial=0)).bit_length() // 7))
    # row v holds value v's bytes, of which those kept are written
    digits = np.empty((len(values), width), dtype=np.uint8)
    kept = np.empty((len(values), width), dtype=bool)
    kept[:, 0] = True
    high = values
    for b in range(width):
        more = high > 0x7F
        if b + 1 < width:
            kept[:, b + 1] = more
        digits[:, b] = (high & 0x7F) | (more.view(np.uint8) << 7)
        high = high >> np.uint64(7)
    return digits[kept].tobytes()


def _varint_blocks(data: np.ndarray, n):
    """The n varints that fill data, whose last byte ends one, in uint64 blocks."""
    seen = at = 0
    while at < len(data):
        block = data[at:at + VARINT_BLOCK]
        # end the block on its last value's last byte, one of its final 10
        tail = block[-VARINT_MAX_BYTES:]
        ends = np.flatnonzero(tail < 0x80)
        if not len(ends):
            raise CorruptModel("varint exceeds 64 bits")
        block = block[:len(block) - len(tail) + int(ends[-1]) + 1]
        values = _decode_varints(block)
        at += len(block)
        seen += len(values)
        if seen > n:
            break
        yield values
    if seen != n:
        raise CorruptModel(f"{len(data)} varint bytes do not hold exactly {n} values")


def _decode_varints(block: np.ndarray) -> np.ndarray:
    """The canonical varints that fill block (uint8, ending on a last byte), as uint64."""
    ends = np.flatnonzero(block < 0x80)
    values = block[ends].astype(np.uint64)
    if len(ends) == len(block):
        return values
    sizes = np.diff(ends, prepend=-1)
    width = int(sizes.max())
    if width > VARINT_MAX_BYTES or (
            width == VARINT_MAX_BYTES and (values[sizes == width] > 1).any()):
        raise CorruptModel("varint exceeds 64 bits")
    if (sizes[values == 0] > 1).any():
        raise CorruptModel("overlong varint")
    # Horner's rule from each value's last byte back to its first; an index
    # ends - b below 0 wraps around, but sizes > b drops what it reads
    for b in range(1, width):
        digit = block[ends - b] & 0x7F
        values = np.where(sizes > b, (values << np.uint64(7)) | digit, values)
    return values


def _exact_sum(values) -> int:
    # exact: neither 32-bit half of up to 2 ** 32 uint64 values can overflow its sum
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())


def _write_count_table(w, table: CountTable, n_labels, n_words):
    w.u64(len(table))
    w.varints(np.diff(table.numbers(n_labels, n_words), prepend=0))
    w.varints(table.counts)


def _read_count_table(r, n_tokens, n_labels, n_words):
    """(table, exact count total) of a count table of n_tokens (label,
    word) pairs per key row."""
    limit = (n_labels * n_words) ** n_tokens  # the key numbers lie below it
    n = r.u64()
    steps, counts = r.varints(n), r.varints(n)
    # the key columns are built, and the key numbers dropped, before the
    # counts are decoded, so the two int64 arrays are never held together
    columns = key_columns(_key_numbers(steps, n, limit), n_tokens, n_labels, n_words)
    counts, total = _counts(counts, n)
    return CountTable(columns, counts), total


def _key_numbers(blocks, n, limit) -> np.ndarray:
    """The n key numbers whose first differences blocks holds, refused
    unless they strictly increase below limit."""
    numbers = np.empty(n, dtype=np.int64)
    at = 0
    for steps in blocks:
        # limit is at most 2 ** 48 under MAX_TABLE_CELLS, so a block's
        # cumulative sum of steps below it cannot overflow
        if steps.max() >= limit:
            raise CorruptModel("count key refers to an unknown label or word")
        if not (steps[1:] if at == 0 else steps).all():
            raise CorruptModel("count keys are not strictly increasing")
        part = numbers[at:at + len(steps)]
        np.cumsum(steps.view(np.int64), out=part)
        if at:
            part += numbers[at - 1]
        if part[-1] >= limit:
            raise CorruptModel("count key refers to an unknown label or word")
        at += len(steps)
    return numbers


def _counts(blocks, n):
    """(the n positive int64 counts blocks holds, their exact total),
    refused if the total overflows int64."""
    counts = np.empty(n, dtype=np.int64)
    at = total = 0
    for values in blocks:
        if not values.all():
            raise CorruptModel("zero count stored")
        total += _exact_sum(values)
        if total >= 2 ** 63:
            raise CorruptModel("counts overflow a signed 64-bit total")
        counts[at:at + len(values)] = values
        at += len(values)
    return counts, total


def _check_every_id_used(n_labels, n_words, n0_ik, n_ikjl):
    """Raise CorruptModel unless every label and word starts a chain or ends a pattern.

    Every token of a training corpus starts a chain (is in an n0_ik key)
    or ends a pattern (is the second pair of an n_ikjl key), so only a
    damaged or crafted file declares a label or word that does neither.
    """
    for what, size, column in (("label", n_labels, 0), ("word", n_words, 1)):
        used = np.zeros(size, dtype=bool)
        used[n0_ik.columns[column]] = True
        used[n_ikjl.columns[column + 2]] = True
        if not used.all():
            raise CorruptModel(f"{what} {int(used.argmin())} occurs in no count key "
                               "as a chain start or a pattern end")


def _read_interner(r, what) -> Interner:
    items = r.strings()
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
    w.strings(model.alphabet.items)
    w.strings(model.vocabulary.items)
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
