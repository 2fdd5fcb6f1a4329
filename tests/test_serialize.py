import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmctag import serialize
from pmctag.cli import main
from pmctag.conll import LabeledCorpus
from pmctag.errors import CorruptModel, UnsupportedVersion
from pmctag.model import CountTables, Interner
from pmctag.serialize import (FORMAT_VERSION, MAGIC, VARINT_MAX_BYTES, _Reader, _Writer,
                              deserialize_model, load_model, model_stats, save_model,
                              serialize_model)
from pmctag.training import TrainConfig, bundle_from_counts, train_model

from conftest import varied_corpus
from load_reference import key_rows, table_from_rows

HEAD_LEN = len(MAGIC) + 12


@pytest.fixture(scope="module")
def model():
    corpus = varied_corpus(random.Random(7), n_sentences=60)
    return train_model(corpus, TrainConfig(task="pos"))


def test_round_trip_identity(model):
    data = serialize_model(model)
    back = deserialize_model(data)
    assert back == model
    back.validate()


def test_round_trip_preserves_decoding(model, tmp_path):
    from pmctag.inference import decode_sentence

    path = tmp_path / "m.bin"
    save_model(model, path)
    back = load_model(path)
    # "bikes" is unknown but shares shape and suffix with the known "likes"
    sentence = ["John", "likes", "bikes", "runs"]
    assert decode_sentence(back, sentence).labels == decode_sentence(model, sentence).labels


def test_determinism(model):
    assert serialize_model(model) == serialize_model(model)


def test_reserialization_after_round_trip_is_identical(model):
    data = serialize_model(model)
    assert serialize_model(deserialize_model(data)) == data


def test_derived_tables_rederivable_from_stored_counts(model):
    from pmctag.features import derive_feature_tables
    from pmctag.training import fit_hmc

    back = deserialize_model(serialize_model(model))
    assert fit_hmc(back.counts) == back.hmc
    assert derive_feature_tables(back.counts, back.vocabulary,
                                 back.suffix_max_len) == back.features


def test_truncated_stream(model):
    data = serialize_model(model)
    for cut in (10, len(data) // 2, len(data) - 1):
        with pytest.raises(CorruptModel):
            deserialize_model(data[:cut])


def test_bit_flip_detected(model):
    data = bytearray(serialize_model(model))
    data[len(data) // 2] ^= 0xFF
    with pytest.raises(CorruptModel):
        deserialize_model(bytes(data))


def test_unknown_version(model):
    data = bytearray(serialize_model(model))
    data[8] = 99  # version field follows the 8-byte magic
    with pytest.raises(UnsupportedVersion):
        deserialize_model(bytes(data))


def test_format_v1_rejected(model):
    data = bytearray(serialize_model(model))
    data[8:12] = struct.pack("<I", 1)
    with pytest.raises(UnsupportedVersion):
        deserialize_model(bytes(data))


def test_format_v2_rejected(model):
    data = bytearray(serialize_model(model))
    data[8:12] = struct.pack("<I", 2)
    with pytest.raises(UnsupportedVersion):
        deserialize_model(bytes(data))


def test_format_v3_rejected(model):
    data = bytearray(serialize_model(model))
    data[8:12] = struct.pack("<I", 3)
    with pytest.raises(UnsupportedVersion):
        deserialize_model(bytes(data))


def _with_fixed_crc(data: bytearray) -> bytes:
    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[HEAD_LEN:-4])))
    return bytes(data)


def _leb128(values) -> bytes:
    """Unsigned LEB128: seven bits per byte, lowest first, the top bit set on
    every byte of a value but its last."""
    out = bytearray()
    for v in values:
        while v > 0x7F:
            out.append(v & 0x7F | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


def _varint_array(values, raw=None) -> bytes:
    """An array as the file stores it: its byte count, then its varints
    (or the raw bytes given in their place)."""
    raw = _leb128(values) if raw is None else raw
    return struct.pack("<Q", len(raw)) + raw


def _strings(items, sizes=None) -> bytes:
    """An interner as the file stores it: the string count, the array of
    byte lengths (or the raw sizes bytes in its place), then the bytes."""
    encoded = [s.encode("utf-8") for s in items]
    return (struct.pack("<Q", len(encoded)) + _varint_array(map(len, encoded), sizes)
            + b"".join(encoded))


def _encode(task="pos", suffix_max_len=3, labels=("A", "B"), words=("x", "y"),
            n0_ik=None, n_ikjl=None, arrays=(None,) * 4, label_sizes=None):
    """A model file written field by field, bypassing every writer check.

    A table is a list of (key, count) items, kept in the order given and
    with duplicates. A key is an id tuple, whose (label, word) codes are
    read as the digits of a base labels x words number even where an id
    is out of range, or that key number itself. arrays may give raw bytes
    to store in place of the varints of the n0_ik differences, n0_ik
    counts, n_ikjl differences and n_ikjl counts, in that order, and
    label_sizes in place of the label byte lengths.
    """
    n0_ik = [((0, 0), 1)] if n0_ik is None else n0_ik
    n_ikjl = [((0, 0, 1, 1), 1)] if n_ikjl is None else n_ikjl
    w = _Writer()
    w.string(task)
    w.u32(suffix_max_len)
    w.raw(_strings(labels, label_sizes))
    w.raw(_strings(words))
    radix = len(labels) * len(words)
    for table, (steps, counts) in ((n0_ik, arrays[:2]), (n_ikjl, arrays[2:])):
        numbers = []
        for key, _ in table:
            if isinstance(key, tuple):
                codes = [i * len(words) + k for i, k in zip(key[0::2], key[1::2])]
                key = sum(c * radix ** p for p, c in enumerate(reversed(codes)))
            numbers.append(key)
        w.u64(len(table))
        w.raw(_varint_array([b - a for a, b in zip([0] + numbers, numbers)], steps))
        w.raw(_varint_array([c for _, c in table], counts))
    payload = w.getvalue()
    return (MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload)))


def test_handwritten_encoding_loads():
    model = deserialize_model(_encode())
    model.validate()
    # the test writer lays the file out exactly like the real one
    assert serialize_model(model) == _encode()


VARINT_EDGES = [0, 127, 128, 16383, 16384, 2 ** 63 - 1]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(VARINT_EDGES), st.integers(0, 2 ** 63 - 1)),
                       max_size=40),
       block=st.sampled_from([VARINT_MAX_BYTES, 16, serialize.VARINT_BLOCK]))
@example(values=[], block=serialize.VARINT_BLOCK)
@example(values=VARINT_EDGES, block=VARINT_MAX_BYTES)
def test_varint_codec_round_trips(values, block):
    """The writer's varints are the reference LEB128 bytes, and the reader
    gives the values back across any block boundaries."""
    array = np.array(values, dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "VARINT_BLOCK", block)
        w = _Writer()
        w.varints(array)
        data = w.getvalue()
        r = _Reader(memoryview(data))
        back = [v for part in r.varints(len(array)) for v in part.tolist()]
        r.done()
    assert data == _varint_array(values)
    assert back == values


@pytest.mark.parametrize("fields, reason", [
    # the key numbers of 2 labels by 2 words lie below 4 (n0_ik) and 16 (n_ikjl)
    (dict(n0_ik=[((2, 0), 1)]), "unknown label or word"),
    (dict(n_ikjl=[((1, 1, 1, 2), 1)]), "unknown label or word"),
    (dict(n_ikjl=[((0, 0xFFFFFFFF, 1, 1), 1)]), "unknown label or word"),
    (dict(n_ikjl=[((0, 0, 1, 1), 0)]), "zero count"),
    (dict(n_ikjl=[((0, 0, 1, 1), 2 ** 63)]), "overflow"),
    (dict(n_ikjl=[((0, 0, 1, 1), 2 ** 62), ((1, 1, 0, 0), 2 ** 62)]), "overflow"),
    (dict(n0_ik=[((0, 0), 1), ((0, 0), 1)]), "strictly increasing"),
    (dict(n_ikjl=[((0, 0, 1, 1), 1), ((0, 0, 1, 1), 1)]), "strictly increasing"),
    (dict(labels=("A", "A")), "duplicate label"),
    (dict(words=("x", "x")), "duplicate word"),
    (dict(words=("x", "")), "empty word"),
    (dict(task="postag"), "unknown task"),
    (dict(suffix_max_len=1 << 20), "suffix length"),
    (dict(n0_ik=[], n_ikjl=[]), "no chains"),
    (dict(labels=("A", "B", "C")), "label 2 occurs in no count key"),
    (dict(words=("x", "y", "z")), "word 2 occurs in no count key"),
    (dict(words=("z", "x", "y"), n_ikjl=[((0, 1, 1, 2), 1)], n0_ik=[((0, 1), 1)]),
     "word 0 occurs in no count key"),
    # a later difference at the limit, differences below it that sum to it
    # or beyond, and a sum past 2 ** 64 that a wrapping uint64 sum would miss
    (dict(n0_ik=[((0, 0), 1), (4, 1)]), "unknown label or word"),
    (dict(n0_ik=[((1, 1), 1), (6, 1)]), "unknown label or word"),
    (dict(n_ikjl=[((0, 0, 1, 1), 1), (3 + 2 ** 64 - 1, 1)]), "unknown label or word"),
    # each table's counts fit, but not the token total the feature fit sums
    (dict(n0_ik=[((0, 0), 2 ** 62)], n_ikjl=[((0, 0, 1, 1), 2 ** 62)]), "overflow"),
    # a value in more bytes than it needs: 0 and 1 in two bytes, 127 in three
    (dict(arrays=(b"\x80\x00", None, None, None)), "overlong varint"),
    (dict(arrays=(None, b"\x81\x00", None, None)), "overlong varint"),
    (dict(n_ikjl=[((0, 0, 1, 1), 127)], arrays=(None, None, None, b"\xff\x80\x00")),
     "overlong varint"),
    (dict(label_sizes=b"\x01\x81\x00"), "overlong varint"),
    # ten bytes hold 70 bits, of which the last byte may set only bit 63;
    # eleven bytes are never valid
    (dict(arrays=(None, None, None, b"\xff" * 9 + b"\x02")), "exceeds 64 bits"),
    (dict(arrays=(None, None, b"\x80" * 10 + b"\x01", None)), "exceeds 64 bits"),
    (dict(arrays=(None, b"\x81" * 20000 + b"\x01", None, None)), "exceeds 64 bits"),
    # byte counts that hold more or fewer values than the table has rows
    (dict(arrays=(None, b"\x01\x01", None, None)), "do not hold exactly 1 values"),
    (dict(arrays=(None, None, b"", None)), "do not hold exactly 1 values"),
    (dict(n_ikjl=[], arrays=(None, None, b"\x00", None)), "do not hold exactly 0 values"),
    (dict(label_sizes=b"\x01"), "do not hold exactly 2 values"),
    # a last byte that promises another
    (dict(arrays=(None, None, None, b"\x81")), "unterminated varint"),
    (dict(arrays=(b"\x00\x80", None, None, None)), "unterminated varint"),
    # "zz" and "Y" only start a pattern: no corpus gives a token that neither
    # starts its sentence nor follows another
    (dict(labels=("X",), words=("a", "zz"), n0_ik=[((0, 0), 1)], n_ikjl=[((0, 1, 0, 0), 1)]),
     "word 1 occurs in no count key as a chain start or a pattern end"),
    (dict(labels=("X", "Y"), words=("a",), n0_ik=[((0, 0), 1)], n_ikjl=[((1, 0, 0, 0), 1)]),
     "label 1 occurs in no count key as a chain start or a pattern end"),
])
def test_malformed_fields_rejected(fields, reason):
    with pytest.raises(CorruptModel, match=reason):
        deserialize_model(_encode(**fields))


@pytest.fixture(scope="module")
def small_model_bytes():
    corpus = varied_corpus(random.Random(11), n_sentences=6)
    return serialize_model(train_model(corpus, TrainConfig(task="chunk")))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_single_byte_mutations_load_valid_or_raise(small_model_bytes, data):
    blob = bytearray(small_model_bytes)
    pos = data.draw(st.integers(0, len(blob) - 5), label="position")
    value = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]),
                      label="byte")
    blob[pos] = value
    mutated = _with_fixed_crc(blob)
    try:
        model = deserialize_model(mutated)
    except (CorruptModel, UnsupportedVersion):
        return
    model.validate()
    assert serialize_model(model) == mutated


def _encode_model(model, labels, words):
    """model's file with the given label and word lists in place of its own."""
    n, v = model.counts.n_labels, model.counts.n_words
    tables = [list(zip(map(tuple, key_rows(t, n, v).tolist()), t.counts.tolist()))
              for t in (model.counts.n0_ik, model.counts.n_ikjl)]
    return _encode(model.task, model.suffix_max_len, labels, words, *tables)


def test_model_encoding_matches_the_writer(small_model_bytes):
    model = deserialize_model(small_model_bytes)
    assert _encode_model(model, model.alphabet, model.vocabulary) == small_model_bytes


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_inflated_label_and_word_counts_raise(small_model_bytes, data):
    """A header that declares more labels or words than the count keys
    use is refused, wherever the extra strings sit; the CRC is valid."""
    model = deserialize_model(small_model_bytes)
    labels, words = list(model.alphabet), list(model.vocabulary)
    extra_labels = data.draw(st.integers(0, 3), label="extra labels")
    extra_words = data.draw(st.integers(0 if extra_labels else 1, 3), label="extra words")
    for items, extra, stem in ((labels, extra_labels, "Label"), (words, extra_words, "word")):
        for m in range(extra):
            items.insert(data.draw(st.integers(0, len(items)), label="at"), f"{stem}-{m}-new")
    with pytest.raises(CorruptModel, match="occurs in no count key"):
        deserialize_model(_encode_model(model, labels, words))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_inflated_count_fields_raise(small_model_bytes, data):
    """A stored label or word count above what the rest of the payload
    could hold (every string takes at least one byte, its length, behind
    the 8-byte byte count of the lengths) is reported as truncation,
    before anything is sized by it."""
    model = deserialize_model(small_model_bytes)
    at = HEAD_LEN + 8 + len(model.task) + 4  # after the task string and suffix length
    fields = {"labels": at, "words": at + len(_strings(model.alphabet))}
    which = data.draw(st.sampled_from(sorted(fields)), label="field")
    pos = fields[which]
    room = len(small_model_bytes) - 4 - (pos + 8) - 8  # strings the rest could hold
    inflated = data.draw(st.integers(room + 1, 2 ** 64 - 1), label="count")
    blob = bytearray(small_model_bytes)
    blob[pos:pos + 8] = struct.pack("<Q", inflated)
    with pytest.raises(CorruptModel, match="truncated"):
        deserialize_model(_with_fixed_crc(blob))


def test_label_word_product_is_capped(monkeypatch):
    data = _encode()  # 2 labels by 2 words
    model = deserialize_model(data)
    monkeypatch.setattr(serialize, "MAX_TABLE_CELLS", 3)
    with pytest.raises(CorruptModel, match="2 labels by 2 words exceed 3 table cells"):
        deserialize_model(data)
    # the writer refuses a file no reader would load
    with pytest.raises(ValueError, match="exceed the 3 table cells"):
        serialize_model(model)


@pytest.mark.parametrize("capped", [False, True])
def test_cli_exits_2_on_unbounded_models(capped, monkeypatch, tmp_path, capsys):
    model = tmp_path / "m.pmc"
    model.write_bytes(_encode(words=("x", "y", "z")) if not capped else _encode())
    if capped:
        monkeypatch.setattr(serialize, "MAX_TABLE_CELLS", 3)
    sentences = tmp_path / "in.txt"
    sentences.write_text("x\ny\n", encoding="utf-8")
    code = main(["tag", "--model", str(model), "--input", str(sentences)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_magic(model):
    data = bytearray(serialize_model(model))
    data[0] ^= 0xFF
    with pytest.raises(CorruptModel):
        deserialize_model(bytes(data))


def test_degenerate_model_round_trip():
    # a single one-token chain: no adjacent patterns, empty pairwise tables
    from pmctag.conll import LabeledCorpus

    corpus = LabeledCorpus([[("Solo", "X")]])
    model = train_model(corpus, TrainConfig(task="pos"))
    assert len(model.counts.n_ikjl) == 0
    back = deserialize_model(serialize_model(model))
    assert back == model
    back.validate()


@st.composite
def count_tables(draw):
    """(labels, words, CountTables) whose keys use every label and word,
    the last of each included, with counts summing up to 2 ** 63 - 1."""
    n, v = draw(st.integers(1, 4), label="labels"), draw(st.integers(1, 5), label="words")
    label, word = st.integers(0, n - 1), st.integers(0, v - 1)
    chains = draw(st.sets(st.tuples(label, word), max_size=8), label="chains")
    # every label and every word starts a chain
    chains |= {(i, i % v) for i in range(n)} | {(k % n, k) for k in range(v)}
    patterns = draw(st.sets(st.tuples(label, word, label, word), max_size=30),
                    label="patterns")
    patterns |= {(n - 1, v - 1, n - 1, v - 1)}
    rows = [sorted(chains), sorted(patterns)]
    n_rows = len(rows[0]) + len(rows[1])
    top = 2 ** 63 - 1 - n_rows
    budget = draw(st.one_of(st.just(top), st.integers(n_rows, top)), label="total")
    shares = draw(st.lists(st.integers(1, 2 ** 20), min_size=n_rows, max_size=n_rows),
                  label="shares")
    counts = [max(1, share * budget // sum(shares)) for share in shares]
    tables = [table_from_rows(keys, part, n, v)
              for keys, part in ((rows[0], counts[:len(rows[0])]),
                                 (rows[1], counts[len(rows[0]):]))]
    return [f"L{i}" for i in range(n)], [f"w{k}" for k in range(v)], \
        CountTables(n, v, *tables)


@settings(max_examples=100, deadline=None)
@given(tables=count_tables())
def test_random_count_tables_round_trip(tables):
    labels, words, counts = tables
    model = bundle_from_counts(Interner(labels), Interner(words), counts, "pos", 3)
    data = serialize_model(model)
    back = deserialize_model(data)
    assert back == model
    back.validate()
    assert serialize_model(back) == data


def test_stats_dump_is_line_oriented(model):
    text = model_stats(model)
    lines = text.strip().split("\n")
    assert all(len(line.split(" ", 1)) == 2 for line in lines)
    keys = [line.split(" ", 1)[0] for line in lines]
    assert "labels" in keys and "chains" in keys and "pattern-keys" in keys
