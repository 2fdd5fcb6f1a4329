import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmctag import serialize
from pmctag.cli import main
from pmctag.conll import LabeledCorpus
from pmctag.errors import CorruptModel, UnsupportedVersion
from pmctag.serialize import (FORMAT_VERSION, MAGIC, _Writer, deserialize_model,
                              load_model, model_stats, save_model, serialize_model)
from pmctag.training import TrainConfig, train_model

from conftest import varied_corpus

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
    from pmctag.inference import decode_mpm

    path = tmp_path / "m.bin"
    save_model(model, path)
    back = load_model(path)
    # "bikes" is unknown but shares shape and suffix with the known "likes"
    sentence = ["John", "likes", "bikes", "runs"]
    assert decode_mpm(back, sentence) == decode_mpm(model, sentence)


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


def _with_fixed_crc(data: bytearray) -> bytes:
    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[HEAD_LEN:-4])))
    return bytes(data)


def _encode(task="pos", suffix_max_len=3, labels=("A", "B"), words=("x", "y"),
            n0_ik=None, n_ikjl=None):
    """A model file written field by field, bypassing every writer check."""
    n0_ik = [((0, 0), 1)] if n0_ik is None else n0_ik
    n_ikjl = [((0, 0, 1, 1), 1)] if n_ikjl is None else n_ikjl
    w = _Writer()
    w.string(task)
    w.u32(suffix_max_len)
    w.string_list(list(labels))
    w.string_list(list(words))
    for width, table in ((2, n0_ik), (4, n_ikjl)):
        # a list of items keeps duplicates and order as given
        w.u64(len(table) * width)
        for key, _ in table:
            w.raw(struct.pack(f"<{len(key)}I", *key))
        w.u64(len(table))
        for _, c in table:
            w.raw(struct.pack("<Q", c))
    payload = w.getvalue()
    return (MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload)))


def test_handwritten_encoding_loads():
    model = deserialize_model(_encode())
    model.validate()
    # the test writer lays the file out exactly like the real one
    assert serialize_model(model) == _encode()


@pytest.mark.parametrize("fields, reason", [
    (dict(n0_ik=[((2, 0), 1)]), "unknown label or word"),
    (dict(n_ikjl=[((0, 0, 1, 2), 1)]), "unknown label or word"),
    (dict(n_ikjl=[((0, 0xFFFFFFFF, 1, 1), 1)]), "unknown label or word"),
    (dict(n_ikjl=[((0, 0, 1, 1), 0)]), "zero count"),
    (dict(n_ikjl=[((0, 0, 1, 1), 2 ** 63)]), "overflow"),
    (dict(n_ikjl=[((0, 0, 1, 1), 2 ** 62), ((1, 1, 0, 0), 2 ** 62)]), "overflow"),
    (dict(n_ikjl=[((1, 1, 0, 0), 1), ((0, 0, 1, 1), 1)]), "strictly increasing"),
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
    tables = [list(zip(map(tuple, t.keys.tolist()), t.counts.tolist()))
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
    could hold (every string takes at least 8 bytes) is reported as
    truncation, before anything is sized by it."""
    model = deserialize_model(small_model_bytes)
    at = HEAD_LEN + 8 + len(model.task) + 4  # after the task string and suffix length
    fields = {"labels": at, "words": at + 8 + sum(8 + len(s.encode()) for s in model.alphabet)}
    which = data.draw(st.sampled_from(sorted(fields)), label="field")
    pos = fields[which]
    room = (len(small_model_bytes) - 4 - pos - 8) // 8  # strings the rest could hold
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


def test_stats_dump_is_line_oriented(model):
    text = model_stats(model)
    lines = text.strip().split("\n")
    assert all(len(line.split(" ", 1)) == 2 for line in lines)
    keys = [line.split(" ", 1)[0] for line in lines]
    assert "labels" in keys and "chains" in keys and "pattern-keys" in keys
