"""Every table derived from the count tables equals the dense reference.

load_reference keeps the dense derivation that the load path replaced.
These tests hold the package's hmc, decode index, feature tables and
model_stats text to it bit for bit, on random count tables, on trained
corpora with a word seen only at the end of a sentence, and on the
bundled training files, both as trained and as loaded from a file. Last,
the load's heap peak must stay within a fixed multiple of the file's
count rows, and the feature derivation's within a fixed multiple of the
occurrence columns it reads.
"""

import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmctag.conll import LabeledCorpus, read_conll
from pmctag.features import derive_feature_tables
from pmctag.model import Interner
from pmctag.serialize import deserialize_model, model_stats, serialize_model
from pmctag.training import TrainConfig, bundle_from_counts, train_model

import load_reference as ref
from test_serialize import count_tables

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import synth  # noqa: E402

DATA = os.path.join(os.path.dirname(__file__), "data")


def assert_same_bits(got, expected, what):
    assert got.dtype == expected.dtype and got.shape == expected.shape, what
    assert got.tobytes() == expected.tobytes(), what


def dense_pi2(index, n_labels) -> np.ndarray:
    """The index's sentence-start bigrams expanded to a dense (labels, words) array."""
    pi2 = np.zeros((n_labels, index.n_words))
    start = index.n_words * (index.n_words + 1)
    for u, code in enumerate(index.codes[:-1].tolist()):
        if code >= start:
            for p in range(index.offsets[u], index.offsets[u + 1]):
                pi2[index.flat[p], code - start] = index.ratios[p]
    return pi2


def assert_matches_reference(model):
    counts = model.counts
    dense = ref.marginals(counts)
    for name in ("n0_i", "n_ij", "n_i"):
        assert_same_bits(getattr(counts, name), dense[name], name)
    starts, m_ik = counts.m_ik_runs()
    i, k = (column[starts] for column in counts.n_ikjl.columns[:2])
    assert_same_bits(m_ik, dense["m_ik"][i, k], "m_ik runs")
    assert np.count_nonzero(dense["m_ik"]) == len(m_ik)

    hmc = ref.fit_hmc(counts)
    for name in ("pi", "trans", "trans_support", "emit"):
        assert_same_bits(getattr(model.hmc, name), getattr(hmc, name), name)

    expected = ref.decode_index(counts, model.hmc.trans)
    assert_same_bits(dense_pi2(model.index, counts.n_labels), expected.pop("pi2"), "pi2")
    for name, array in expected.items():
        assert_same_bits(getattr(model.index, name), array, name)

    features = ref.derive_feature_tables(counts, model.vocabulary, model.suffix_max_len)
    assert model.features == features
    for m, (got, table) in enumerate(zip(model.features.tables, features.tables,
                                         strict=True)):
        assert_same_bits(got, table, f"feature table {m}")

    assert model_stats(model) == ref.model_stats(model)


def assert_trained_and_loaded_match(model):
    assert_matches_reference(model)
    assert_matches_reference(deserialize_model(serialize_model(model)))


@settings(max_examples=100, deadline=None)
@given(tables=count_tables(), suffix_max_len=st.integers(0, 3))
def test_random_count_tables_match_the_dense_reference(tables, suffix_max_len):
    labels, words, counts = tables
    assert_trained_and_loaded_match(
        bundle_from_counts(Interner(labels), Interner(words), counts, "pos", suffix_max_len))


# "zz-9" occurs only as the last word of one added sentence
_WORDS = ["a", "Bb", "c-d", "e1", "ffing", "Gs"]
_LABELS = ["X", "Y", "Z"]


@settings(max_examples=100, deadline=None)
@given(sentences=st.lists(st.lists(st.tuples(st.sampled_from(_WORDS),
                                             st.sampled_from(_LABELS)),
                                   min_size=1, max_size=5),
                          min_size=1, max_size=6),
       at=st.integers(0, 6), suffix_max_len=st.integers(0, 3))
def test_trained_corpora_match_the_dense_reference(sentences, at, suffix_max_len):
    sentences.insert(min(at, len(sentences)), [("a", "X"), ("zz-9", "Y")])
    model = train_model(LabeledCorpus(sentences), TrainConfig(suffix_max_len=suffix_max_len))
    z = model.vocabulary.get("zz-9")
    assert model.index.bigram_slots(np.array([z]), [0])[0] == -1  # no (START, z) bigram
    assert not model.hmc.emit[:, z].any()
    assert_trained_and_loaded_match(model)


@pytest.mark.parametrize("name", ["train_chunk.conll", "train_det.conll"])
def test_bundled_training_files_match_the_dense_reference(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        corpus = read_conll(fh, 0, 2)
    assert_trained_and_loaded_match(train_model(corpus, TrainConfig(task="chunk")))


# deserialize_model's tracemalloc heap peak, per count row (n0_ik and
# n_ikjl) of the model file it reads, must stay below this. The file's size
# is counted in rows, since they set what the load allocates and the bytes
# a row takes vary with its varints. On the 1000-sentence model below, whose
# 10,660 rows take 57,833 bytes of file, the load peaks at about 202 bytes
# per row; the dense tables it replaced peaked at about 480.
LOAD_PEAK_PER_ROW = 277


def test_load_heap_peak_follows_the_file_size():
    world = synth.World(n_labels=40, groups=4, bio=True)
    train = synth.sample_sentences(world, synth.make_rng(1, "train"), 1000)
    model = train_model(LabeledCorpus(train), TrainConfig(task="chunk"))
    data = serialize_model(model)
    rows = len(model.counts.n0_ik) + len(model.counts.n_ikjl)
    tracemalloc.start()
    try:
        deserialize_model(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LOAD_PEAK_PER_ROW * rows, peak / rows


# derive_feature_tables' tracemalloc heap peak must stay below this many
# times the bytes of the occurrence columns it reads: the label, word and
# count columns of n0_ik and the second halves of n_ikjl. On the
# 4000-sentence model below (51,657 tokens, 376,618 bytes of columns) it
# peaks at about 2.2 times; the tuple-keyed tables it replaced, which
# built a Python key per (word, first bit) per level, peaked at about 5.3.
DERIVE_PEAK_PER_COLUMN_BYTE = 3


def test_feature_derivation_heap_peak_follows_the_occurrence_columns():
    world = synth.World(n_labels=40, groups=4, bio=True)
    train = synth.sample_sentences(world, synth.make_rng(1, "train"), 4000)
    model = train_model(LabeledCorpus(train), TrainConfig(task="chunk"))
    counts = model.counts
    columns = (*counts.n0_ik.columns, counts.n0_ik.counts,
               *counts.n_ikjl.columns[2:], counts.n_ikjl.counts)
    size = sum(column.nbytes for column in columns)
    tracemalloc.start()
    try:
        derive_feature_tables(counts, model.vocabulary, model.suffix_max_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < DERIVE_PEAK_PER_COLUMN_BYTE * size, peak / size
