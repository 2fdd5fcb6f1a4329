"""LabeledCorpus holds flat word and tag columns plus sentence lengths.

A corpus built from (word, label) tuple sentences and the same sentences
read back from CoNLL text must hold the same columns, give the same
tuple view and train the same model bytes.
"""

from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmctag.conll import LabeledCorpus, apply_mapping, mark_known, read_conll, write_conll
from pmctag.errors import EmptyCorpus, EmptySentence, UnknownTag
from pmctag.model import Interner
from pmctag.serialize import serialize_model
from pmctag.training import TrainConfig, accumulate_counts, train_model, update_online

_token = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3) \
    .filter(lambda t: t.split() == [t])
# a few distinct tokens, so words and labels repeat
_sentences = st.lists(
    st.lists(st.tuples(st.sampled_from(["a", "B", "c-d", "\xe9", "12"]) | _token,
                       st.sampled_from(["X", "Y", "Z"]) | _token),
             min_size=1, max_size=5),
    min_size=1, max_size=6)


def _read_back(sentences) -> LabeledCorpus:
    out = StringIO()
    write_conll(sentences, out)
    return read_conll(StringIO(out.getvalue()))


def _columns(corpus):
    return corpus.words, corpus.tags, corpus.lengths.dtype, corpus.lengths.tolist()


@settings(max_examples=100, deadline=None)
@given(sentences=_sentences)
def test_tuple_and_text_corpora_hold_the_same_columns(sentences):
    built, read = LabeledCorpus(sentences), _read_back(sentences)
    expected = ([w for s in sentences for w, _ in s], [t for s in sentences for _, t in s],
                np.dtype(np.int64), [len(s) for s in sentences])
    assert _columns(built) == _columns(read) == expected
    assert len(built) == len(read) == len(sentences)
    assert built.n_tokens == read.n_tokens == len(expected[0])


@settings(max_examples=100, deadline=None)
@given(sentences=_sentences)
def test_sentence_view_round_trips_with_tuple_pairs(sentences):
    for corpus in (LabeledCorpus(sentences), _read_back(sentences)):
        view = corpus.sentences
        assert view == sentences
        assert all(type(sent) is list for sent in view)
        assert all(type(pair) is tuple for sent in view for pair in sent)
        assert _columns(LabeledCorpus(view)) == _columns(corpus)


@settings(max_examples=50, deadline=None)
@given(sentences=_sentences)
def test_both_corpora_train_the_same_bytes(sentences):
    config = TrainConfig(task="pos")
    assert serialize_model(train_model(LabeledCorpus(sentences), config)) == \
        serialize_model(train_model(_read_back(sentences), config))


@settings(max_examples=50, deadline=None)
@given(sentences=_sentences.filter(lambda s: len(s) > 1), data=st.data())
def test_online_update_at_any_cut_equals_batch(sentences, data):
    cut = data.draw(st.integers(1, len(sentences) - 1), label="cut")
    config = TrainConfig(task="chunk")
    updated = update_online(train_model(LabeledCorpus(sentences[:cut]), config),
                            _read_back(sentences[cut:]))
    assert serialize_model(updated) == \
        serialize_model(train_model(LabeledCorpus(sentences), config))


@settings(max_examples=100, deadline=None)
@given(sentences=_sentences, data=st.data())
def test_mapping_maps_the_tag_column(sentences, data):
    tags = sorted({t for s in sentences for _, t in s})
    mapped = data.draw(st.lists(st.sampled_from(tags), unique=True), label="mapped")
    mapping = {t: t.lower() + "+" for t in mapped}
    # the per-tuple definition: every tag missing from the mapping is listed
    missing = {t for sent in sentences for _, t in sent if t not in mapping}
    for corpus in (LabeledCorpus(sentences), _read_back(sentences)):
        if missing:
            with pytest.raises(UnknownTag) as err:
                apply_mapping(corpus, mapping)
            assert err.value.tags == sorted(missing)
            continue
        result = apply_mapping(corpus, mapping)
        assert result.sentences == [[(w, mapping[t]) for w, t in s] for s in sentences]
        assert result.words == corpus.words and result.lengths.tolist() == corpus.lengths.tolist()


@settings(max_examples=50, deadline=None)
@given(sentences=_sentences, data=st.data())
def test_known_bits_follow_the_word_column(sentences, data):
    words = sorted({w for s in sentences for w, _ in s})
    vocabulary = Interner(data.draw(st.lists(st.sampled_from(words), unique=True)))
    expected = [[w in vocabulary for w, _ in s] for s in sentences]
    for corpus in (LabeledCorpus(sentences), _read_back(sentences)):
        assert mark_known(corpus, vocabulary) == expected


@pytest.mark.parametrize("sentences", [[], [[]], [[("a", "X")], []], [[], [("a", "X")]]])
def test_empty_corpus_and_empty_sentence_errors(sentences):
    corpus = LabeledCorpus(sentences)
    model = train_model(LabeledCorpus([[("a", "X")]]), TrainConfig())
    error = EmptyCorpus if not sentences else EmptySentence
    for run in (accumulate_counts, lambda c: train_model(c, TrainConfig()),
                lambda c: update_online(model, c)):
        with pytest.raises(error):
            run(corpus)


def test_empty_text_reads_as_an_empty_corpus():
    corpus = read_conll(StringIO("\n \n"))
    assert len(corpus) == corpus.n_tokens == 0 and corpus.sentences == []
    with pytest.raises(EmptyCorpus):
        train_model(corpus, TrainConfig())


def test_columns_must_agree_with_the_lengths():
    LabeledCorpus.from_columns(["a", "b"], ["X", "Y"], [1, 1])
    for words, tags, lengths in ((["a"], ["X", "Y"], [2]), (["a", "b"], ["X", "Y"], [1])):
        with pytest.raises(ValueError):
            LabeledCorpus.from_columns(words, tags, lengths)
