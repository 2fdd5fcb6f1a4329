"""A window's lookups give each sentence what it gets alone.

tag and eval look up the tables of a whole window of sentences at once
(inference.lookup_window) and then decode each sentence from its part of
the lookup; decode_sentence(model, words) looks a sentence up as a window
of one. Wherever the windows are cut, each sentence must get, bit for bit,
the same flags, dead end, labels, posteriors (MPM) and log score (MAP) as
alone, in both modes and with both decoders. A sentence's part of the
lookup is itself a window of one, the same, field by field, as the
sentence's own lookup.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import corpus_from, random_corpus
from pmctag.errors import DeadEnd
from pmctag.features import feature_column
from pmctag.inference import (DECODERS, MODES, decode_sentence, lookup_window, map_path,
                              posterior_marginals, resolve_factors)
from pmctag.training import TrainConfig, train_model

# "w9" and "x1" share the shape of the training words; "zz", "Q#7" and
# "a-b" have tuples no training word has, so their columns are all zero
UNKNOWN = ["w9", "x1", "zz", "Q#7", "a-b"]


def outcome(model, sentence, mode, decoder):
    """Flags, dead end, labels, and posteriors or log score of one sentence."""
    result = None
    try:
        result = decode_sentence(model, sentence, mode, decoder)
    except DeadEnd:
        pass
    factors = resolve_factors(model, sentence, mode, decoder)
    try:
        if decoder == "mpm":
            post = posterior_marginals(factors).tobytes()
            return factors.flags, None, result.labels, post
        score = map_path(factors)[1]
        assert score == result.log_score
        return factors.flags, None, result.labels, score
    except DeadEnd as exc:
        assert result is None
        return factors.flags, exc.position, None, None


def window_cuts(sentences, budget):
    """The CLI's windows: each ends at the first sentence end after `budget` tokens."""
    cuts, tokens = [0], 0
    for end, sentence in enumerate(sentences, 1):
        tokens += len(sentence)
        if tokens >= budget:
            cuts.append(end)
            tokens = 0
    if cuts[-1] != len(sentences):
        cuts.append(len(sentences))
    return cuts


def assert_same_lookup(view, lone):
    """A window's sentence view holds, field by field, the sentence's lone lookup."""
    assert (view.model, view.mode, view.starts, view.triples, view.initials, view.flags) == (
        lone.model, lone.mode, lone.starts, lone.triples, lone.initials, lone.flags)
    assert len(view) == len(lone) == 1
    # the initial factor's triples are those at step -1
    assert view.initials == [int(np.count_nonzero(view.t < 0))]
    for name in ("cols", "slots", "t", "flat", "ratios"):
        assert np.array_equal(getattr(view, name), getattr(lone, name)), name


def check_windows(model, sentences, budget, interned):
    """Every sentence of every window of `budget` tokens decodes as alone."""
    cuts = window_cuts(sentences, budget)
    for mode in MODES:
        for decoder in DECODERS:
            alone = [outcome(model, words, mode, decoder) for words in sentences]
            for lo, hi in zip(cuts, cuts[1:]):
                part = sentences[lo:hi]
                flat = [w for words in part for w in words]
                ids = None
                if interned:  # as eval hands them over: distinct words and int32 ids
                    index = {w: i for i, w in enumerate(dict.fromkeys(flat))}
                    flat, ids = tuple(index), np.array([index[w] for w in flat], dtype=np.int32)
                window = lookup_window(model, flat, [len(words) for words in part], mode, ids)
                assert len(window) == len(part)
                for s, words in enumerate(part):
                    view = window.sentence(s)
                    assert_same_lookup(view, lookup_window(model, words, [len(words)], mode))
                    assert outcome(model, view, mode, decoder) == alone[lo + s]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_words=st.integers(2, 8),
       n_labels=st.integers(1, 4), data=st.data())
def test_any_window_gives_each_sentence_what_it_gets_alone(seed, n_words, n_labels, data):
    rng = random.Random(seed)
    corpus = random_corpus(rng, n_sentences=rng.randint(3, 40), n_words=n_words,
                           n_labels=n_labels, max_len=6)
    model = train_model(corpus, TrainConfig(task="pos"))
    words = [f"w{i}" for i in range(n_words)]

    def word():
        return rng.choice(UNKNOWN if rng.random() < 0.15 else words)

    sentences = [[word() for _ in range(rng.randint(1, 8))] for _ in range(rng.randint(1, 12))]
    budget = data.draw(st.integers(1, sum(map(len, sentences))), label="budget")
    check_windows(model, sentences, budget, data.draw(st.booleans(), label="interned"))


def test_a_supported_bigram_across_a_sentence_end_joins_neither_sentence():
    """The last word of one sentence and the first of the next form a
    bigram with PMC support; its step belongs to no sentence."""
    model = train_model(corpus_from([("a", "X"), ("b", "Y"), ("c", "X")],
                                    [("c", "Y"), ("a", "X")]), TrainConfig(task="pos"))
    sentences = [["b", "c"], ["a", "b"], ["c", "a", "b"]]
    vocabulary = model.vocabulary.index
    for left, right in zip(sentences, sentences[1:]):
        pair = np.array([vocabulary[left[-1]], vocabulary[right[0]]])
        assert model.index.bigram_slots(pair, [0])[1] >= 0
    for interned in (False, True):
        check_windows(model, sentences, sum(map(len, sentences)), interned)


def test_an_unknown_word_first_in_one_sentence_and_inside_another():
    """The first-word bit is part of an unknown word's feature tuple, so the
    same word gets two columns in one window."""
    model = train_model(corpus_from([("Ab", "X"), ("b", "Y")], [("b", "Y"), ("Cd", "Y")]),
                        TrainConfig(task="pos"))
    assert "Qz" not in model.vocabulary
    assert not np.array_equal(feature_column(model.features, "Qz", 0),
                              feature_column(model.features, "Qz", 1))
    sentences = [["Qz", "b"], ["b", "Qz"], ["Qz"]]
    for interned in (False, True):
        check_windows(model, sentences, sum(map(len, sentences)), interned)


def test_a_window_for_another_model_or_mode_or_of_two_sentences_is_refused():
    """A window decodes only as one sentence looked up for the same model
    object and mode; an equal model trained again is another model."""
    corpus = corpus_from([("a", "X"), ("b", "Y")], [("b", "Y"), ("a", "X")])
    model = train_model(corpus, TrainConfig(task="pos"))
    other = train_model(corpus, TrainConfig(task="pos"))
    window = lookup_window(model, ["a", "b", "b"], [2, 1], "pmc")
    refused = [(other, window.sentence(0), "pmc"), (model, window.sentence(0), "hmc"),
               (model, window, "pmc")]
    for decoder in DECODERS:
        assert decode_sentence(model, window.sentence(0), "pmc", decoder).labels == ["X", "Y"]
        for decode in (resolve_factors, decode_sentence):
            for owner, view, mode in refused:
                with pytest.raises(ValueError, match="looked up for this model and mode"):
                    decode(owner, view, mode, decoder)
