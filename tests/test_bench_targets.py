"""The benchmark reads package attributes by name; each must exist.

perfbench/tracing.py lists (module, attribute, span) targets. Renaming or
deleting one of those attributes breaks `perfbench/run.py --trace 1`, so
the names are checked here, where every test run sees them. perfbench/run.py
also reads a loaded model and its decodes directly, and the corpus
readers' row types; the tests after the first use exactly those
attributes on a tiny model from the benchmark's generator.
"""

import io
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import synth  # noqa: E402
import tracing  # noqa: E402

from pmctag import cli, conll, inference  # noqa: E402
from pmctag.conll import LabeledCorpus, mark_known, read_conll, read_records  # noqa: E402
from pmctag.errors import DeadEnd  # noqa: E402
from pmctag.evaluation import evaluate_predictions  # noqa: E402
from pmctag.features import backoff_level  # noqa: E402
from pmctag.inference import (HMC_STEP, PMC_STEP, DecodeResult, decode_index,  # noqa: E402
                              decode_sentence)
from pmctag.serialize import load_model, save_model, serialize_model  # noqa: E402
from pmctag.training import TrainConfig, train_model, update_online  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracing.TARGETS],
                         ids=[span for _, _, span in tracing.TARGETS])
def test_trace_target_exists(module, attr):
    assert hasattr(module, attr), f"{module.__name__}.{attr} is gone"


@pytest.fixture
def tiny(tmp_path):
    """Training and test sentences of a tiny benchmark world, and the saved model."""
    world = synth.World(n_labels=4, groups=2, bio=True)
    train = synth.sample_sentences(world, synth.make_rng(1, "train"), 60)
    test = synth.sample_sentences(world, synth.make_rng(1, "test"), 20, oov_share=0.2)
    path = tmp_path / "model.pmc"
    save_model(train_model(LabeledCorpus(train), TrainConfig(task="chunk")), path)
    return train, test, path


def counted_lookups(monkeypatch) -> list:
    """Count the calls of inference.lookup_window, which no span wraps:
    the returned list gets one entry per call."""
    calls, lookup_window = [], inference.lookup_window

    def counted(*args, **kwargs):
        calls.append(None)
        return lookup_window(*args, **kwargs)

    monkeypatch.setattr(inference, "lookup_window", counted)
    return calls


def children(tracer, name, parent_name) -> list:
    """The spans called `name`, each checked to be the child of a `parent_name` span."""
    found = [span for span in tracer.spans if span.name == name]
    assert all(tracer.spans[span.parent].name == parent_name for span in found)
    return found


def test_index_span_is_recorded_once_while_loading(tiny, monkeypatch):
    """The span inference.decode_index wraps inference.DecodeIndex, so it
    reads 0 if the bundle build stops looking the class up on its module,
    and shows up under decoding if the index is built lazily again. A
    direct decode_sentence looks its sentence up as a window of one inside
    its inference.resolve_factors span, so sentence_p50_ms times the lookup."""
    _, test, path = tiny
    lookups = counted_lookups(monkeypatch)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        model = load_model(path)
        for decoder in ("mpm", "map"):
            for sent in test:
                try:
                    decode_sentence(model, [w for w, _ in sent], decoder=decoder)
                except DeadEnd:
                    pass
    built = [span for span in tracer.spans if span.name == "inference.decode_index"]
    assert len(built) == 1
    assert tracer.spans[built[0].parent].name == "serialize.deserialize_model"
    resolved = [span for span in tracer.spans if span.name == "inference.resolve_factors"]
    assert len(resolved) == len(lookups) == 2 * len(test)


def test_model_attributes_read_outside_the_tracer(tiny):
    train, test, path = tiny
    model = load_model(path)

    counts = model.counts
    assert counts.L == int(counts.n0_i.sum()) == len(train)
    # run.py adds the values up with Python's sum, which wraps over a narrow array
    assert counts.n_ikjl.values().dtype == np.int64
    assert sum(counts.n_ikjl.values()) == sum(len(s) for s in train) - len(train)
    assert set(model.vocabulary) == {w for s in train for w, _ in s}
    assert set(model.alphabet) == {t for s in train for _, t in s}

    assert decode_index(model) is model.index
    test_words = [[w for w, _ in s] for s in test]
    oov = [w for words in test_words for w in words if w not in model.vocabulary]
    assert oov
    assert all(0 <= backoff_level(model.features, w) <= model.features.max_len
               for w in oov)

    known = mark_known(LabeledCorpus(test), model.vocabulary)
    for decoder in ("mpm", "map"):
        gold, predicted, bits = [], [], []
        for sent, words, sent_bits in zip(test, test_words, known):
            try:
                result = decode_sentence(model, words, decoder=decoder)
            except DeadEnd:
                continue
            assert len(result.labels) == len(result.flags) == len(words)
            assert set(result.flags) <= {PMC_STEP, HMC_STEP}
            gold.append([t for _, t in sent])
            predicted.append(result.labels)
            bits.append(sent_bits)
        assert gold
        report = evaluate_predictions(gold, predicted, bits, task=model.task,
                                      scheme="bio", decoder=decoder,
                                      failed_sentences=len(test) - len(gold))
        assert 0 <= report.overall_error <= 1 and 0 <= report.f1 <= 1


def test_reader_row_types_match_the_benchmark_checks(tiny):
    """run.py check_tagged compares read_records rows with [word, label]
    lists by !=, so tuple rows would fail every tagged check; set_up
    trains from LabeledCorpus(sentences of (word, label) tuples), which
    must give the bytes the CLI gets from the same text."""
    train, _, _ = tiny
    text = synth.conll_text(train)
    records = read_records(io.StringIO(text))
    assert all(type(row) is list for sent in records for row in sent)
    expected = [[[w, t] for w, t in sent] for sent in train]
    assert not any(got != want for got, want in zip(records, expected))
    assert len(records) == len(expected)

    corpus = read_conll(io.StringIO(text))
    assert all(type(pair) is tuple for sent in corpus.sentences for pair in sent)
    assert corpus.sentences == train
    config = TrainConfig(task="chunk")
    assert serialize_model(train_model(LabeledCorpus(train), config)) == \
        serialize_model(train_model(corpus, config))


def test_cli_training_records_one_read_and_one_tally_per_corpus(tiny, tmp_path):
    """train-online times conll.read_conll and training.accumulate_counts
    through the CLI: one span each per corpus file, and the CLI's model
    bytes are what set_up's LabeledCorpus of tuple sentences trains."""
    train, test, _ = tiny
    paths = [tmp_path / "train.conll", tmp_path / "extra.conll"]
    for path, sentences in zip(paths, (train, test)):
        path.write_text(synth.conll_text(sentences), encoding="utf-8")
    model = tmp_path / "trained.pmc"
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        code = cli.main([
            "train", "--corpus", str(paths[0]), "--extra-corpus", str(paths[1]),
            "--model", str(model), "--task", "chunk"])
    assert code == 0
    summary = tracer.summary()
    for span in ("conll.read_conll", "training.accumulate_counts"):
        assert summary[span]["calls"] == 2 and summary[span]["errors"] == 0
    config = TrainConfig(task="chunk")
    expected = update_online(train_model(LabeledCorpus(train), config), LabeledCorpus(test))
    assert model.read_bytes() == serialize_model(expected)


@pytest.mark.parametrize("mode", ["pmc", "hmc"])
@pytest.mark.parametrize("decoder", ["mpm", "map"])
def test_decode_corpus_gives_each_sentence_its_result_in_order(tiny, mode, decoder):
    """cli._decode_corpus returns one DecodeResult or DeadEnd per sentence
    of its window, in input order, with decode_sentence's flags and labels;
    a DeadEnd has decode_sentence's position, and its sentence_index is
    `start` plus the sentence's index in the window. Windows of 7 of the 20
    tiny test sentences: the first holds no dead end, the others some."""
    _, test, path = tiny
    model = load_model(path)
    sentences = [[w for w, _ in sent] for sent in test]
    expected = []
    for words in sentences:
        try:
            expected.append(decode_sentence(model, words, mode=mode, decoder=decoder))
        except DeadEnd as exc:
            expected.append(exc)
    dead = [isinstance(want, DeadEnd) for want in expected]
    assert not any(dead[:7]) and any(dead[7:14]) and any(dead[14:])
    opts = SimpleNamespace(mode=mode, decoder=decoder)
    for first in range(0, len(sentences), 7):
        window, start = sentences[first:first + 7], 100 + first
        results = cli._decode_corpus(model, [w for words in window for w in words],
                                     list(map(len, window)), opts, start)
        assert len(results) == len(window)
        for s, (got, want) in enumerate(zip(results, expected[first:first + 7])):
            if isinstance(want, DeadEnd):
                assert type(got) is DeadEnd
                assert (got.position, got.sentence_index) == (want.position, start + s)
            else:
                assert type(got) is DecodeResult
                assert (got.flags, got.labels) == (want.flags, want.labels)


@pytest.mark.parametrize("command", ["tag", "eval"])
@pytest.mark.parametrize("decoder", ["mpm", "map"])
def test_cli_decoding_records_one_span_per_sentence(tiny, tmp_path, command, decoder,
                                                    monkeypatch):
    """perfbench's traced check of tag-mpm and eval-map-oov takes each
    sentence's flags from the results of the inference.decode_sentence
    spans, and the dead ends from those spans' errors, and compares them
    with the library's own decodes. That holds only while the CLI calls
    decode_sentence once per sentence through its module attribute."""
    trace_cli_decoding(tiny, tmp_path, command, decoder, monkeypatch)


@pytest.mark.parametrize("command", ["tag", "eval"])
@pytest.mark.parametrize("decoder", ["mpm", "map"])
def test_cli_decoding_in_small_windows_records_one_span_per_sentence(
        tiny, tmp_path, command, decoder, monkeypatch):
    """The same at a window of a few tokens: the reading, decoding and
    writing or scoring spans are then one per window, and there are
    several windows."""
    monkeypatch.setattr(conll, "WINDOW_LINES", 5)
    summary = trace_cli_decoding(tiny, tmp_path, command, decoder, monkeypatch).summary()
    layers = {"tag": ("conll.read_records", "cli.decode_corpus", "conll.write_conll"),
              "eval": ("conll.read_conll", "conll.mark_known", "cli.decode_corpus",
                       "evaluation.evaluate_predictions")}[command]
    calls = {summary[span]["calls"] for span in layers}
    assert len(calls) == 1 and calls.pop() > 1


def trace_cli_decoding(tiny, tmp_path, command, decoder, monkeypatch):
    """Run tag or eval on the tiny test sentences under the tracer and check
    its decode_sentence spans against the library; returns the tracer.

    The CLI looks each window up once, inside its cli.decode_corpus span,
    and each sentence's decode_sentence span holds one resolve_factors span
    that builds the sentence's factors from its part of the lookup."""
    _, test, path = tiny
    model = load_model(path)
    flags, dead = [], 0
    for sent in test:
        try:
            flags.append(decode_sentence(model, [w for w, _ in sent], decoder=decoder).flags)
        except DeadEnd:
            dead += 1
    if command == "tag":
        source = tmp_path / "input.txt"
        source.write_text("".join("".join(f"{w}\n" for w, _ in s) + "\n" for s in test),
                          encoding="utf-8")
        argv = ["tag", "--model", str(path), "--input", str(source),
                "--output", str(tmp_path / "tagged.txt")]
    else:
        source = tmp_path / "test.conll"
        source.write_text(synth.conll_text(test), encoding="utf-8")
        argv = ["eval", "--model", str(path), "--corpus", str(source),
                "--report-kv", str(tmp_path / "report.kv")]
    lookups = counted_lookups(monkeypatch)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        code = cli.main(argv + ["--decoder", decoder])
    assert code == (1 if dead else 0)
    assert len(lookups) == tracer.summary()["cli.decode_corpus"]["calls"]
    spans = children(tracer, "inference.decode_sentence", "cli.decode_corpus")
    assert len(spans) == len(test)
    assert len(children(tracer, "inference.resolve_factors",
                        "inference.decode_sentence")) == len(test)
    assert tracer.decode_flags == flags
    assert sum(span.error is not None for span in spans) == dead
    assert tracer.summary()["inference.decode_sentence"]["errors"] == dead
    return tracer
