"""The benchmark reads package attributes by name; each must exist.

perfbench/tracing.py lists (module, attribute, span) targets. Renaming or
deleting one of those attributes breaks `perfbench/run.py --trace 1`, so
the names are checked here, where every test run sees them. perfbench/run.py
also reads a loaded model and its decodes directly; the last test uses
exactly those attributes on a tiny model from the benchmark's generator.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import synth  # noqa: E402
import tracing  # noqa: E402

from pmctag.conll import LabeledCorpus, mark_known  # noqa: E402
from pmctag.errors import DeadEnd  # noqa: E402
from pmctag.evaluation import evaluate_predictions  # noqa: E402
from pmctag.features import backoff_level  # noqa: E402
from pmctag.inference import HMC_STEP, PMC_STEP, decode_index, decode_sentence  # noqa: E402
from pmctag.serialize import load_model, save_model  # noqa: E402
from pmctag.training import TrainConfig, train_model  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracing.TARGETS],
                         ids=[span for _, _, span in tracing.TARGETS])
def test_trace_target_exists(module, attr):
    assert hasattr(module, attr), f"{module.__name__}.{attr} is gone"


def test_model_attributes_read_outside_the_tracer(tmp_path):
    world = synth.World(n_labels=4, groups=2, bio=True)
    train = synth.sample_sentences(world, synth.make_rng(1, "train"), 60)
    test = synth.sample_sentences(world, synth.make_rng(1, "test"), 20, oov_share=0.2)
    path = tmp_path / "model.pmc"
    save_model(train_model(LabeledCorpus(train), TrainConfig(task="chunk")), path)
    model = load_model(path)

    counts = model.counts
    assert counts.L == int(counts.n0_i.sum()) == len(train)
    assert sum(counts.n_ikjl.values()) == sum(len(s) for s in train) - len(train)
    assert set(model.vocabulary) == {w for s in train for w, _ in s}
    assert set(model.alphabet) == {t for s in train for _, t in s}

    decode_index(model)
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
