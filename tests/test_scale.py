"""End-to-end behavior at realistic corpus scale, on synthetic data.

Samples train/test corpora from a ground-truth pairwise process: labels
within a group share one vocabulary (emissions alone cannot separate
them), and the previous word picks its follower given the next label, a
dependency only the pairwise model can represent. Checks the training
and decoding budgets, posterior normalization on every sentence, and that
pairwise decoding beats the hidden-chain fallback out of sample. Last,
the tag command's peak memory must not grow with its input, nor train's
by more than its id columns.
"""

import json
import os
import random
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest

from pmctag.conll import LabeledCorpus, mark_known
from pmctag.errors import DeadEnd
from pmctag.evaluation import evaluate_predictions
from pmctag.inference import decode_sentence, posterior_marginals, resolve_factors
from pmctag.serialize import deserialize_model, serialize_model
from pmctag.training import TrainConfig, train_model

N_LABELS = 10
GROUPS = 2
PER_GROUP = N_LABELS // GROUPS
POOL = 900
SUFFIXES = ["ing", "ed", "tion", "ly", "er", "est", "ous", "al", "s", ""]


def build_world(rng):
    pools = [[f"g{g}w{i}{SUFFIXES[i % len(SUFFIXES)]}" for i in range(POOL)]
             for g in range(GROUPS)]
    trans = np.zeros((N_LABELS, N_LABELS))
    for i in range(N_LABELS):
        trans[i] = 0.3 / N_LABELS
        trans[i, (i + 1) % N_LABELS] += 0.4
        trans[i, (i + 3) % N_LABELS] += 0.3
    trans /= trans.sum(axis=1, keepdims=True)
    return pools, trans


def zipf_choice(rng, items):
    idx = int(len(items) * (rng.random() ** 4))
    return items[min(idx, len(items) - 1)]


def emit(rng, pools, label, prev_word):
    pool = pools[label // PER_GROUP]
    if prev_word is not None and rng.random() < 0.75:
        # collocation: previous word fixes the follower given the label
        return pool[(zlib.crc32(prev_word.encode()) + 131 * label) % 300]
    return zipf_choice(rng, pool)


def sample_corpus(rng, pools, trans, n_sentences):
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(4, 22)
        label = rng.randrange(N_LABELS)
        sent = [(emit(rng, pools, label, None), f"L{label}")]
        for _ in range(length - 1):
            label = rng.choices(range(N_LABELS), weights=trans[label])[0]
            sent.append((emit(rng, pools, label, sent[-1][0]), f"L{label}"))
        sentences.append(sent)
    return LabeledCorpus(sentences)


@pytest.fixture(scope="module")
def world():
    rng = random.Random(1312)
    pools, trans = build_world(rng)
    train = sample_corpus(rng, pools, trans, 12000)
    test = sample_corpus(rng, pools, trans, 800)
    return train, test


def test_scale_pipeline(world):
    train, test = world
    assert train.n_tokens > 100_000

    t0 = time.perf_counter()
    model = train_model(train, TrainConfig(task="pos"))
    train_time = time.perf_counter() - t0
    assert train_time < 60, f"training took {train_time:.1f}s"

    data = serialize_model(model)
    assert deserialize_model(data) == model
    # a key row is stored as a key difference and a count, each mostly one
    # or two bytes wide; the strings ride along
    rows = len(model.counts.n0_ik) + len(model.counts.n_ikjl)
    assert len(data) <= 10 * rows, f"{len(data) / rows:.1f} bytes per stored key row"

    known = mark_known(test, model.vocabulary)
    reports = {}
    for mode in ("pmc", "hmc"):
        gold, predicted, bits = [], [], []
        dead = 0
        t0 = time.perf_counter()
        for sent, sent_bits in zip(test.sentences, known):
            words = [w for w, _ in sent]
            try:
                result = decode_sentence(model, words, mode=mode)
            except DeadEnd:
                dead += 1
                continue
            gold.append([t for _, t in sent])
            predicted.append(result.labels)
            bits.append(sent_bits)
        decode_time = time.perf_counter() - t0
        assert decode_time < 60, f"{mode} decoding took {decode_time:.1f}s"
        assert dead <= len(test.sentences) * 0.02
        reports[mode] = evaluate_predictions(gold, predicted, bits, task="pos",
                                             mode=mode)
    # the generator has genuinely pairwise structure: the pairwise model
    # must do clearly better than its own hidden-chain fallback
    assert reports["pmc"].overall_error < reports["hmc"].overall_error

    # posterior rows sum to one on every decodable corpus sentence
    for sent in test.sentences[:200]:
        factors = resolve_factors(model, [w for w, _ in sent], mode="pmc")
        try:
            post = posterior_marginals(factors)
        except DeadEnd:
            continue
        assert np.max(np.abs(post.sum(axis=1) - 1.0)) < 1e-9


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DATA = os.path.join(os.path.dirname(__file__), "data")


def _peak_rss_kb(argv, tmp_path):
    """Run the CLI through perfbench/spawn.py and return its peak RSS.

    spawn.py reads the child's own peak from os.wait4; a child started
    straight from pytest would be charged the test process's peak.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "spawn.py"),
         str(tmp_path / "stdout"), str(tmp_path / "stderr"), "--",
         sys.executable, "-m", "pmctag.cli", *argv],
        capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, (tmp_path / "stderr").read_text()
    return result["maxrss_kb"]


def test_tag_peak_memory_does_not_grow_with_the_input(tmp_path):
    """tag reads, decodes and writes a window of sentences at a time, so a
    ten times larger input leaves the peak where it was. Holding the whole
    input and output at once would take about 25 MB more at 10x."""
    model = tmp_path / "chunk.pmc"
    _peak_rss_kb(["train", "--corpus", os.path.join(DATA, "train_chunk.conll"),
                  "--model", str(model), "--task", "chunk", "--tag-column", "2"], tmp_path)
    with open(os.path.join(DATA, "test_chunk.conll"), encoding="utf-8") as fh:
        text = fh.read().strip("\n") + "\n\n"
    copies = 5000 // sum(1 for line in text.splitlines() if line.strip())
    peaks = []
    for scale in (1, 10):
        source = tmp_path / f"input{scale}.conll"
        source.write_text(text * (copies * scale), encoding="utf-8")
        peaks.append(_peak_rss_kb(["tag", "--model", str(model), "--input", str(source),
                                   "--output", str(tmp_path / "tagged.conll")], tmp_path))
    assert peaks[1] - peaks[0] < 5 * 1024, f"peak RSS {peaks[0]} kB, then {peaks[1]} kB"


def test_tag_peak_memory_does_not_grow_with_distinct_lines(tmp_path):
    """The reader's line table holds each distinct line it meets, and is
    cleared when full, so an input whose every line is new leaves the peak
    where it was too: it rose by 0.7 MB here, where an unbounded table
    raised it by 6 MB (45,000 more lines of about 140 B each)."""
    model = tmp_path / "chunk.pmc"
    _peak_rss_kb(["train", "--corpus", os.path.join(DATA, "train_chunk.conll"),
                  "--model", str(model), "--task", "chunk", "--tag-column", "2"], tmp_path)
    with open(os.path.join(DATA, "test_chunk.conll"), encoding="utf-8") as fh:
        text = fh.read().strip("\n") + "\n\n"
    lines = text.splitlines(keepends=True)
    peaks = []
    for scale in (1, 10):
        # a line number of its own, 40 digits, in the last column makes every token
        # line distinct
        numbered = (f"{line[:-1]} {n:040d}\n" if line.strip() else line
                    for n, line in enumerate(lines * (5000 // len(lines) + 1) * scale))
        source = tmp_path / f"input{scale}.conll"
        source.write_text("".join(numbered), encoding="utf-8")
        peaks.append(_peak_rss_kb(["tag", "--model", str(model), "--input", str(source),
                                   "--output", str(tmp_path / "tagged.conll")], tmp_path))
    assert peaks[1] - peaks[0] < 5 * 1024, f"peak RSS {peaks[0]} kB, then {peaks[1]} kB"


def test_train_peak_memory_grows_by_less_than_100_bytes_per_token(world, tmp_path):
    """train keeps a corpus as id columns, not as strings. The same
    sentences five times over train a model of the same size, and raise
    the peak by about 45 bytes per added token; holding every token as a
    string took about 200."""
    sentences = world[0].sentences[:3000]
    text = "".join("".join(f"{w} {t}\n" for w, t in sent) + "\n" for sent in sentences)
    peaks = []
    for scale in (1, 5):
        corpus = tmp_path / f"train{scale}.conll"
        corpus.write_text(text * scale, encoding="utf-8")
        peaks.append(_peak_rss_kb(["train", "--corpus", str(corpus),
                                   "--model", str(tmp_path / "m.pmc")], tmp_path))
    added = 4 * sum(map(len, sentences))
    per_token = (peaks[1] - peaks[0]) * 1024 / added
    assert per_token < 100, f"peak RSS {peaks[0]} kB, then {peaks[1]} kB: " \
        f"{per_token:.0f} B per added token"
