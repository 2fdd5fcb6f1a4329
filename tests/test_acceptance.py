"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
The real-corpus reproductions need datasets that cannot be redistributed
here; point PMCTAG_DATA_DIR (default: ./data) at a directory containing
conll2000/train.txt and conll2000/test.txt to enable them, plus
conll2003/ and ud_english/ files for the optional set.
"""

import functools
import os
import random
import sys
import time

import numpy as np
import pytest

from pmctag.conll import (LabeledCorpus, apply_mapping, mark_known, read_conll,
                          read_records, read_tag_mapping)
from pmctag.errors import DeadEnd
from pmctag.evaluation import evaluate_predictions, extract_spans, span_f1
from pmctag.features import fit_feature_tables
from pmctag.inference import (decode_sentence, factors_from_hmc, map_path,
                              mpm_path, posterior_marginals, resolve_factors)
from pmctag.oracle import (TinyInstance, embed_hmc_as_pmc, enumerate_map,
                           enumerate_posteriors, random_hmc)
from pmctag.training import (TrainConfig, accumulate_counts, fit_hmc, fit_pmc,
                             train_model, update_online)

from conftest import corpus_from, random_corpus, varied_corpus
from conlleval_reference import score_sentences
from test_features import brute_force_feature_tables
from test_training import brute_force_tables

DATA_DIR = os.environ.get(
    "PMCTAG_DATA_DIR",
    os.path.join(os.path.dirname(__file__), os.pardir, "data"))


def criterion(name):
    """Print a verdict line for each acceptance criterion."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"[ACCEPTANCE] {name}: SKIP ({exc})", file=sys.stderr)
                raise
            except BaseException:
                print(f"[ACCEPTANCE] {name}: FAIL", file=sys.stderr)
                raise
            print(f"[ACCEPTANCE] {name}: PASS", file=sys.stderr)
            return result
        return run
    return wrap


def _dataset(*parts):
    path = os.path.join(DATA_DIR, *parts)
    if not os.path.exists(path):
        pytest.skip(f"dataset file {path} not present; see README reproduction guide")
    return path


@criterion("oracle-equivalence (1000 tiny instances, 1e-9)")
def test_oracle_equivalence_property_suite():
    rng = np.random.default_rng(20260810)
    started = time.perf_counter()
    worst_post = worst_score = 0.0
    for _ in range(1000):
        inst = TinyInstance.random(rng, n_max=4, m_max=5, t_max=7)
        factors = inst.factors()
        post = posterior_marginals(factors)
        ref = enumerate_posteriors(inst)
        worst_post = max(worst_post, float(np.max(np.abs(post - ref))))
        _, score = map_path(factors)
        _, ref_score = enumerate_map(inst)
        worst_score = max(worst_score, abs(score - ref_score))
    elapsed = time.perf_counter() - started
    assert worst_post < 1e-9, f"posterior deviation {worst_post}"
    assert worst_score < 1e-9, f"map score deviation {worst_score}"
    assert elapsed < 60, f"took {elapsed:.1f}s"


@criterion("hmc-in-pmc embedding (100 models, 1e-12 / exact labels)")
def test_hmc_embedding_equivalence():
    rng = np.random.default_rng(99)
    started = time.perf_counter()
    for _ in range(100):
        hmc = random_hmc(rng, n_max=4, m_max=5)
        n_words = hmc.emit.shape[1]
        obs = [int(rng.integers(0, n_words))
               for _ in range(int(rng.integers(1, 9)))]
        embedded = embed_hmc_as_pmc(hmc)
        f_pmc = embedded.factors(obs)
        f_hmc = factors_from_hmc(hmc, obs)
        assert np.max(np.abs(posterior_marginals(f_pmc)
                             - posterior_marginals(f_hmc))) < 1e-12
        assert np.array_equal(mpm_path(f_pmc), mpm_path(f_hmc))
        path_pmc, _ = map_path(f_pmc)
        path_hmc, _ = map_path(f_hmc)
        assert np.array_equal(path_pmc, path_hmc)
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"


@criterion("downgrade consistency (full downgrade == hmc mode, rate 1.0)")
def test_downgrade_consistency():
    corpus = corpus_from(
        [("running", "A"), ("jumping", "B"), ("walking", "A")],
        [("jumping", "B"), ("running", "A")],
        [("walking", "A"), ("running", "A"), ("jumping", "B")],
    )
    model = train_model(corpus, TrainConfig(task="pos"))
    # novel words only: every test bigram is unseen, every word unknown
    sentences = [["ping", "zing"], ["qing", "wing", "ning"], ["ting"]]
    total = downgraded = 0
    for sentence in sentences:
        for decoder in ("mpm", "map"):
            pmc = decode_sentence(model, sentence, mode="pmc", decoder=decoder)
            hmc = decode_sentence(model, sentence, mode="hmc", decoder=decoder)
            pmc_bytes = "\n".join(pmc.labels).encode()
            hmc_bytes = "\n".join(hmc.labels).encode()
            assert pmc_bytes == hmc_bytes
        factors = resolve_factors(model, sentence, mode="pmc")
        total += len(factors.flags)
        downgraded += factors.downgraded
    assert downgraded / total == 1.0


@criterion("training estimators exact vs brute-force counts")
def test_training_estimator_exactness():
    rng = random.Random(5150)
    for build in (random_corpus, varied_corpus):
        corpus = build(rng, n_sentences=150)
        counts, alphabet, vocab = accumulate_counts(corpus)
        hmc, pmc = fit_hmc(counts), fit_pmc(counts)
        ref = brute_force_tables(corpus)

        for label, i in alphabet.index.items():
            assert hmc.pi[i] == ref["n0_i"].get(label, 0) / ref["L"]
        for (label, word), c in ref["m_ik"].items():
            i, k = alphabet.get(label), vocab.get(word)
            assert hmc.emit[i, k] == c / ref["n_i"][label]
        for (g1, w1, g2, w2), c in ref["quad"].items():
            i, k = alphabet.get(g1), vocab.get(w1)
            j, l = alphabet.get(g2), vocab.get(w2)
            assert pmc.emit2[(i, k, j)][l] == c / ref["trip"][(g1, w1, g2)]
            assert pmc.trans2[(i, k)][j] == \
                ref["trip"][(g1, w1, g2)] / ref["m_ik"][(g1, w1)]

        feats = fit_feature_tables(corpus, alphabet, 3)
        ref_tuples, ref_totals = brute_force_feature_tables(corpus, 3)
        for m in range(4):
            assert len(feats.tables[m]) == len(ref_tuples[m])
            for (label, *rest), c in ref_tuples[m].items():
                assert feats.tables[m][(alphabet.get(label), *rest)] == \
                    c / ref_totals[label]

        # online update equals batch refit, exactly
        cut = len(corpus.sentences) // 3
        d1 = LabeledCorpus(corpus.sentences[:cut])
        d2 = LabeledCorpus(corpus.sentences[cut:])
        updated = update_online(train_model(d1, TrainConfig(task="pos")), d2)
        batch = train_model(corpus, TrainConfig(task="pos"))
        assert updated == batch


@criterion("normalization invariance (T <= 15, 1e-9, same MPM)")
def test_normalization_invariance():
    def unscaled_posteriors(factors):
        t_len, n = factors.length, factors.n_labels
        alpha = np.zeros((t_len, n))
        beta = np.zeros((t_len, n))
        alpha[0] = factors.initial
        for t, step in enumerate(factors.steps):
            alpha[t + 1] = alpha[t] @ step
        beta[t_len - 1] = 1.0
        for t in range(t_len - 2, -1, -1):
            beta[t] = factors.steps[t] @ beta[t + 1]
        prod = alpha * beta
        return prod / prod.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(607)
    for trial in range(60):
        inst = TinyInstance.random(rng)
        t_len = int(rng.integers(1, 16))
        inst.obs = [int(rng.integers(0, inst.n_words)) for _ in range(t_len)]
        factors = inst.factors()
        scaled = posterior_marginals(factors)
        plain = unscaled_posteriors(factors)
        assert np.max(np.abs(scaled - plain)) < 1e-9
        assert np.array_equal(mpm_path(factors), plain.argmax(axis=1))

    # and on factors resolved from a trained model, mixed pmc/downgraded;
    # sentences that dead-end even after the per-step downgrade are skipped
    corpus = varied_corpus(random.Random(3), n_sentences=120)
    model = train_model(corpus, TrainConfig(task="pos"))
    sentences = [s[:15] for s in varied_corpus(random.Random(4), 20).sentences]
    checked = 0
    for sent in sentences:
        factors = resolve_factors(model, [w for w, _ in sent], mode="pmc")
        try:
            scaled = posterior_marginals(factors)
        except DeadEnd:
            continue
        checked += 1
        plain = unscaled_posteriors(factors)
        assert np.max(np.abs(scaled - plain)) < 1e-9
        assert np.array_equal(mpm_path(factors), plain.argmax(axis=1))
    assert checked >= 10


@criterion("scorer fidelity vs conlleval-style reference (2 decimals)")
def test_scorer_fidelity():
    import glob

    fixtures = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                             "data", "spanfix_*.conll")))
    assert len(fixtures) >= 5
    for path in fixtures:
        gold_sents, pred_sents = [], []
        gold, pred = [], []
        for line in open(path):
            line = line.strip()
            if not line:
                if gold:
                    gold_sents.append(gold)
                    pred_sents.append(pred)
                gold, pred = [], []
                continue
            _, g, p = line.split()
            gold.append(g)
            pred.append(p)
        if gold:
            gold_sents.append(gold)
            pred_sents.append(pred)
        ref_p, ref_r, ref_f1, _ = score_sentences(gold_sents, pred_sents)
        p, r, f1 = span_f1([extract_spans(s) for s in gold_sents],
                           [extract_spans(s) for s in pred_sents])
        assert round(100 * p, 2) == round(ref_p, 2), path
        assert round(100 * r, 2) == round(ref_r, 2), path
        assert round(100 * f1, 2) == round(ref_f1, 2), path


def _evaluate_real_corpus(train_path, test_path, task, word_col, tag_col,
                          mode, mapping_path=None, reader=None):
    """Train, decode and score; returns (report, train seconds, decode seconds)."""
    if reader is None:
        def reader(path):
            with open(path, encoding="utf-8") as fh:
                return read_conll(fh, word_col, tag_col,
                                  skip_pattern=r"-DOCSTART-")
    train = reader(train_path)
    test = reader(test_path)
    if mapping_path:
        mapping = read_tag_mapping(open(mapping_path, encoding="utf-8"))
        train = apply_mapping(train, mapping)
        test = apply_mapping(test, mapping)

    t0 = time.perf_counter()
    model = train_model(train, TrainConfig(task=task))
    train_time = time.perf_counter() - t0

    known = mark_known(test, model.vocabulary)
    gold, predicted, bits = [], [], []
    t0 = time.perf_counter()
    for sent, sent_bits in zip(test.sentences, known):
        words = [w for w, _ in sent]
        try:
            result = decode_sentence(model, words, mode=mode, decoder="mpm")
        except DeadEnd:
            continue
        gold.append([t for _, t in sent])
        predicted.append(result.labels)
        bits.append(sent_bits)
    decode_time = time.perf_counter() - t0
    skipped = len(test.sentences) - len(gold)
    report = evaluate_predictions(gold, predicted, bits, task=task, mode=mode,
                                  failed_sentences=skipped)
    return report, train_time, decode_time


@criterion("CoNLL-2000 chunking reproduction (PMC 93.5-95.5, HMC 91.7-93.7)")
def test_conll2000_chunking_reproduction():
    train = _dataset("conll2000", "train.txt")
    test = _dataset("conll2000", "test.txt")
    pmc, train_time, decode_time = _evaluate_real_corpus(train, test, "chunk", 0, 2, "pmc")
    hmc, _, _ = _evaluate_real_corpus(train, test, "chunk", 0, 2, "hmc")
    print(f"\n  chunking F1: pmc={100 * pmc.f1:.2f} hmc={100 * hmc.f1:.2f} "
          f"(train {train_time:.1f}s decode {decode_time:.1f}s)",
          file=sys.stderr)
    assert train_time < 60 and decode_time < 60
    assert 93.5 <= 100 * pmc.f1 <= 95.5, f"pmc f1 {100 * pmc.f1:.2f}"
    assert 91.7 <= 100 * hmc.f1 <= 93.7, f"hmc f1 {100 * hmc.f1:.2f}"
    assert pmc.f1 > hmc.f1


@criterion("CoNLL-2000 POS reproduction (PMC 1.8-3.0%, HMC 2.4-3.6%)")
def test_conll2000_pos_reproduction():
    train = _dataset("conll2000", "train.txt")
    test = _dataset("conll2000", "test.txt")
    mapping = os.path.join(DATA_DIR, "mappings", "en-ptb.map")
    assert os.path.exists(mapping), "bundled universal tagset mapping missing"
    pmc, _, _ = _evaluate_real_corpus(train, test, "pos", 0, 1, "pmc", mapping)
    hmc, _, _ = _evaluate_real_corpus(train, test, "pos", 0, 1, "hmc", mapping)
    print(f"\n  pos error: pmc={100 * pmc.overall_error:.2f}% "
          f"hmc={100 * hmc.overall_error:.2f}%", file=sys.stderr)
    assert 1.8 <= 100 * pmc.overall_error <= 3.0
    assert 2.4 <= 100 * hmc.overall_error <= 3.6
    assert pmc.known_error < hmc.known_error


def _read_ud(path):
    """CoNLL-U: drop comments plus multiword and empty-node rows, keep
    (FORM, UPOS) from columns 1 and 3."""
    with open(path, encoding="utf-8") as fh:
        records = read_records(fh, word_column=0, comment_prefix="#")
    sentences = []
    for sent in records:
        rows = [cols for cols in sent if "-" not in cols[0] and "." not in cols[0]]
        if rows:
            sentences.append([(cols[1], cols[3]) for cols in rows])
    return LabeledCorpus(sentences)


@criterion("CoNLL-2003 NER and UD English POS (optional, +/-1.0 of tables)")
def test_conll2003_and_ud_english_reproduction():
    ner_train = _dataset("conll2003", "train.txt")
    ner_test = _dataset("conll2003", "test.txt")
    pmc, _, _ = _evaluate_real_corpus(ner_train, ner_test, "ner", 0, 3, "pmc")
    print(f"\n  ner F1: pmc={100 * pmc.f1:.2f}", file=sys.stderr)
    assert abs(100 * pmc.f1 - 79.52) <= 1.0

    ud_train = _dataset("ud_english", "train.conllu")
    ud_test = _dataset("ud_english", "test.conllu")
    pmc_pos, _, _ = _evaluate_real_corpus(ud_train, ud_test, "pos", 1, 3, "pmc",
                                          reader=_read_ud)
    print(f"  ud pos error: pmc={100 * pmc_pos.overall_error:.2f}%",
          file=sys.stderr)
    assert abs(100 * pmc_pos.overall_error - 7.16) <= 1.0


def _median_time(fn, repeats=3):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[len(samples) // 2]


@criterion("performance: hmc < pmc fit time, linear scaling in corpus and T")
def test_performance_ordering_and_scaling():
    rng = random.Random(8080)
    corpus = random_corpus(rng, n_sentences=3000, n_words=400, n_labels=12,
                           max_len=12)
    counts, _, _ = accumulate_counts(corpus)
    t_hmc = _median_time(lambda: fit_hmc(counts))
    t_pmc = _median_time(lambda: fit_pmc(counts))
    assert t_hmc < t_pmc, f"hmc fit {t_hmc:.4f}s vs pmc fit {t_pmc:.4f}s"

    # doubling the corpus at fixed alphabet: at most ~2.5x training time
    double = LabeledCorpus(corpus.sentences * 2)
    config = TrainConfig(task="pos")
    t_one = _median_time(lambda: train_model(corpus, config))
    t_two = _median_time(lambda: train_model(double, config))
    assert t_two <= 2.5 * t_one, f"{t_two:.3f}s vs {t_one:.3f}s"

    # inference linear in T: doubling a T=1000 synthetic sentence
    model = train_model(corpus, config)
    words = [w for w, _ in corpus.sentences[0]]
    long_sentence = (words * (1000 // len(words) + 1))[:1000]

    def decode(sentence):
        factors = resolve_factors(model, sentence, mode="pmc")
        posterior_marginals(factors)

    t_1000 = _median_time(lambda: decode(long_sentence), repeats=5)
    t_2000 = _median_time(lambda: decode(long_sentence * 2), repeats=5)
    assert t_2000 <= 2.5 * t_1000, f"{t_2000:.3f}s vs {t_1000:.3f}s"
