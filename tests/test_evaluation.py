import glob
import os
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import span_reference
from pmctag import evaluation
from pmctag.errors import ShapeError
from pmctag.evaluation import (SCHEMES, Span, evaluate_predictions, extract_spans,
                               extract_spans_counted, format_report_kv,
                               format_report_text, span_f1, token_accuracy)

from conlleval_reference import score_sentences

DATA = os.path.join(os.path.dirname(__file__), "data")


class TestTokenAccuracy:
    def test_identical(self):
        gold = ["A", "B", "C"]
        assert token_accuracy(gold, gold, [True, False, True]) == (0.0, 0.0, 0.0)

    def test_all_wrong(self):
        assert token_accuracy(["A"] * 4, ["B"] * 4, [True, True, False, False]) == \
            (1.0, 1.0, 1.0)

    def test_mixed_subsets(self):
        # 10 tokens, 3 unknown, errors on exactly 2 unknown tokens
        gold = [str(i) for i in range(10)]
        pred = list(gold)
        pred[7] = "x"
        pred[9] = "x"
        known = [True] * 7 + [False] * 3
        overall, known_err, unknown_err = token_accuracy(gold, pred, known)
        assert overall == pytest.approx(0.2)
        assert known_err == 0.0
        assert unknown_err == pytest.approx(2 / 3)

    def test_empty_subset_reported_absent(self):
        overall, known_err, unknown_err = token_accuracy(["A"], ["A"], [True])
        assert overall == 0.0 and known_err == 0.0 and unknown_err is None

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            token_accuracy(["A"], ["A", "B"], [True, True])
        with pytest.raises(ShapeError):
            token_accuracy(["A"], ["B"], [True, False])


class TestExtractSpans:
    def test_bio_example(self):
        spans = extract_spans(["B-NP", "I-NP", "O", "B-VP"], "bio")
        assert spans == [Span(0, 1, "NP"), Span(3, 3, "VP")]

    def test_plain_example(self):
        spans = extract_spans(["NP", "NP", "VP", "O"], "plain")
        assert spans == [Span(0, 1, "NP"), Span(2, 2, "VP")]

    def test_dangling_i_repaired_and_counted(self):
        spans, repairs = extract_spans_counted(["I-NP", "I-NP"], "bio")
        assert spans == [Span(0, 1, "NP")]
        assert repairs == 1

    def test_type_switch_inside_i_run(self):
        spans, repairs = extract_spans_counted(["B-NP", "I-VP", "I-VP"], "bio")
        assert spans == [Span(0, 0, "NP"), Span(1, 2, "VP")]
        assert repairs == 1

    def test_adjacent_b_tags(self):
        assert extract_spans(["B-NP", "B-NP", "I-NP"], "bio") == \
            [Span(0, 0, "NP"), Span(1, 2, "NP")]

    def test_o_never_yields_span(self):
        assert extract_spans(["O", "O", "O"], "bio") == []
        assert extract_spans(["O"], "plain") == []

    def test_idempotent_through_rendering(self):
        # render well-formed spans back to BIO and re-extract
        labels = ["B-NP", "I-NP", "O", "B-VP", "B-NP"]
        spans = extract_spans(labels, "bio")
        rendered = ["O"] * len(labels)
        for s in spans:
            rendered[s.start] = "B-" + s.type
            for i in range(s.start + 1, s.end + 1):
                rendered[i] = "I-" + s.type
        assert rendered == labels
        assert extract_spans(rendered, "bio") == spans


class TestSpanF1:
    def test_perfect(self):
        gold = [[Span(0, 1, "NP")], [Span(0, 0, "VP")]]
        assert span_f1(gold, gold) == (1.0, 1.0, 1.0)

    def test_no_predictions(self):
        gold = [[Span(0, 1, "NP")]]
        assert span_f1(gold, [[]]) == (0.0, 0.0, 0.0)

    def test_partial(self):
        gold = [[Span(0, 1, "NP"), Span(3, 3, "VP")]]
        pred = [[Span(0, 1, "NP"), Span(2, 2, "NP"), Span(3, 4, "VP")]]
        p, r, f1 = span_f1(gold, pred)
        assert p == pytest.approx(1 / 3)
        assert r == pytest.approx(1 / 2)
        assert f1 == pytest.approx(0.4)

    def test_type_must_match(self):
        gold = [[Span(0, 1, "NP")]]
        pred = [[Span(0, 1, "VP")]]
        assert span_f1(gold, pred)[2] == 0.0


def _read_fixture(path):
    gold_sents, pred_sents = [], []
    gold, pred = [], []
    with open(path) as fh:
        for line in fh:
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
    return gold_sents, pred_sents


class TestScorerFidelity:
    fixtures = sorted(glob.glob(os.path.join(DATA, "spanfix_*.conll")))

    def test_enough_fixture_files(self):
        assert len(self.fixtures) >= 5

    @pytest.mark.parametrize("path", fixtures, ids=os.path.basename)
    def test_matches_reference_scorer(self, path):
        gold_sents, pred_sents = _read_fixture(path)
        ref_p, ref_r, ref_f1, ref_counts = score_sentences(gold_sents, pred_sents)
        gold_spans = [extract_spans(s, "bio") for s in gold_sents]
        pred_spans = [extract_spans(s, "bio") for s in pred_sents]
        p, r, f1 = span_f1(gold_spans, pred_spans)
        assert round(100 * p, 2) == round(ref_p, 2)
        assert round(100 * r, 2) == round(ref_r, 2)
        assert round(100 * f1, 2) == round(ref_f1, 2)
        n_gold = sum(len(s) for s in gold_spans)
        n_pred = sum(len(s) for s in pred_spans)
        assert (n_gold, n_pred) == ref_counts[:2]


class TestEvaluatePredictions:
    def test_error_convexity(self):
        gold = [["A", "B", "A", "B", "A"]]
        pred = [["A", "A", "A", "B", "B"]]
        known = [[True, True, False, False, True]]
        report = evaluate_predictions(gold, pred, known, task="pos")
        n_known, n_unknown = 3, 2
        mix = (n_known * report.known_error + n_unknown * report.unknown_error) / 5
        assert report.overall_error == pytest.approx(mix)

    def test_span_task_reports_f1_and_counts(self):
        gold = [["B-NP", "I-NP", "O"], ["B-VP"]]
        pred = [["B-NP", "I-NP", "O"], ["B-NP"]]
        known = [[True, True, True], [False]]
        report = evaluate_predictions(gold, pred, known, task="chunk")
        assert report.scheme == "bio"
        assert report.span_counts == (2, 2, 1)
        assert report.f1 == pytest.approx(0.5)
        assert report.known_f1 == 1.0
        assert report.unknown_f1 == 0.0

    def test_pos_task_reports_rates_only(self):
        report = evaluate_predictions([["A"]], [["A"]], [[True]], task="pos")
        assert report.f1 is None and report.span_counts is None

    def test_report_formats(self):
        report = evaluate_predictions(
            [["B-NP", "O"]], [["B-NP", "O"]], [[True, False]],
            task="ner", mode="pmc", decoder="mpm", downgrades=1, resolutions=4)
        text = format_report_text(report)
        kv = format_report_kv(report)
        assert "decoder" in text and "f1" in text
        for line in kv.strip().split("\n"):
            assert len(line.split("\t")) == 2
        assert "downgrade-rate\t0.250000" in kv

    def test_misaligned_sentences_raise_for_every_task(self):
        for task in ("pos", "chunk"):
            # equal corpus lengths, different sentence lengths
            with pytest.raises(ShapeError):
                evaluate_predictions([["A", "B"], ["C"]], [["A"], ["B", "C"]],
                                     [[True, True], [True]], task=task)
            with pytest.raises(ShapeError):
                evaluate_predictions([["A"], ["B"]], [["A"]], [[True], [True]], task=task)

    def test_misaligned_known_bits_raise_for_every_task(self):
        labels = [["B-NP", "I-NP"], ["O"]]
        for task in ("pos", "chunk"):
            with pytest.raises(ShapeError):
                evaluate_predictions(labels, labels, [[True], [False, True]], task=task)
            with pytest.raises(ShapeError):
                evaluate_predictions(labels, labels, [[True, True]], task=task)

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            evaluate_predictions([["A"]], [["A"]], [[True]], task="pos", scheme="iob2")
        with pytest.raises(ValueError):
            extract_spans(["A"], "iob2")


# Two span types plus odd labels: heads without a type ("B", "I-"), which
# open spans of type "", and labels that are inside no span under BIO: a
# foreign head, a bare type and a type without a head.
WELL_FORMED = ("O", "B-X", "I-X", "B-Y", "I-Y")
MALFORMED = ("B", "I-", "X-NP", "NP", "-NP")


@st.composite
def corpora(draw, labels=WELL_FORMED + MALFORMED):
    """(gold, predicted, known bits) per-sentence lists of equal shape."""
    lengths = draw(st.lists(st.integers(0, 7), max_size=7))

    def column(element):
        return [draw(st.lists(element, min_size=n, max_size=n)) for n in lengths]

    label = st.sampled_from(labels)
    return column(label), column(label), column(st.booleans())


def _reference_corpus_spans(sentences, scheme):
    """The reference's per-sentence spans shifted to corpus positions."""
    spans, repairs, offset = [], 0, 0
    for labels in sentences:
        found, n = span_reference.extract_spans_counted(labels, scheme)
        spans += [Span(s.start + offset, s.end + offset, s.type) for s in found]
        repairs += n
        offset += len(labels)
    return spans, repairs


class TestFlatPass:
    @settings(max_examples=200, deadline=None)
    @given(corpora(), st.sampled_from(SCHEMES))
    def test_corpus_spans_match_the_per_sentence_reference(self, corpus, scheme):
        for sentences in corpus[:2]:
            flat = [label for labels in sentences for label in labels]
            starts = set(accumulate(map(len, sentences)))
            assert evaluation._spans(flat, starts, scheme) == \
                _reference_corpus_spans(sentences, scheme)
            for labels in sentences:
                assert extract_spans_counted(labels, scheme) == \
                    span_reference.extract_spans_counted(labels, scheme)

    @settings(max_examples=200, deadline=None)
    @given(corpora(), st.sampled_from(("pos", "chunk", "ner")),
           st.sampled_from((None,) + SCHEMES))
    def test_report_matches_the_per_sentence_reference(self, corpus, task, scheme):
        fields = dict(mode="hmc", decoder="map", downgrades=1, resolutions=2,
                      failed_sentences=2)
        report = evaluate_predictions(*corpus, task=task, scheme=scheme, **fields)
        expected, metrics = span_reference.evaluate_predictions(*corpus, task=task,
                                                                scheme=scheme, **fields)
        assert report == expected
        assert {name: getattr(report, name) for name in metrics} == metrics
        assert report.downgrade_rate == 0.5

    @settings(max_examples=200, deadline=None)
    @given(corpora(), st.sampled_from(("pos", "chunk")), st.sampled_from((None,) + SCHEMES),
           st.data())
    def test_reports_of_the_parts_add_up_to_the_whole(self, corpus, task, scheme, data):
        """eval scores a corpus window by window and adds the reports; the
        sum must be the report of the whole, down to its formatted bytes."""
        cut = data.draw(st.integers(0, len(corpus[0])))
        whole = evaluate_predictions(*corpus, task=task, scheme=scheme, decoder="map",
                                     downgrades=3, resolutions=7, failed_sentences=1)
        head, tail = (evaluate_predictions(*(column[part] for column in corpus), task=task,
                                           scheme=scheme, decoder="map", downgrades=n,
                                           resolutions=n + 2, failed_sentences=n - 1)
                      for n, part in ((1, slice(None, cut)), (2, slice(cut, None))))
        total = head + tail
        assert total == whole
        assert format_report_text(total) == format_report_text(whole)
        assert format_report_kv(total) == format_report_kv(whole)

    def test_reports_of_different_runs_do_not_add(self):
        one = evaluate_predictions([["A"]], [["A"]], [[True]], task="pos", decoder="map")
        other = evaluate_predictions([["A"]], [["A"]], [[True]], task="pos", decoder="mpm")
        with pytest.raises(ValueError, match="decoder"):
            one + other

    @settings(max_examples=200, deadline=None)
    @given(corpora(labels=WELL_FORMED))
    def test_span_counts_match_conlleval(self, corpus):
        gold, predicted, known = corpus
        report = evaluate_predictions(gold, predicted, known, task="chunk")
        assert report.span_counts == score_sentences(gold, predicted)[3]

    @settings(max_examples=200, deadline=None)
    @given(corpora(), st.sampled_from(SCHEMES))
    def test_known_and_unknown_f1_match_a_recount(self, corpus, scheme):
        gold, predicted, known = corpus
        report = evaluate_predictions(gold, predicted, known, task="ner", scheme=scheme)
        # [gold, predicted, correct] span tallies, keyed by "holds an unknown word"
        tally = {False: [0, 0, 0], True: [0, 0, 0]}
        for g, p, bits in zip(gold, predicted, known):
            g = set(span_reference.extract_spans_counted(g, scheme)[0])
            p = set(span_reference.extract_spans_counted(p, scheme)[0])
            for column, spans in enumerate((g, p, g & p)):
                for span in spans:
                    tally[not all(bits[span.start:span.end + 1])][column] += 1

        def f1(n_gold, n_pred, n_correct):
            if not n_correct:
                return 0.0
            precision, recall = n_correct / n_pred, n_correct / n_gold
            return 2 * precision * recall / (precision + recall)

        if all(b for bits in known for b in bits):
            assert report.known_f1 == report.f1 and report.unknown_f1 is None
        else:
            assert report.known_f1 == pytest.approx(f1(*tally[False]), rel=1e-12)
            assert report.unknown_f1 == pytest.approx(f1(*tally[True]), rel=1e-12)
