"""Per-sentence reference for pmctag.evaluation's span scoring.

The package scores a corpus in one pass over its flattened label columns;
this module keeps the per-sentence state machine, span lists and set match
that pass replaced, so property tests can check that both give the same
spans, repairs and EvalReport. It is not used by the package.
"""

from itertools import accumulate

from pmctag.errors import ShapeError
from pmctag.evaluation import UNKNOWN_SPAN_NOTE, EvalReport, Span, token_accuracy

SCHEMES = ("bio", "plain")


def _split_bio(label):
    if label == "O":
        return "O", ""
    head, _, rest = label.partition("-")
    return head, rest


def extract_spans_counted(labels, scheme="bio"):
    """Spans plus the number of dangling I- openings repaired."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    spans = []
    repairs = 0
    start = None
    current = None
    for pos, label in enumerate(labels):
        if scheme == "plain":
            opens = label != "O" and label != current
            continues = label != "O" and label == current
            kind = label
        else:
            head, kind = _split_bio(label)
            continues = head == "I" and current == kind and start is not None
            opens = head == "B" or (head == "I" and not continues)
            if head == "I" and opens:
                repairs += 1
        if continues:
            continue
        if start is not None:
            spans.append(Span(start, pos - 1, current))
            start, current = None, None
        if opens:
            start, current = pos, kind
    if start is not None:
        spans.append(Span(start, len(labels) - 1, current))
    return spans, repairs


def span_match_counts(gold_spans, predicted_spans):
    """(gold, predicted, correct) totals over per-sentence span lists."""
    if len(gold_spans) != len(predicted_spans):
        raise ShapeError("gold and predicted span lists cover different sentences")
    n_gold = n_pred = n_correct = 0
    for gold, pred in zip(gold_spans, predicted_spans):
        n_gold += len(gold)
        n_pred += len(pred)
        n_correct += len(set(gold) & set(pred))
    return n_gold, n_pred, n_correct


def _prf(n_gold, n_pred, n_correct):
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _split_spans(span_lists, unknown_before):
    known, unknown = [], []
    for spans, before in zip(span_lists, unknown_before):
        known.append([])
        unknown.append([])
        for s in spans:
            (unknown if before[s.end + 1] > before[s.start] else known)[-1].append(s)
    return known, unknown


def evaluate_predictions(gold_labels, predicted_labels, known_bits, task,
                         scheme=None, **report_fields):
    """The per-sentence scorer, for sentences whose shapes agree."""
    if len(gold_labels) != len(predicted_labels):
        raise ShapeError("gold and predicted cover different sentence counts")
    flat_gold = [g for sent in gold_labels for g in sent]
    flat_pred = [p for sent in predicted_labels for p in sent]
    flat_known = [b for sent in known_bits for b in sent]
    overall, known, unknown = token_accuracy(flat_gold, flat_pred, flat_known)

    if scheme is None and task in ("chunk", "ner"):
        scheme = "bio"
    report = EvalReport(
        task=task,
        scheme=scheme,
        sentences=len(gold_labels),
        tokens=len(flat_gold),
        unknown_tokens=sum(1 for b in flat_known if not b),
        overall_error=overall,
        known_error=known,
        unknown_error=unknown,
        **report_fields,
    )
    if scheme is None:
        return report

    gold_spans, pred_spans, repairs = [], [], 0
    for gold, pred in zip(gold_labels, predicted_labels):
        if len(gold) != len(pred):
            raise ShapeError("gold and predicted sentence lengths differ")
        gold_spans.append(extract_spans_counted(gold, scheme)[0])
        spans, rep = extract_spans_counted(pred, scheme)
        pred_spans.append(spans)
        repairs += rep
    counts = span_match_counts(gold_spans, pred_spans)
    report.precision, report.recall, report.f1 = _prf(*counts)
    report.span_counts = counts
    report.repairs = repairs

    if report.unknown_tokens:
        unknown_before = [list(accumulate((not b for b in bits), initial=0))
                          for bits in known_bits]
        (known_gold, unknown_gold), (known_pred, unknown_pred) = (
            _split_spans(spans, unknown_before) for spans in (gold_spans, pred_spans))
        report.known_f1 = _prf(*span_match_counts(known_gold, known_pred))[2]
        report.unknown_f1 = _prf(*span_match_counts(unknown_gold, unknown_pred))[2]
        report.notes.append(UNKNOWN_SPAN_NOTE)
    else:
        report.known_f1 = report.f1
    return report
