"""Per-sentence reference for pmctag.evaluation's span scoring.

The package scores a corpus in one pass over its flattened label columns;
this module keeps the per-sentence state machine, span lists and set match
that pass replaced, so property tests can check that both give the same
spans, repairs, report tallies and metrics. It is not used by the package.
"""

from itertools import accumulate
from typing import NamedTuple

from pmctag.errors import ShapeError
from pmctag.evaluation import UNKNOWN_SPAN_NOTE, EvalReport

SCHEMES = ("bio", "plain")


class Span(NamedTuple):
    start: int
    end: int
    type: str


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


def _rate(wrong, total):
    return wrong / total if total else None


def evaluate_predictions(gold_labels, predicted_labels, known_bits, task,
                         scheme=None, **report_fields):
    """The per-sentence scorer, for sentences whose shapes agree.

    Returns the EvalReport of the tallies and a dict of the metrics
    computed here from them, keyed by the report's attribute names.
    """
    if len(gold_labels) != len(predicted_labels):
        raise ShapeError("gold and predicted cover different sentence counts")
    tokens = errors = unknown_tokens = unknown_errors = 0
    for gold, pred, bits in zip(gold_labels, predicted_labels, known_bits):
        for g, p, known in zip(gold, pred, bits):
            tokens += 1
            errors += g != p
            unknown_tokens += not known
            unknown_errors += g != p and not known

    if scheme is None and task in ("chunk", "ner"):
        scheme = "bio"
    report = EvalReport(
        task=task,
        scheme=scheme,
        sentences=len(gold_labels),
        tokens=tokens,
        unknown_tokens=unknown_tokens,
        errors=errors,
        unknown_errors=unknown_errors,
        **report_fields,
    )
    metrics = {
        "overall_error": _rate(errors, tokens),
        "known_error": _rate(errors - unknown_errors, tokens - unknown_tokens),
        "unknown_error": _rate(unknown_errors, unknown_tokens),
        "notes": [],
        **dict.fromkeys(("precision", "recall", "f1", "known_f1", "unknown_f1")),
    }
    if scheme is None:
        return report, metrics

    gold_spans, pred_spans, repairs = [], [], 0
    for gold, pred in zip(gold_labels, predicted_labels):
        if len(gold) != len(pred):
            raise ShapeError("gold and predicted sentence lengths differ")
        gold_spans.append(extract_spans_counted(gold, scheme)[0])
        spans, rep = extract_spans_counted(pred, scheme)
        pred_spans.append(spans)
        repairs += rep
    counts = span_match_counts(gold_spans, pred_spans)
    metrics["precision"], metrics["recall"], metrics["f1"] = _prf(*counts)
    report.span_counts = counts
    report.repairs = repairs

    unknown_before = [list(accumulate((not b for b in bits), initial=0))
                      for bits in known_bits]
    (known_gold, unknown_gold), (known_pred, unknown_pred) = (
        _split_spans(spans, unknown_before) for spans in (gold_spans, pred_spans))
    report.unknown_span_counts = span_match_counts(unknown_gold, unknown_pred)
    if report.unknown_tokens:
        metrics["known_f1"] = _prf(*span_match_counts(known_gold, known_pred))[2]
        metrics["unknown_f1"] = _prf(*report.unknown_span_counts)[2]
        metrics["notes"] = [UNKNOWN_SPAN_NOTE]
    else:
        metrics["known_f1"] = metrics["f1"]
    return report, metrics
