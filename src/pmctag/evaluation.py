"""Token accuracy and span F1 reports.

Span extraction follows the official CoNLL scoring conventions: a dangling
I-X (after O, a different type, or the sentence start) opens a new span
and is counted as a repair. All metrics are pure aggregation; decoding is
driven elsewhere and its diagnostics are passed in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate, compress
from operator import add, sub
from typing import NamedTuple

from .errors import ShapeError

SCHEMES = ("bio", "plain")

UNKNOWN_SPAN_NOTE = "spans containing at least one unknown word count as unknown"


class Span(NamedTuple):
    start: int
    end: int
    type: str


def _rate(wrong, total):
    return wrong / total if total else None


def _token_tallies(gold, predicted, known_bits):
    """(errors, unknown tokens, unknown-token errors) of flat label
    sequences; the labels are compared once, and the known bits pick out
    the unknown tokens' comparisons."""
    if len(gold) != len(predicted):
        raise ShapeError(f"{len(gold)} gold labels vs {len(predicted)} predictions")
    if len(known_bits) != len(gold):
        raise ShapeError(f"{len(known_bits)} known bits vs {len(gold)} tokens")
    wrong = list(map(str.__ne__, gold, predicted))
    errors, unknown = sum(wrong), len(wrong) - sum(map(bool, known_bits))
    return errors, unknown, errors - sum(compress(wrong, known_bits))


def token_accuracy(gold, predicted, known_bits=None):
    """Error rates (overall, known, unknown) over flat label sequences.

    Empty subsets yield None rather than 0 so that "no unknown words" is
    distinguishable from "no unknown-word errors".
    """
    bits = [True] * len(gold) if known_bits is None else known_bits
    errors, unknown, unknown_errors = _token_tallies(gold, predicted, bits)
    overall = _rate(errors, len(gold))
    if known_bits is None:
        return overall, None, None
    return (overall, _rate(errors - unknown_errors, len(gold) - unknown),
            _rate(unknown_errors, unknown))


def _span_kind(label, bio):
    """(type, joins) of a label: type is None outside spans, and joins says
    whether the label may continue a span of its type."""
    if not bio:
        return (None if label == "O" else label), True
    head, _, kind = label.partition("-")
    if head == "I":
        return kind, True
    return (kind if head == "B" else None), False


def _spans(labels, starts, scheme):
    """(start, end, type) spans of a flat label column plus the number of
    I- openings repaired.

    A token continues the span before it when both are inside a span of the
    same type, no sentence starts at it (`starts` holds those positions) and,
    under BIO, it is an I-. Every other inside token opens a span; under BIO
    a B or I head is inside, and a malformed label closes the span before it.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    bio = scheme == "bio"
    kinds = {label: _span_kind(label, bio) for label in set(labels)}
    spans, repairs, open_type, first = [], 0, None, 0
    for pos, (kind, joins) in enumerate(map(kinds.__getitem__, labels)):
        if joins and open_type is not None and kind == open_type and pos not in starts:
            continue
        if open_type is not None:
            spans.append((first, pos - 1, open_type))
        open_type, first = kind, pos
        repairs += bio and joins
    if open_type is not None:
        spans.append((first, len(labels) - 1, open_type))
    return spans, repairs


def extract_spans_counted(labels, scheme="bio"):
    """Spans plus the number of dangling I- openings repaired."""
    spans, repairs = _spans(labels, (), scheme)
    return list(map(Span._make, spans)), repairs


def extract_spans(labels, scheme="bio"):
    """Maximal typed spans of a label sequence; O yields no span."""
    return extract_spans_counted(labels, scheme)[0]


def _prf(n_gold, n_pred, n_correct):
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def span_f1(gold_spans, predicted_spans):
    """Micro-averaged (precision, recall, f1) over per-sentence span lists.

    A predicted span is correct iff its (start, end, type) triple matches a
    gold span of the same sentence.
    """
    if len(gold_spans) != len(predicted_spans):
        raise ShapeError("gold and predicted span lists cover different sentences")
    gold, pred = ({(n, span) for n, spans in enumerate(lists) for span in spans}
                  for lists in (gold_spans, predicted_spans))
    return _prf(sum(map(len, gold_spans)), sum(map(len, predicted_spans)),
                len(gold & pred))


@dataclass
class EvalReport:
    """Integer tallies of a scored corpus, and the metrics derived from them.

    Reports of disjoint parts of one corpus, scored alike, add up with `+`
    to the report of the whole. Each rate is one division of two tallies:
    error rates and the downgrade rate are fractions in [0, 1], and the
    span metrics are only set for span tasks (span_counts is None without
    a scheme). known_*/unknown_* metrics are None when the corresponding
    token subset is empty.
    """

    task: str
    mode: str = "pmc"
    decoder: str = "mpm"
    scheme: str | None = None
    sentences: int = 0
    tokens: int = 0
    unknown_tokens: int = 0
    errors: int = 0
    unknown_errors: int = 0
    # (gold, predicted, correct) spans, of all spans and of those holding an unknown word
    span_counts: tuple[int, int, int] | None = None
    unknown_span_counts: tuple[int, int, int] | None = None
    repairs: int = 0
    downgrades: int = 0  # downgraded steps of the decoded sentences
    resolutions: int = 0  # resolved steps of the decoded sentences
    failed_sentences: int = 0

    def __add__(self, other: "EvalReport") -> "EvalReport":
        merged = {}
        for name in (f.name for f in fields(self)):
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, int):
                merged[name] = mine + theirs
            elif isinstance(mine, tuple) and isinstance(theirs, tuple):
                merged[name] = tuple(map(add, mine, theirs))
            elif mine == theirs:
                merged[name] = mine
            else:
                raise ValueError(f"reports differ in {name}: {mine!r} and {theirs!r}")
        return EvalReport(**merged)

    @property
    def overall_error(self) -> float | None:
        return _rate(self.errors, self.tokens)

    @property
    def known_error(self) -> float | None:
        return _rate(self.errors - self.unknown_errors, self.tokens - self.unknown_tokens)

    @property
    def unknown_error(self) -> float | None:
        return _rate(self.unknown_errors, self.unknown_tokens)

    def _span_metric(self, counts, which):
        return None if counts is None else _prf(*counts)[which]

    @property
    def precision(self) -> float | None:
        return self._span_metric(self.span_counts, 0)

    @property
    def recall(self) -> float | None:
        return self._span_metric(self.span_counts, 1)

    @property
    def f1(self) -> float | None:
        return self._span_metric(self.span_counts, 2)

    @property
    def known_f1(self) -> float | None:
        if not self.unknown_tokens or self.span_counts is None:
            return self.f1
        return _prf(*map(sub, self.span_counts, self.unknown_span_counts))[2]

    @property
    def unknown_f1(self) -> float | None:
        if not self.unknown_tokens:
            return None
        return self._span_metric(self.unknown_span_counts, 2)

    @property
    def downgrade_rate(self) -> float | None:
        return _rate(self.downgrades, self.resolutions)

    @property
    def notes(self) -> list[str]:
        return [UNKNOWN_SPAN_NOTE] if self.unknown_tokens and self.scheme else []


def evaluate_predictions(gold_labels, predicted_labels, known_bits, task,
                         scheme=None, **report_fields) -> EvalReport:
    """Score per-sentence predictions against gold labels.

    gold_labels, predicted_labels and known_bits are parallel lists of
    per-sentence sequences, and ShapeError is raised unless every sentence
    has as many predictions and known bits as gold labels. The corpus is
    scored in one pass over the flattened columns, where a span is a
    (start, end, type) triple of corpus positions. Span metrics are
    computed for chunking and NER (or whenever a scheme is passed); POS
    reports error rates only. report_fields set the report's other fields,
    such as the decoder and the downgrade tallies.
    """
    lengths = list(map(len, gold_labels))
    if any(list(map(len, sents)) != lengths for sents in (predicted_labels, known_bits)):
        raise ShapeError("gold labels, predictions and known bits differ in shape")
    flat_gold = [g for sent in gold_labels for g in sent]
    flat_pred = [p for sent in predicted_labels for p in sent]
    flat_known = [b for sent in known_bits for b in sent]
    errors, unknown_tokens, unknown_errors = _token_tallies(flat_gold, flat_pred, flat_known)

    if scheme is None and task in ("chunk", "ner"):
        scheme = "bio"
    report = EvalReport(
        task=task,
        scheme=scheme,
        sentences=len(gold_labels),
        tokens=len(flat_gold),
        unknown_tokens=unknown_tokens,
        errors=errors,
        unknown_errors=unknown_errors,
        **report_fields,
    )
    if scheme is None:
        return report

    starts = set(accumulate(lengths))
    gold, _ = _spans(flat_gold, starts, scheme)
    pred, report.repairs = _spans(flat_pred, starts, scheme)
    gold, pred = set(gold), set(pred)
    report.span_counts = (len(gold), len(pred), len(gold & pred))
    # unknown_before[p]: unknown tokens among the corpus's first p tokens
    unknown_before = list(accumulate((not b for b in flat_known), initial=0))
    unknown_gold, unknown_pred = (
        {span for span in spans if unknown_before[span[1] + 1] > unknown_before[span[0]]}
        for spans in (gold, pred))
    report.unknown_span_counts = (len(unknown_gold), len(unknown_pred),
                                  len(unknown_gold & unknown_pred))
    return report


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _report_rows(report: EvalReport):
    rows = [
        ("task", report.task),
        ("mode", report.mode),
        ("decoder", report.decoder),
    ]
    if report.scheme:
        rows.append(("scheme", report.scheme))
    for note in report.notes:
        rows.append(("note", note))
    rows += [
        ("sentences", report.sentences),
        ("tokens", report.tokens),
        ("unknown-tokens", report.unknown_tokens),
        ("overall-error", report.overall_error),
        ("known-error", report.known_error),
        ("unknown-error", report.unknown_error),
    ]
    if report.scheme:
        rows += [
            ("precision", report.precision),
            ("recall", report.recall),
            ("f1", report.f1),
            ("known-f1", report.known_f1),
            ("unknown-f1", report.unknown_f1),
            ("gold-spans", report.span_counts[0]),
            ("predicted-spans", report.span_counts[1]),
            ("correct-spans", report.span_counts[2]),
            ("bio-repairs", report.repairs),
        ]
    if report.downgrade_rate is not None:
        rows.append(("downgrade-rate", report.downgrade_rate))
    if report.failed_sentences:
        rows.append(("failed-sentences", report.failed_sentences))
    return rows


def format_report_text(report: EvalReport) -> str:
    rows = _report_rows(report)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {_fmt(v)}" for k, v in rows) + "\n"


def format_report_kv(report: EvalReport) -> str:
    return "\n".join(f"{k}\t{_fmt(v)}" for k, v in _report_rows(report)) + "\n"
