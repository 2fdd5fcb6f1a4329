"""Token accuracy, span F1 and timing reports.

Span extraction follows the official CoNLL scoring conventions: a dangling
I-X (after O, a different type, or the sentence start) opens a new span
and is counted as a repair. All metrics are pure aggregation; decoding is
driven elsewhere and its diagnostics are passed in.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ShapeError

SCHEMES = ("bio", "plain")

UNKNOWN_SPAN_NOTE = "spans containing at least one unknown word count as unknown"


class Span(NamedTuple):
    start: int
    end: int
    type: str


def token_accuracy(gold, predicted, known_bits=None):
    """Error rates (overall, known, unknown) over flat label sequences.

    Empty subsets yield None rather than 0 so that "no unknown words" is
    distinguishable from "no unknown-word errors".
    """
    if len(gold) != len(predicted):
        raise ShapeError(f"{len(gold)} gold labels vs {len(predicted)} predictions")
    if known_bits is not None and len(known_bits) != len(gold):
        raise ShapeError(f"{len(known_bits)} known bits vs {len(gold)} tokens")

    def rate(pairs):
        total = wrong = 0
        for g, p in pairs:
            total += 1
            wrong += g != p
        return wrong / total if total else None

    overall = rate(zip(gold, predicted))
    if known_bits is None:
        return overall, None, None
    known = rate((g, p) for g, p, b in zip(gold, predicted, known_bits) if b)
    unknown = rate((g, p) for g, p, b in zip(gold, predicted, known_bits) if not b)
    return overall, known, unknown


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


def extract_spans(labels, scheme="bio"):
    """Maximal typed spans of a label sequence; O yields no span."""
    return extract_spans_counted(labels, scheme)[0]


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


def span_f1(gold_spans, predicted_spans):
    """Micro-averaged (precision, recall, f1) over per-sentence span lists.

    A predicted span is correct iff its (start, end, type) triple matches a
    gold span of the same sentence.
    """
    return _prf(*span_match_counts(gold_spans, predicted_spans))


@dataclass
class EvalReport:
    """Metrics in the shape of the benchmark tables.

    Error rates and the downgrade rate are fractions in [0, 1]; f1 and
    friends are only set for span tasks. known_*/unknown_* fields are None
    when the corresponding token subset is empty.
    """

    task: str
    mode: str = "pmc"
    decoder: str = "mpm"
    scheme: str | None = None
    sentences: int = 0
    tokens: int = 0
    unknown_tokens: int = 0
    overall_error: float | None = None
    known_error: float | None = None
    unknown_error: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    known_f1: float | None = None
    unknown_f1: float | None = None
    span_counts: tuple[int, int, int] | None = None
    repairs: int = 0
    downgrade_rate: float | None = None
    failed_sentences: int = 0
    notes: list[str] = field(default_factory=list)


def evaluate_predictions(gold_labels, predicted_labels, known_bits, task,
                         scheme=None, **report_fields) -> EvalReport:
    """Score per-sentence predictions against gold labels.

    gold_labels, predicted_labels and known_bits are parallel lists of
    per-sentence sequences. Span metrics are computed for chunking and NER
    (or whenever a scheme is passed); POS reports error rates only.
    """
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
        gold_spans.append(extract_spans(gold, scheme))
        spans, rep = extract_spans_counted(pred, scheme)
        pred_spans.append(spans)
        repairs += rep
    counts = span_match_counts(gold_spans, pred_spans)
    report.precision, report.recall, report.f1 = _prf(*counts)
    report.span_counts = counts
    report.repairs = repairs

    def restrict(span_lists, bits, want_unknown):
        out = []
        for spans, sent_bits in zip(span_lists, bits):
            keep = [s for s in spans
                    if any(not sent_bits[i] for i in range(s.start, s.end + 1)) == want_unknown]
            out.append(keep)
        return out

    if report.unknown_tokens:
        _, _, report.known_f1 = span_f1(
            restrict(gold_spans, known_bits, False),
            restrict(pred_spans, known_bits, False))
        _, _, report.unknown_f1 = span_f1(
            restrict(gold_spans, known_bits, True),
            restrict(pred_spans, known_bits, True))
        report.notes.append(UNKNOWN_SPAN_NOTE)
    else:
        report.known_f1 = report.f1
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


@dataclass
class BenchReport:
    """Wall-clock samples for training and optional decoding runs."""

    sentences: int
    tokens: int
    train_samples: list[float]
    decode_samples: list[float] | None = None
    decoded_tokens: int = 0

    @property
    def train_median(self) -> float:
        return statistics.median(self.train_samples)

    @property
    def train_spread(self) -> tuple[float, float]:
        return min(self.train_samples), max(self.train_samples)

    @property
    def decode_median(self) -> float | None:
        return statistics.median(self.decode_samples) if self.decode_samples else None

    @property
    def tokens_per_second(self) -> float | None:
        median = self.decode_median
        if not median or not self.decoded_tokens:
            return None
        return self.decoded_tokens / median

    def format(self) -> str:
        lo, hi = self.train_spread
        lines = [
            f"sentences {self.sentences}",
            f"tokens {self.tokens}",
            f"train-repetitions {len(self.train_samples)}",
            f"train-median-s {self.train_median:.4f}",
            f"train-min-s {lo:.4f}",
            f"train-max-s {hi:.4f}",
        ]
        if self.decode_samples:
            dlo, dhi = min(self.decode_samples), max(self.decode_samples)
            lines += [
                f"decode-median-s {self.decode_median:.4f}",
                f"decode-min-s {dlo:.4f}",
                f"decode-max-s {dhi:.4f}",
                f"decode-tokens {self.decoded_tokens}",
                f"decode-tokens-per-s {self.tokens_per_second:.1f}",
            ]
        return "\n".join(lines) + "\n"


def benchmark(train_fn, corpus, repetitions, decode_fn=None,
              decoded_tokens=0) -> BenchReport:
    """Time `train_fn(corpus)` and optionally `decode_fn(model)` per run."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    train_samples = []
    decode_samples = [] if decode_fn else None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        model = train_fn(corpus)
        train_samples.append(time.perf_counter() - t0)
        if decode_fn:
            t0 = time.perf_counter()
            decode_fn(model)
            decode_samples.append(time.perf_counter() - t0)
    return BenchReport(
        sentences=len(corpus.sentences),
        tokens=corpus.n_tokens,
        train_samples=train_samples,
        decode_samples=decode_samples,
        decoded_tokens=decoded_tokens,
    )
