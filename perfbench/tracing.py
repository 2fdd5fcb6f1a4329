"""Layer spans for pmctag, recorded from outside the package.

Each traced function is replaced, for the duration of a `traced()` block,
at the module attribute its caller looks up (for example
`pmctag.cli.load_model`, which cli.py imported by name, and
`pmctag.serialize.deserialize_model`, which load_model finds in its own
module). The spans therefore follow whatever path the program takes, and
the package source stays untouched.

A span records its name, start, end, parent and the exception type that
left it, if any. Spans live in memory and are written out by the caller
once the run is over.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import pmctag.cli
import pmctag.inference
import pmctag.serialize
import pmctag.training

# (module, attribute, span name); the span name's prefix is the layer.
TARGETS = [
    (pmctag.cli, "read_conll", "conll.read_conll"),
    (pmctag.cli, "read_records", "conll.read_records"),
    (pmctag.cli, "write_conll", "conll.write_conll"),
    (pmctag.cli, "mark_known", "conll.mark_known"),
    (pmctag.cli, "train_model", "training.train_model"),
    (pmctag.cli, "update_online", "training.update_online"),
    (pmctag.training, "accumulate_counts", "training.accumulate_counts"),
    (pmctag.training, "fit_hmc", "training.fit_hmc"),
    (pmctag.training, "fit_pmc", "training.fit_pmc"),
    (pmctag.training, "fit_feature_tables", "features.fit_feature_tables"),
    (pmctag.training, "derive_feature_tables", "features.derive_feature_tables"),
    (pmctag.cli, "save_model", "serialize.save_model"),
    (pmctag.serialize, "serialize_model", "serialize.serialize_model"),
    (pmctag.cli, "load_model", "serialize.load_model"),
    (pmctag.serialize, "deserialize_model", "serialize.deserialize_model"),
    (pmctag.cli, "model_stats", "serialize.model_stats"),
    (pmctag.cli, "_decode_corpus", "cli.decode_corpus"),
    (pmctag.inference, "decode_sentence", "inference.decode_sentence"),
    (pmctag.inference, "resolve_factors", "inference.resolve_factors"),
    (pmctag.inference, "DecodeIndex", "inference.decode_index"),
    (pmctag.inference, "posterior_marginals", "inference.posterior_marginals"),
    (pmctag.inference, "map_path", "inference.map_path"),
    (pmctag.cli, "evaluate_predictions", "evaluation.evaluate_predictions"),
]
ROOT = "cli.main"
SPAN_NAMES = [ROOT] + [name for _, _, name in TARGETS]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None


class Tracer:
    """Collects spans and the few return values the counters need."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.decode_flags: list[list[str]] = []
        self.serialized_bytes = 0

    @contextmanager
    def span(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "inference.decode_sentence":
                self.decode_flags.append(result.flags)
            elif name == "serialize.serialize_model":
                self.serialized_bytes += len(result)
            elif name == "serialize.deserialize_model":
                self.serialized_bytes += len(args[0])
            return result
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Self seconds, calls and errors per span name.

        Self time is a span's duration minus the time its direct children
        cover; the program is single-threaded here, so children never
        overlap.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out = {name: {"self_s": 0.0, "calls": 0, "errors": 0} for name in SPAN_NAMES}
        for span in self.spans:
            row = out[span.name]
            row["self_s"] += span.end - span.start - covered[span.id]
            row["calls"] += 1
            row["errors"] += span.error is not None
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers at every target for the block's duration."""
    saved = []
    try:
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
