#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pmctag command line.

Run from the repository root:

    python3 perfbench/run.py --workload tag-mpm --seed 1 --seconds 24 --trace 0

Every input is generated from --seed by perfbench/synth.py. The program
under test is the real CLI, `python -m pmctag.cli` with src/ on
PYTHONPATH, run as one child process at a time. Outputs are checked
against the library and the generator's gold labels; the last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from an in-process traced run of `pmctag.cli.main`. Exit
code 1 means a correctness check failed, 2 that the repository or the
arguments are unusable. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
from hostspeed import HostSpeed  # noqa: E402
from synth import World, conll_text, make_rng, sample_sentences  # noqa: E402

SETUP_REPEATS = 3
MIN_CLI_RUNS = 4
MIN_DECODE_PASSES = 5
LATENCY_SENTENCES = 2000  # the first test sentences, decoded in every timed pass
BLOCK = 25             # sentences between two host-speed samples in a decode pass
BLOCK_MARGIN_S = 0.05  # samples this near a block give its host factor
BURST_S = 0.1          # host-speed samples right before and after a child or a set-up
MARGIN_S = 1.5         # samples this near a child or a set-up give its host factor
SUFFIX_LEVELS = 4  # the CLI's default suffix_max_len is 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # the pmctag subcommand that is measured
    world: World
    train: int            # training sentences
    test: int             # decoded sentences (held out for train-online)
    extra: int = 0        # sentences folded in through the online update
    oov_share: float = 0.0
    task: str = "pos"
    decoder: str = "mpm"
    scheme: str = "plain"  # span scheme of span_f1; eval uses bio for chunk


PAIRWISE = World(n_labels=10, groups=2)
BIO40 = World(n_labels=40, groups=4, bio=True)

WORKLOADS = {
    wl.name: wl for wl in [
        Workload("train-online", "train", PAIRWISE, train=12000, test=2000,
                 extra=2000),
        Workload("tag-mpm", "tag", PAIRWISE, train=12000, test=4000),
        Workload("eval-map-oov", "eval", BIO40, train=12000, test=2000,
                 oov_share=0.2, task="chunk", decoder="map", scheme="bio"),
    ]
}

END_TO_END = {
    "tokens_per_s": "tok/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model_bytes": "B",
    "sentence_p50_ms": "ms",
    "sentence_p99_ms": "ms",
    "token_error": "share",
    "span_f1": "share",
    "decoded_share": "share",
}


def per_layer_units():
    from tracing import SPAN_NAMES
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
        units[f"{name}_errors"] = "count"
    units.update({
        "serialize.bytes": "B",
        "inference.resolutions": "count",
        "inference.downgrades": "count",
        "inference.downgrade_rate": "share",
        "inference.dead_ends": "count",
        "features.oov_tokens": "count",
    })
    for m in range(SUFFIX_LEVELS):
        units[f"features.backoff_level_{m}"] = "count"
    units.update({
        "trace.untraced_s": "s",
        "trace.traced_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_share": "share",
    })
    return units


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def n_tokens(sentences) -> int:
    return sum(len(s) for s in sentences)


# --------------------------------------------------------------- set-up

@dataclass
class Inputs:
    work: Path
    train: list
    extra: list
    test: list
    hashes: dict[str, str] = field(default_factory=dict)

    def path(self, name) -> Path:
        return self.work / name

    @property
    def test_words(self):
        return [[w for w, _ in s] for s in self.test]


def set_up(wl: Workload, seed: int, scale: float, work: Path) -> Inputs:
    """Generate every input file and, for decode workloads, train the model."""
    from pmctag.conll import LabeledCorpus
    from pmctag.serialize import save_model
    from pmctag.training import TrainConfig, train_model

    def size(n):
        return max(int(n * scale), 20) if n else 0

    inputs = Inputs(
        work=work,
        train=sample_sentences(wl.world, make_rng(seed, "train"), size(wl.train)),
        extra=sample_sentences(wl.world, make_rng(seed, "extra"), size(wl.extra)),
        test=sample_sentences(wl.world, make_rng(seed, "test"), size(wl.test),
                              wl.oov_share),
    )
    files = {"train.conll": inputs.train, "test.conll": inputs.test}
    if inputs.extra:
        files["extra.conll"] = inputs.extra
    for name, sentences in files.items():
        inputs.path(name).write_text(conll_text(sentences), encoding="utf-8")
    if wl.command == "tag":
        text = "".join("".join(f"{w}\n" for w, _ in s) + "\n" for s in inputs.test)
        inputs.path("input.txt").write_text(text, encoding="utf-8")
    if wl.command != "train":
        model = train_model(LabeledCorpus(inputs.train), TrainConfig(task=wl.task))
        save_model(model, inputs.path("model.pmc"))
    for path in sorted(work.iterdir()):
        inputs.hashes[path.name] = sha256_file(path)
    return inputs


def cli_args(wl: Workload, inputs: Inputs) -> list[str]:
    p = inputs.path
    if wl.command == "train":
        return ["train", "--corpus", str(p("train.conll")),
                "--extra-corpus", str(p("extra.conll")),
                "--model", str(p("trained.pmc")), "--task", wl.task]
    if wl.command == "tag":
        return ["tag", "--model", str(p("model.pmc")), "--input", str(p("input.txt")),
                "--output", str(p("tagged.txt")), "--decoder", wl.decoder]
    return ["eval", "--model", str(p("model.pmc")), "--corpus", str(p("test.conll")),
            "--decoder", wl.decoder, "--report-text", str(p("report.txt")),
            "--report-kv", str(p("report.kv"))]


OUTPUTS = ("trained.pmc", "tagged.txt", "report.txt", "report.kv")


def clear_outputs(inputs: Inputs):
    """Remove earlier CLI outputs, so a run that writes none cannot pass."""
    for name in OUTPUTS:
        inputs.path(name).unlink(missing_ok=True)


def input_tokens(wl: Workload, inputs: Inputs) -> int:
    if wl.command == "train":
        return n_tokens(inputs.train) + n_tokens(inputs.extra)
    return n_tokens(inputs.test)


# ------------------------------------------------------ library reference

@dataclass
class Reference:
    """The library's own decode of the test sentences, untraced."""

    model: object
    results: list            # DecodeResult, or None for a dead end
    latencies: list[float]
    factors: list[float]     # host factor of each latency
    report: object           # EvalReport over the decoded sentences

    @property
    def dead(self) -> list[int]:
        return [i for i, r in enumerate(self.results) if r is None]


def decode_pass(model, sentences, decoder, host: HostSpeed | None = None):
    """decode_sentence over every sentence, timing each call.

    Returns (results, latencies, factors); a dead end gives None as its
    result. With a host, a host-speed sample is taken before every BLOCK
    sentences and after the last one, and a sentence's factor, which
    scales its latency to nominal time, comes from the samples within
    BLOCK_MARGIN_S of its block. Without one, every factor is 1.
    """
    from pmctag.errors import DeadEnd
    from pmctag.inference import decode_sentence

    results, latencies, blocks = [], [], []
    for start in range(0, len(sentences), BLOCK):
        if host is not None:
            host.sample()
        block = sentences[start:start + BLOCK]
        block_start = time.perf_counter()
        for words in block:
            t0 = time.perf_counter()
            try:
                result = decode_sentence(model, words, decoder=decoder)
            except DeadEnd:
                result = None
            latencies.append(time.perf_counter() - t0)
            results.append(result)
        blocks.append((block_start, time.perf_counter(), len(block)))
    if host is None:
        return results, latencies, [1.0] * len(latencies)
    host.sample()
    factors = []
    for block_start, block_end, n in blocks:
        factors += [host.factor(block_start, block_end, BLOCK_MARGIN_S)] * n
    return results, latencies, factors


def decode_reference(wl: Workload, inputs: Inputs, model_path,
                     host: HostSpeed | None = None) -> Reference:
    """Load and index the model, then decode and score the test sentences."""
    from pmctag.conll import LabeledCorpus, mark_known
    from pmctag.evaluation import evaluate_predictions
    from pmctag.inference import decode_index
    from pmctag.serialize import load_model

    model = load_model(model_path)
    decode_index(model)
    results, latencies, factors = decode_pass(model, inputs.test_words, wl.decoder, host)
    known = mark_known(LabeledCorpus(inputs.test), model.vocabulary)
    gold, predicted, bits = [], [], []
    for sent, result, sent_bits in zip(inputs.test, results, known):
        if result is not None:
            gold.append([t for _, t in sent])
            predicted.append(result.labels)
            bits.append(sent_bits)
    report = evaluate_predictions(gold, predicted, bits, task=model.task,
                                  scheme=wl.scheme, decoder=wl.decoder,
                                  failed_sentences=results.count(None))
    return Reference(model, results, latencies, factors, report)


# ---------------------------------------------------------------- checks

def check_exit(code: int, stderr: str, ref: Reference):
    """Exit 0, or exit 1 reporting exactly the library's dead ends."""
    reported = [int(line.split()[1].rstrip(":")) for line in stderr.splitlines()
                if line.startswith("sentence ") and ": dead end at position" in line]
    expected = 1 if ref.dead else 0
    if code != expected:
        raise CheckFailed(f"exit code {code}, expected {expected}: {stderr[-400:]!r}")
    if reported != ref.dead:
        raise CheckFailed(f"CLI reported dead ends {reported[:10]}, "
                          f"library {ref.dead[:10]}")


def check_tagged(path, inputs: Inputs, ref: Reference):
    """The CLI's labels equal the library's, sentence for sentence."""
    from pmctag.conll import read_records
    from pmctag.errors import FormatError

    expected = [[[w, label] for w, label in zip(words, result.labels)]
                for words, result in zip(inputs.test_words, ref.results)
                if result is not None]
    try:
        with open(path, encoding="utf-8") as fh:
            got = read_records(fh)
    except (OSError, FormatError) as exc:
        raise CheckFailed(f"tagged output unreadable: {exc}") from exc
    if len(got) != len(expected):
        raise CheckFailed(f"tagged {len(got)} sentences, expected {len(expected)}")
    for idx, (g, e) in enumerate(zip(got, expected)):
        if g != e:
            raise CheckFailed(f"tagged sentence {idx} differs from decode_sentence")


def check_report(path, inputs: Inputs, ref: Reference):
    """Report counts match the generated corpus; scores match the library."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckFailed(f"report unreadable: {exc}") from exc
    rows = dict(line.partition("\t")[::2] for line in lines)
    dead = set(ref.dead)
    decoded = [s for i, s in enumerate(inputs.test) if i not in dead]
    report = ref.report
    expected = {
        "sentences": str(len(decoded)),
        "tokens": str(n_tokens(decoded)),
        "failed-sentences": str(len(dead)),
        "overall-error": f"{report.overall_error:.6f}",
        "f1": f"{report.f1:.6f}",
    }
    rows.setdefault("failed-sentences", "0")  # the report omits a zero
    for key, value in expected.items():
        if rows.get(key) != value:
            raise CheckFailed(f"report {key} is {rows.get(key)!r}, expected {value!r}")


def check_trained_model(model, inputs: Inputs):
    """The trained counts account for every generated sentence and token."""
    sentences = inputs.train + inputs.extra
    counts = model.counts
    words = {w for s in sentences for w, _ in s}
    labels = {t for s in sentences for _, t in s}
    problems = []
    if counts.L != len(sentences) or int(counts.n0_i.sum()) != len(sentences):
        problems.append(f"chains {counts.L} for {len(sentences)} sentences")
    if sum(counts.n_ikjl.values()) != n_tokens(sentences) - len(sentences):
        problems.append("pattern total does not match the token count")
    if set(model.vocabulary) != words or set(model.alphabet) != labels:
        problems.append("vocabulary or label set differs from the corpus")
    if problems:
        raise CheckFailed("; ".join(problems))


def check_outputs(wl: Workload, inputs: Inputs, ref: Reference, code, stderr):
    if wl.command == "train":
        if code != 0:
            raise CheckFailed(f"train exited {code}: {stderr[-400:]!r}")
        return
    check_exit(code, stderr, ref)
    if wl.command == "tag":
        check_tagged(inputs.path("tagged.txt"), inputs, ref)
    else:
        check_report(inputs.path("report.kv"), inputs, ref)


# ------------------------------------------------------------- the runs

@dataclass
class ChildRun:
    code: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def run_child(argv: list[str], work: Path) -> ChildRun:
    """One CLI process, started through spawn.py so that its peak RSS is its own.

    os.wait4 in spawn.py gives this child's rusage; RUSAGE_CHILDREN would
    report the largest child so far instead of this one.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    err_path = work / "child.stderr"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "spawn.py"), str(work / "child.stdout"),
         str(err_path), "--", sys.executable, "-m", "pmctag.cli", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.terminate()  # spawn.py kills and waits for the CLI child
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py exited {proc.returncode}")
    report = json.loads(out.splitlines()[-1])
    # ru_maxrss is in KiB on Linux
    return ChildRun(report["code"], report["wall_s"], report["maxrss_kb"] / 1024,
                    err_path.read_text(encoding="utf-8"))


def run_in_process(argv: list[str]):
    """pmctag.cli.main in this process; returns (exit code, stderr text)."""
    import pmctag.cli
    err = StringIO()
    with redirect_stderr(err), redirect_stdout(StringIO()):
        code = pmctag.cli.main(argv)
    return code, err.getvalue()


def percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


class Run:
    def __init__(self, wl: Workload, seed: int, seconds: float, scale: float):
        self.wl, self.seed, self.seconds, self.scale = wl, seed, seconds, scale
        self.work = WORK / wl.name
        self.attempted = 0   # CLI invocations
        self.failed = 0      # CLI invocations whose outputs failed a check
        self.failures: list[str] = []
        self.lines: list[str] = [f"workload {wl.name} seed {seed}"]
        self.samples: dict[str, list] = {}
        self.host = HostSpeed()

    def timed(self, step):
        """Run step() between two host-speed bursts; return its result and (start, end)."""
        self.host.burst(BURST_S)
        start = time.perf_counter()
        result = step()
        end = time.perf_counter()
        self.host.burst(BURST_S)
        return result, (start, end)

    def factor(self, span) -> float:
        """Host factor of a step timed by timed(), from the samples near it."""
        return self.host.factor(*span, MARGIN_S)

    def check(self, fn, *args) -> bool:
        try:
            fn(*args)
        except CheckFailed as exc:
            self.fail(str(exc))
            return False
        return True

    def fail(self, message):
        self.failures.append(message)
        self.lines.append(f"check failed: {message}")

    def cli_ran(self, inputs, ref, code, stderr):
        self.attempted += 1
        self.failed += not self.check(check_outputs, self.wl, inputs, ref, code, stderr)

    def set_up(self, repeats: int):
        """Set up `repeats` times; returns the inputs and each set-up's (start, end)."""
        if self.work.exists():
            shutil.rmtree(self.work)
        times, hashes, inputs = [], None, None
        for _ in range(repeats):
            self.work.mkdir(parents=True)
            inputs, span = self.timed(
                lambda: set_up(self.wl, self.seed, self.scale, self.work))
            times.append(span)
            if hashes is not None and inputs.hashes != hashes:
                self.fail("set-up outputs differ between repetitions")
            hashes = inputs.hashes
            if len(times) < repeats:
                shutil.rmtree(self.work)
        for name, digest in sorted(hashes.items()):
            self.lines.append(f"input {name} sha256 {digest}")
        return inputs, times

    def reference(self, inputs: Inputs) -> Reference:
        model_name = "trained.pmc" if self.wl.command == "train" else "model.pmc"
        ref = decode_reference(self.wl, inputs, inputs.path(model_name), self.host)
        if self.wl.command == "train":
            self.check(check_trained_model, ref.model, inputs)
        return ref

    def end_to_end(self) -> dict[str, float]:
        """Times are scaled to nominal host speed (hostspeed.py); raw ones are printed."""
        wl = self.wl
        inputs, setup_spans = self.set_up(SETUP_REPEATS)
        argv = cli_args(wl, inputs)
        tokens = input_tokens(wl, inputs)
        latency_words = inputs.test_words[:LATENCY_SENTENCES]
        children: list[tuple[ChildRun, tuple[float, float]]] = []
        passes: list[tuple[list[float], list[float]]] = []  # (latencies, factors)
        model_hashes = set()

        def reference():
            ref = self.reference(inputs)
            passes.append((ref.latencies[:LATENCY_SENTENCES],
                           ref.factors[:LATENCY_SENTENCES]))
            return ref

        def timed_pass():
            _, latencies, factors = decode_pass(ref.model, latency_words,
                                                wl.decoder, self.host)
            passes.append((latencies, factors))

        # A library decode pass follows every second CLI run, so that both
        # sample the whole measuring window rather than one stretch of it
        # and most of the window goes to CLI runs. The reference decode,
        # which the checks need, is the first pass.
        ref = None if wl.command == "train" else reference()
        deadline = time.perf_counter() + self.seconds
        while len(children) < MIN_CLI_RUNS or time.perf_counter() < deadline:
            clear_outputs(inputs)
            child, span = self.timed(lambda: run_child(argv, self.work))
            children.append((child, span))
            self.cli_ran(inputs, ref, child.code, child.stderr)
            if wl.command == "train":
                model_hashes.add(sha256_file(inputs.path("trained.pmc")))
            if ref is None:
                ref = reference()
            elif len(children) % 2 == 0:
                timed_pass()
        while len(passes) < MIN_DECODE_PASSES:
            timed_pass()
        if len(model_hashes) > 1:
            self.fail("trained model files differ between runs")
        for digest in model_hashes:
            self.lines.append(f"output trained.pmc sha256 {digest}")

        model_path = inputs.path("trained.pmc" if wl.command == "train" else "model.pmc")
        # a sentence's latency is the median of its scaled calls over the
        # passes, so a burst of load that slows one pass does not become
        # the tail
        latencies_ms = [statistics.median(calls) * 1e3 for calls in
                        zip(*([t * f for t, f in zip(*p)] for p in passes))]
        raw_p50_ms = statistics.median(
            statistics.median(calls) * 1e3 for calls in zip(*(p[0] for p in passes)))
        walls = [child.wall_s for child, _ in children]
        child_factors = [self.factor(span) for _, span in children]
        setup_walls = [end - start for start, end in setup_spans]
        setup_factors = [self.factor(span) for span in setup_spans]
        self.samples = {"child_wall_s": walls, "child_factor": child_factors,
                        "setup_wall_s": setup_walls, "setup_factor": setup_factors,
                        "latency_passes_s_factor": passes}
        dead = len(ref.dead)
        metrics = {
            "tokens_per_s": statistics.median(
                tokens / (w * f) for w, f in zip(walls, child_factors)),
            "setup_s": statistics.median(
                t * f for t, f in zip(setup_walls, setup_factors)),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c, _ in children),
            "model_bytes": model_path.stat().st_size,
            "sentence_p50_ms": statistics.median(latencies_ms),
            "sentence_p99_ms": percentile(latencies_ms, 0.99),
            "token_error": ref.report.overall_error,
            "span_f1": ref.report.f1,
            "decoded_share": 1 - dead / len(ref.results),
        }

        def rounded(values):
            return [round(v, 3) for v in values]

        self.lines += [
            f"cli runs {len(children)} of {tokens} input tokens; "
            f"wall s {rounded(walls)}; host factor {rounded(child_factors)}",
            f"setup repeats {len(setup_walls)}; wall s {rounded(setup_walls)}; "
            f"host factor {rounded(setup_factors)}",
            f"latency samples {len(latencies_ms)} sentences, each the median "
            f"of {len(passes)} decode_sentence calls",
            f"raw (unscaled) tokens_per_s {statistics.median(tokens / w for w in walls)} "
            f"tok/s, setup_s {statistics.median(setup_walls)} s, "
            f"sentence_p50_ms {raw_p50_ms} ms",
            f"failed_share {dead / len(ref.results):.6f} share "
            f"({dead} dead-end sentences of {len(ref.results)})",
        ]
        return metrics

    def per_layer(self) -> dict[str, float]:
        from pmctag.features import backoff_level
        from pmctag.inference import HMC_STEP
        from tracing import Tracer, traced

        wl = self.wl
        inputs, _ = self.set_up(1)
        argv = cli_args(wl, inputs)
        ref = None if wl.command == "train" else self.reference(inputs)

        untraced, traced_times, summaries = [], [], []
        tracer = None

        def untraced_run():
            clear_outputs(inputs)
            t0 = time.perf_counter()
            code, stderr = run_in_process(argv)
            untraced.append(time.perf_counter() - t0)
            self.cli_ran(inputs, ref, code, stderr)

        def traced_run():
            nonlocal tracer
            clear_outputs(inputs)
            tracer = Tracer()
            t0 = time.perf_counter()
            with traced(tracer), tracer.span("cli.main"):
                code, stderr = run_in_process(argv)
            traced_times.append(time.perf_counter() - t0)
            self.cli_ran(inputs, ref, code, stderr)
            summaries.append(tracer.summary())

        # alternate which of the pair goes first, so warm-up and drift
        # do not land on one side of the overhead
        deadline = time.perf_counter() + self.seconds
        while len(traced_times) < MIN_CLI_RUNS or time.perf_counter() < deadline:
            pair = (untraced_run, traced_run)
            for step in pair if len(traced_times) % 2 == 0 else reversed(pair):
                step()
        tracer.write(self.work / "trace.json")

        metrics = {}
        for name, row in summaries[-1].items():
            metrics[f"{name}_s"] = statistics.median(s[name]["self_s"] for s in summaries)
            metrics[f"{name}_calls"] = row["calls"]
            metrics[f"{name}_errors"] = row["errors"]
        counts = [{n: (r["calls"], r["errors"]) for n, r in s.items()} for s in summaries]
        if any(c != counts[0] for c in counts):
            self.fail("span calls or errors differ between traced runs")

        flags = [f for sentence in tracer.decode_flags for f in sentence]
        downgrades = flags.count(HMC_STEP)
        metrics.update({
            "serialize.bytes": tracer.serialized_bytes,
            "inference.resolutions": len(flags),
            "inference.downgrades": downgrades,
            "inference.downgrade_rate": downgrades / len(flags) if flags else 0.0,
            "inference.dead_ends": metrics["inference.decode_sentence_errors"],
        })
        levels = [0] * SUFFIX_LEVELS
        oov = 0
        if ref is not None:
            if metrics["inference.dead_ends"] != len(ref.dead):
                self.fail("traced dead ends differ from the library's")
            lib_flags = [f for r in ref.results if r is not None for f in r.flags]
            if lib_flags != flags:
                self.fail("traced downgrade flags differ from the library's")
            features = ref.model.features
            for words in inputs.test_words:
                for word in words:
                    if word not in ref.model.vocabulary:
                        oov += 1
                        levels[backoff_level(features, word)] += 1
        metrics["features.oov_tokens"] = oov
        for m, count in enumerate(levels):
            metrics[f"features.backoff_level_{m}"] = count

        base = statistics.median(untraced)
        with_tracing = statistics.median(traced_times)
        metrics.update({
            "trace.untraced_s": base,
            "trace.traced_s": with_tracing,
            "trace.overhead_s": with_tracing - base,
            "trace.overhead_share": (with_tracing - base) / base,
        })
        self.lines += [
            f"traced runs {len(traced_times)}; spans in the last {len(tracer.spans)}",
            f"trace written to {(self.work / 'trace.json').relative_to(ROOT)}",
        ]
        return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement time; at least 4 CLI runs are always made")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiplies every corpus size (smoke tests use 0.02)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pmctag" / "cli.py").is_file():
        print(f"error: no pmctag sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    # one CPU for this process and every child, so that the host-speed
    # samples come from the CPU the timed work runs on (hostspeed.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.scale)
    if args.trace:
        metrics, units = run.per_layer(), per_layer_units()
    else:
        metrics, units = run.end_to_end(), END_TO_END
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(run.work / "record.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "lines": run.lines, **result,
                   "samples": run.samples}, fh)
    for line in run.lines:
        print(line)
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
