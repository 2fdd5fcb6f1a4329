"""Command-line entry point: train, tag, eval and verify.

Data goes to stdout or the requested output files; diagnostics (timings,
downgrade rates, per-sentence failures) go to stderr so piped workflows
stay clean. Exit codes: 0 success, 1 runtime/decoding failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import evaluation, inference, oracle, training
from .conll import (LabeledCorpus, apply_mapping, mark_known, read_conll,
                    read_records, read_tag_mapping, write_conll)
from .errors import DeadEnd, FormatError, PmctagError
from .evaluation import evaluate_predictions, format_report_kv, format_report_text
from .model import ModelBundle
from .serialize import load_model, model_stats, save_model
from .training import TrainConfig
from .training import train_model, update_online  # noqa: F401 - perfbench/tracing.py wraps them here

DEFAULTS = {
    "task": "pos",
    "mode": "pmc",
    "decoder": "mpm",
    "word_column": 0,
    "tag_column": 1,
    "suffix_max_len": 3,
    "instances": 200,
    "seed": 12345,
}


def _diag(msg):
    print(msg, file=sys.stderr)


def _add_corpus_options(p, with_tag=True):
    p.add_argument("--word-column", type=int, default=None,
                   help="0-based column of the word (default 0)")
    if with_tag:
        p.add_argument("--tag-column", type=int, default=None,
                       help="0-based column of the tag (default 1)")
    p.add_argument("--mapping", default=None,
                   help="tag mapping file of 'source target' lines")
    p.add_argument("--skip-pattern", default=None,
                   help="drop token lines whose word fully matches this regex")
    p.add_argument("--comment-prefix", default=None,
                   help="drop lines starting with this prefix")


def _add_decode_options(p):
    p.add_argument("--mode", choices=inference.MODES, default=None)
    p.add_argument("--decoder", choices=inference.DECODERS, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pmctag",
        description="Markov chain sequence labeling: POS tagging, chunking, NER.")
    parser.add_argument("--config", default=None,
                        help="JSON file of option defaults; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a labeled corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--task", choices=("pos", "chunk", "ner"), default=None)
    p.add_argument("--suffix-max-len", type=int, default=None)
    p.add_argument("--extra-corpus", action="append", default=[],
                   help="additional corpus folded in via an online update")
    _add_corpus_options(p)

    p = sub.add_parser("tag", help="append a predicted label column")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="default: stdout")
    _add_corpus_options(p, with_tag=False)
    _add_decode_options(p)

    p = sub.add_parser("eval", help="score a model against a gold corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--scheme", choices=evaluation.SCHEMES, default=None,
                   help="span scheme; defaults by task (chunk/ner: bio)")
    p.add_argument("--report-text", default=None, help="default: stdout")
    p.add_argument("--report-kv", default=None)
    _add_corpus_options(p)
    _add_decode_options(p)

    p = sub.add_parser("verify", help="check inference against enumeration")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _options(parser, command) -> list[argparse.Action]:
    """The option actions of one subcommand."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.option_strings]


def _read_config(path, options) -> dict:
    """Option defaults from a JSON object.

    A key either has a DEFAULTS entry and keeps its type, or names a plain
    string option of the subcommand (one of `options`) and holds a string;
    any other key is rejected. A value for an option with choices must be
    one of them.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config {path}: {exc.msg}", line=exc.lineno) from None
        except RecursionError:  # the decoder recurses once per nesting level
            raise FormatError(f"config {path}: nested too deeply") from None
    if not isinstance(loaded, dict):
        raise FormatError(f"config {path}: expected a JSON object")
    string_options = {a.dest for a in options
                      if a.type is None and a.default is None}
    choices = {a.dest: a.choices for a in options if a.choices}
    config = {}
    for key, value in loaded.items():
        key = key.replace("-", "_")
        if key in DEFAULTS:
            expected = type(DEFAULTS[key])
        elif key in string_options:
            expected = str
        else:
            raise FormatError(f"config {path}: unknown key {key!r}")
        if type(value) is not expected:
            raise FormatError(f"config {path}: {key} must be a "
                              f"{expected.__name__}, not {value!r}")
        if key in choices and value not in choices[key]:
            raise FormatError(f"config {path}: {key} must be one of "
                              f"{', '.join(choices[key])}, not {value!r}")
        config[key] = value
    return config


def _effective(args, parser):
    """Merge defaults, the optional config file and explicit flags."""
    merged = dict(DEFAULTS)
    if args.config:
        merged.update(_read_config(args.config, _options(parser, args.command)))
    for key, value in vars(args).items():
        if key == "config":
            continue
        if value is not None or key not in merged:
            merged[key] = value
    if merged["instances"] < 1:
        raise FormatError(f"instances must be at least 1, not {merged['instances']}")
    return argparse.Namespace(**merged)


def _read_corpus(opts, path) -> LabeledCorpus:
    with open(path, encoding="utf-8") as fh:
        corpus = read_conll(fh, word_column=opts.word_column,
                            tag_column=opts.tag_column,
                            skip_pattern=opts.skip_pattern,
                            comment_prefix=opts.comment_prefix)
    if opts.mapping:
        with open(opts.mapping, encoding="utf-8") as fh:
            corpus = apply_mapping(corpus, read_tag_mapping(fh))
    return corpus


def _decode_corpus(model: ModelBundle, sentences, opts):
    """Decode word sequences in order; returns (results, failures).

    Failed sentences carry the DeadEnd instead of a result.
    """
    results = []
    for idx, words in enumerate(sentences):
        try:
            results.append(inference.decode_sentence(
                model, words, mode=opts.mode, decoder=opts.decoder))
        except DeadEnd as exc:
            results.append(DeadEnd(exc.position, sentence_index=idx))
    failures = [r for r in results if isinstance(r, DeadEnd)]
    return results, failures


def _downgrade_rate(results):
    done = [r for r in results if not isinstance(r, DeadEnd)]
    total = sum(r.resolutions for r in done)
    if not total:
        return None
    return sum(r.downgraded for r in done) / total


def cmd_train(opts) -> int:
    config = TrainConfig(task=opts.task, suffix_max_len=opts.suffix_max_len)
    t0 = time.perf_counter()
    # each corpus's counts are folded into the tally, and the corpus freed,
    # before the next one is read; the tables are derived once, at the end
    tally = None
    for path in (opts.corpus, *opts.extra_corpus):
        tally = training.accumulate_counts(_read_corpus(opts, path), base=tally)
    counts, alphabet, vocabulary = tally
    model = training.bundle_from_counts(alphabet, vocabulary, counts, config.task,
                                        config.suffix_max_len)
    elapsed = time.perf_counter() - t0
    size = save_model(model, opts.model)
    _diag(f"trained in {elapsed:.3f}s")
    _diag(model_stats(model).rstrip("\n"))
    _diag(f"model-bytes {size}")
    return 0


def cmd_tag(opts) -> int:
    model = load_model(opts.model)
    with open(opts.input, encoding="utf-8") as fh:
        records = read_records(fh, word_column=opts.word_column,
                               skip_pattern=opts.skip_pattern,
                               comment_prefix=opts.comment_prefix)
    sentences = [[cols[opts.word_column] for cols in sent] for sent in records]
    results, failures = _decode_corpus(model, sentences, opts)
    tagged = []
    for idx, (sent, result) in enumerate(zip(records, results)):
        if isinstance(result, DeadEnd):
            _diag(f"sentence {idx}: dead end at position {result.position}; skipped")
            continue
        tagged.append([cols + [label] for cols, label in zip(sent, result.labels)])
    out = open(opts.output, "w", encoding="utf-8") if opts.output else sys.stdout
    try:
        write_conll(tagged, out)
    finally:
        if opts.output:
            out.close()
    rate = _downgrade_rate(results)
    if rate is not None:
        _diag(f"downgrade-rate {rate:.6f}")
    return 1 if failures else 0


def cmd_eval(opts) -> int:
    model = load_model(opts.model)
    corpus = _read_corpus(opts, opts.corpus)
    known_bits = mark_known(corpus, model.vocabulary)
    t0 = time.perf_counter()
    results, failures = _decode_corpus(model, corpus.per_sentence(corpus.words), opts)
    decode_time = time.perf_counter() - t0

    gold, predicted, bits = [], [], []
    for tags, result, sent_bits in zip(corpus.per_sentence(corpus.tags), results,
                                       known_bits):
        if isinstance(result, DeadEnd):
            _diag(f"sentence {result.sentence_index}: dead end at position "
                  f"{result.position}; excluded from metrics")
            continue
        gold.append(tags)
        predicted.append(result.labels)
        bits.append(sent_bits)
    report = evaluate_predictions(
        gold, predicted, bits, task=model.task, scheme=opts.scheme,
        mode=opts.mode, decoder=opts.decoder,
        downgrade_rate=_downgrade_rate(results),
        failed_sentences=len(failures),
    )
    text = format_report_text(report)
    if opts.report_text:
        with open(opts.report_text, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if opts.report_kv:
        with open(opts.report_kv, "w", encoding="utf-8") as fh:
            fh.write(format_report_kv(report))
    _diag(f"decoded {report.tokens} tokens in {decode_time:.3f}s")
    return 1 if failures else 0


def cmd_verify(opts) -> int:
    rng = np.random.default_rng(opts.seed)
    worst_post = 0.0
    worst_score = 0.0
    bad = 0
    for _ in range(opts.instances):
        inst = oracle.TinyInstance.random(rng)
        factors = inst.factors()
        post = inference.posterior_marginals(factors)
        ref = oracle.enumerate_posteriors(inst)
        dev = float(np.max(np.abs(post - ref)))
        worst_post = max(worst_post, dev)
        _, score = inference.map_path(factors)
        _, ref_score = oracle.enumerate_map(inst)
        sdev = abs(score - ref_score)
        worst_score = max(worst_score, sdev)
        if dev > 1e-9 or sdev > 1e-9:
            bad += 1
    print(f"instances {opts.instances}")
    print(f"max-posterior-deviation {worst_post:.3e}")
    print(f"max-map-score-deviation {worst_score:.3e}")
    print(f"failures {bad}")
    return 1 if bad else 0


COMMANDS = {
    "train": cmd_train,
    "tag": cmd_tag,
    "eval": cmd_eval,
    "verify": cmd_verify,
}

INPUT_ERRORS = (OSError, ValueError, PmctagError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](_effective(args, parser))
    except DeadEnd as exc:
        _diag(f"error: {exc}")
        return 1
    except INPUT_ERRORS as exc:
        _diag(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
