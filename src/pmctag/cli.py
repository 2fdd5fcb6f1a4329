"""Command-line entry point: train, tag, eval and verify.

Data goes to stdout or the requested output files; diagnostics (timings,
downgrade rates, per-sentence failures) go to stderr so piped workflows
stay clean. Exit codes: 0 success, 1 runtime/decoding failure, 2 usage or
input error.

Each option is declared once, with its default, type and choices, on the
subcommand that reads it. A --config file sets defaults for the running
subcommand's optional single-value options; explicit flags still win.

train reads each corpus once, a block of whole sentences at a time, and
keeps only id columns of its words and tags, so a corpus may be a pipe.
Its model, and tag's output file, are written through a new file made
before any input is read, which replaces the old one only at the end
(see _new_file). tag and eval first check their whole input, so that a
bad line exits 2 before anything is written, and then read, decode and
write or score it one window of whole sentences at a time, so that their
memory does not grow with the input; the input must therefore be a
regular file, but it may be tag's output file. eval adds up the integer
tallies of the windows and formats its report once, at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import reprlib
import stat
import sys
import time
from collections import Counter
from itertools import compress

import numpy as np

from . import evaluation, inference, oracle, training
from .conll import (LabeledCorpus, apply_mapping, mark_known, read_conll,
                    read_records, read_tag_mapping, windows, write_conll)
from .errors import DeadEnd, FormatError, PmctagError
from .evaluation import evaluate_predictions, format_report_kv, format_report_text
from .model import ModelBundle
from .serialize import load_model, model_stats, save_model
from .training import TrainConfig
from .training import train_model, update_online  # noqa: F401 - perfbench/tracing.py wraps them here

# verify checks an instance in about 0.6 ms on a 2-vCPU Xeon host, so
# this bound keeps a run to about a minute
MAX_INSTANCES = 100_000

# tag and eval read, decode and write their input one window of whole
# sentences at a time, so that memory does not grow with the input; a
# window ends at the first sentence end after this many token lines
WINDOW_TOKENS = 2048


def _diag(msg):
    print(msg, file=sys.stderr)


def _add_corpus_options(p, with_tag=True):
    p.add_argument("--word-column", type=int, default=0,
                   help="0-based column of the word (default %(default)s)")
    if with_tag:
        p.add_argument("--tag-column", type=int, default=1,
                       help="0-based column of the tag (default %(default)s)")
        p.add_argument("--mapping", default=None,
                       help="tag mapping file of 'source target' lines")
    p.add_argument("--skip-pattern", default=None,
                   help="drop token lines whose word fully matches this regex")
    p.add_argument("--comment-prefix", default=None,
                   help="drop lines starting with this prefix")


def _add_decode_options(p):
    p.add_argument("--mode", choices=inference.MODES, default="pmc")
    p.add_argument("--decoder", choices=inference.DECODERS, default="mpm")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pmctag",
        description="Markov chain sequence labeling: POS tagging, chunking, NER.")
    parser.add_argument("--config", default=None,
                        help="JSON defaults for the subcommand's options; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a labeled corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--task", choices=training.TASKS, default="pos")
    p.add_argument("--suffix-max-len", type=int, default=3)
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
    p.add_argument("--instances", type=int, default=200,
                   help=f"at least 1 and at most {MAX_INSTANCES}")
    p.add_argument("--seed", type=int, default=12345)
    return parser


def _subparser(parser, command) -> argparse.ArgumentParser:
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _config_options(subparser) -> dict[str, argparse.Action]:
    """The options a config file can set for one subcommand, by dest: its
    optional options that take a single value."""
    return {a.dest: a for a in subparser._actions
            if type(a) is argparse._StoreAction and not a.required}


TYPE_NAMES = {int: "an int", str: "a string"}


def _shown(value) -> str:
    """At most the first 40 characters of a value's repr, for an error
    message; reprlib bounds the work on deeply nested or long values."""
    text = reprlib.repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


# A valid config is one flat object, so this limit loses nothing. Deeper
# text is refused before json parses it: the decoder recurses once per
# level, and its RecursionError would depend on the frames above it.
MAX_CONFIG_DEPTH = 32
# A string token, which may run unterminated to the end of the text, or
# one bracket. Each quote's token ends at its closing quote or at the end
# of the text, so one pass over the text tokenizes it.
_CONFIG_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[\]{}]')


def _nested_too_deeply(text) -> bool:
    """Whether JSON text nests brackets, outside strings, deeper than MAX_CONFIG_DEPTH."""
    depth = 0
    for token in _CONFIG_TOKEN.findall(text):
        if token[0] == '"':
            continue
        depth += 1 if token in "[{" else -1
        if depth > MAX_CONFIG_DEPTH:
            return True
    return False


def _read_config(path, options) -> dict:
    """Option defaults from a JSON object.

    Each key names one of `options` (see _config_options), and its value
    has that option's type (int or str) and is one of its choices.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if _nested_too_deeply(text):
        raise FormatError(f"config {path}: nested deeper than {MAX_CONFIG_DEPTH} levels")
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"config {path}: {exc.msg}", line=exc.lineno) from None
    if not isinstance(loaded, dict):
        raise FormatError(f"config {path}: expected a JSON object")
    config = {}
    for key, value in loaded.items():
        key = key.replace("-", "_")
        if key not in options:
            raise FormatError(f"config {path}: unknown key {key!r}")
        expected = options[key].type or str
        if type(value) is not expected:
            raise FormatError(f"config {path}: {key} must be {TYPE_NAMES[expected]}, "
                              f"not {_shown(value)}")
        choices = options[key].choices
        if choices and value not in choices:
            raise FormatError(f"config {path}: {key} must be one of "
                              f"{', '.join(choices)}, not {_shown(value)}")
        config[key] = value
    return config


def _parse(parser, argv) -> argparse.Namespace:
    """The parsed command line; a --config file's values become defaults of
    the running subcommand, so that explicit flags still win."""
    args = parser.parse_args(argv)
    if args.config:
        subparser = _subparser(parser, args.command)
        subparser.set_defaults(**_read_config(args.config, _config_options(subparser)))
        args = parser.parse_args(argv)
    return args


def _read_mapping(opts):
    if not opts.mapping:
        return None
    with open(opts.mapping, encoding="utf-8") as fh:
        return read_tag_mapping(fh)


def _read_corpus(opts, path) -> LabeledCorpus:
    with open(path, encoding="utf-8") as fh:
        corpus = read_conll(fh, word_column=opts.word_column,
                            tag_column=opts.tag_column,
                            skip_pattern=opts.skip_pattern,
                            comment_prefix=opts.comment_prefix)
    mapping = _read_mapping(opts)
    return corpus if mapping is None else apply_mapping(corpus, mapping)


def _decode_corpus(model: ModelBundle, sentences, opts, start=0) -> list:
    """Decode word sequences in order: one DecodeResult per sentence, or
    for a failed one its DeadEnd, whose sentence_index counts from `start`."""
    results = []
    for idx, words in enumerate(sentences, start):
        try:
            results.append(inference.decode_sentence(
                model, words, mode=opts.mode, decoder=opts.decoder))
        except DeadEnd as exc:
            results.append(DeadEnd(exc.position, sentence_index=idx))
    return results


def _tally_results(results, what):
    """Report each dead end on stderr, saying `what` became of its sentence.

    Returns the mask of decoded sentences and the report fields that tally
    their downgrades and the dead ends.
    """
    done = []
    for result in results:
        done.append(not isinstance(result, DeadEnd))
        if not done[-1]:
            _diag(f"sentence {result.sentence_index}: dead end at position "
                  f"{result.position}; {what}")
    decoded = list(compress(results, done))
    return done, {"downgrades": sum(r.downgraded for r in decoded),
                  "resolutions": sum(r.resolutions for r in decoded),
                  "failed_sentences": len(results) - len(decoded)}


@contextlib.contextmanager
def _new_file(path):
    """The path to write the output file `path` at; None when `path` is.

    A regular file, or a path that names no file yet, is written through a
    new file beside it. That file is made at once, so an unwritable path
    fails before any input is read; it takes the old file's permissions,
    and replaces it once the block has ended without an exception (it is
    removed otherwise). So the output may be an input file, and a failed
    command leaves an earlier output as it was. Any other kind of file,
    such as /dev/null, is written in place.
    """
    if path is None:
        yield None
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        yield target
        return
    if mode is not None:
        open(target, "a").close()  # raises, as "w" would, when the file is read-only
    head, tail = os.path.split(target)
    new = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    open(new, "x").close()
    try:
        if mode is not None:
            os.chmod(new, stat.S_IMODE(mode))
        yield new
        os.replace(new, target)
    except BaseException:
        os.unlink(new)
        raise


def cmd_train(opts) -> int:
    config = TrainConfig(task=opts.task, suffix_max_len=opts.suffix_max_len)
    with _new_file(opts.model) as path:
        t0 = time.perf_counter()
        # each corpus's counts are folded into the tally, and its id columns
        # freed, before the next one is read; the tables are derived once
        tally = None
        for corpus in (opts.corpus, *opts.extra_corpus):
            tally = training.accumulate_counts(_read_corpus(opts, corpus), base=tally)
        counts, alphabet, vocabulary = tally
        model = training.bundle_from_counts(alphabet, vocabulary, counts, config.task,
                                            config.suffix_max_len)
        elapsed = time.perf_counter() - t0
        size = save_model(model, path)
    _diag(f"trained in {elapsed:.3f}s")
    _diag(model_stats(model).rstrip("\n"))
    _diag(f"model-bytes {size}")
    return 0


def cmd_tag(opts) -> int:
    model = load_model(opts.model)
    options = dict(word_column=opts.word_column, skip_pattern=opts.skip_pattern,
                   comment_prefix=opts.comment_prefix)
    tally = Counter()
    with open(opts.input, encoding="utf-8") as fh:
        parts = windows(fh, WINDOW_TOKENS, **options)
        with _new_file(opts.output) as path, (open(path, "w", encoding="utf-8") if path
                                              else contextlib.nullcontext(sys.stdout)) as out:
            for window in parts:
                records = read_records(window, **options)
                sentences = [[cols[opts.word_column] for cols in sent] for sent in records]
                results = _decode_corpus(model, sentences, opts, tally["sentences"])
                done, fields = _tally_results(results, "skipped")
                tagged = list(compress(records, done))
                for sent, result in zip(tagged, compress(results, done)):
                    for cols, label in zip(sent, result.labels):
                        cols.append(label)
                write_conll(tagged, out)
                tally.update(fields, sentences=len(records))
    if tally["resolutions"]:
        _diag(f"downgrade-rate {tally['downgrades'] / tally['resolutions']:.6f}")
    return 1 if tally["failed_sentences"] else 0


def cmd_eval(opts) -> int:
    model = load_model(opts.model)
    mapping = _read_mapping(opts)
    options = dict(word_column=opts.word_column, tag_column=opts.tag_column,
                   skip_pattern=opts.skip_pattern, comment_prefix=opts.comment_prefix)
    report, decode_time, start = None, 0.0, 0
    with open(opts.corpus, encoding="utf-8") as fh:
        for window in windows(fh, WINDOW_TOKENS, mapping=mapping, **options):
            corpus = read_conll(window, **options)
            if mapping is not None:
                corpus = apply_mapping(corpus, mapping)
            known_bits = mark_known(corpus, model.vocabulary)
            t0 = time.perf_counter()
            results = _decode_corpus(model, corpus.per_sentence(corpus.words), opts, start)
            decode_time += time.perf_counter() - t0
            start += len(results)
            done, fields = _tally_results(results, "excluded from metrics")
            part = evaluate_predictions(
                list(compress(corpus.per_sentence(corpus.tags), done)),
                [r.labels for r in compress(results, done)],
                list(compress(known_bits, done)),
                task=model.task, scheme=opts.scheme, mode=opts.mode,
                decoder=opts.decoder, **fields)
            report = part if report is None else report + part
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
    return 1 if report.failed_sentences else 0


def cmd_verify(opts) -> int:
    if not 1 <= opts.instances <= MAX_INSTANCES:
        bound = "at least 1" if opts.instances < 1 else f"at most {MAX_INSTANCES}"
        raise FormatError(f"instances must be {bound}, not {_shown(opts.instances)}")
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
    try:
        args = _parse(parser, argv)
        return COMMANDS[args.command](args)
    except DeadEnd as exc:
        _diag(f"error: {exc}")
        return 1
    except INPUT_ERRORS as exc:
        _diag(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
