#!/usr/bin/env python3
"""In-process A/B timing of the decoders and readers of two pmctag source trees.

Run from the repository root, with the src/ of another checkout as A:

    python3 scripts/ab_decode.py OTHER/src src --workload tag-mpm --seed 1 --rounds 15
    python3 scripts/ab_decode.py OTHER/src src --workload train-online

Each tree is a directory that holds a pmctag package; the two are
imported side by side as the packages pmctag_a and pmctag_b. The
workload's training and test sentences are drawn by perfbench/synth.py
with the sizes and seed streams of perfbench/run.py, and each side trains
its own model from them and reloads it from its model bytes, as the CLI
does. Nothing is written to disk.

Each round decodes every test sentence on both sides in two ways: one
decode_sentence call per sentence ("direct"), and cli._decode_corpus with
each chunk of CHUNK sentences as one window ("windows"). The sides
alternate per chunk, and the side that starts alternates per round, so a
drift in the host's speed meets both. A round's time for one side and
way is the sum over its chunks. A third way ("read") times each side's
conll.windows over the workload's CLI input text, held in memory, and
read_records (tag-mpm) or read_conll (eval-map-oov) of each window, as
the CLI reads it; the side that starts alternates per round. train-online
decodes nothing, so "read" is its one way: each side reads the training
and extra texts with conll.read_conll over a stream, as train reads its
corpora, and no model is trained. The script prints, per way, both sides'
median round times, their quartiles and the ratio B / A of the medians.

Last it prints each side's output digest, a sha256 over every test
sentence decoded in both modes with both decoders: the flags, then the
posterior bytes (MPM) or the labels and the log score (MAP), or the
dead-end position. Equal digests mean byte-identical outputs. The read
digest of each side is a sha256 over each of its parsed sentences,
whatever window holds it, so two trees that cut the text into other
windows agree; for train-online it covers each corpus's items, id
columns and sentence lengths.
The script exits with status 1, after printing everything, when the two
sides' digests or read digests differ, and with 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or the trees
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run as bench  # noqa: E402
from synth import conll_text, make_rng, sample_sentences  # noqa: E402

CHUNK = 100  # sentences per chunk, and per window of cli._decode_corpus


def import_tree(src, name):
    """The pmctag package under src, imported as the package `name`."""
    package = Path(src).resolve() / "pmctag"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{part: importlib.import_module(f"{name}.{part}")
                              for part in ("cli", "conll", "errors", "inference",
                                           "serialize", "training")})


def load_side(pkg, wl, train):
    """The side's model of the workload, trained and reloaded from its bytes."""
    model = pkg.training.train_model(pkg.conll.LabeledCorpus(train),
                                     pkg.training.TrainConfig(task=wl.task))
    return pkg.serialize.deserialize_model(pkg.serialize.serialize_model(model))


def direct(pkg, model, chunk, wl):
    for words in chunk:
        try:
            pkg.inference.decode_sentence(model, words, decoder=wl.decoder)
        except pkg.errors.DeadEnd:
            pass


def windows(pkg, model, chunk, wl):
    words = [w for sentence in chunk for w in sentence]
    opts = SimpleNamespace(mode="pmc", decoder=wl.decoder)
    pkg.cli._decode_corpus(model, words, list(map(len, chunk)), opts)


def read(pkg, model, text, wl) -> list:
    """Each window of the text, parsed as the CLI's tag or eval parses it, or
    for train-online each of the texts, read as train reads a corpus."""
    conll = pkg.conll
    if wl.command == "train":
        return [conll.read_conll(io.StringIO(corpus)) for corpus in text]
    # trees older than conll.WINDOW_LINES kept the CLI's window as cli.WINDOW_TOKENS
    budget = getattr(conll, "WINDOW_LINES", None) or pkg.cli.WINDOW_TOKENS
    if wl.command == "tag":
        return [conll.read_records(w) for w in conll.windows(io.StringIO(text), budget)]
    return [conll.read_conll(w, tag_column=1)
            for w in conll.windows(io.StringIO(text), budget, tag_column=1)]


def read_digest(pkg, text, wl) -> str:
    """sha256 over each sentence the side parses from the text, whatever its
    window, or over the items, id columns and lengths of every corpus it reads."""
    h = hashlib.sha256()
    for parsed in read(pkg, None, text, wl):
        if wl.command == "train":
            h.update(repr((parsed.word_items, parsed.tag_items)).encode())
            for column in (parsed.word_ids, parsed.tag_ids, parsed.lengths):
                h.update(column.tobytes())
        else:
            for sentence in parsed if wl.command == "tag" else parsed.sentences:
                h.update(repr(sentence).encode())
    return h.hexdigest()


def digest(pkg, model, sentences) -> str:
    """sha256 over every sentence's outputs in both modes with both decoders."""
    inference, h = pkg.inference, hashlib.sha256()
    for words in sentences:
        for mode in ("pmc", "hmc"):
            for decoder in ("mpm", "map"):
                factors = inference.resolve_factors(model, words, mode, decoder)
                h.update(repr(factors.flags).encode())
                try:
                    if decoder == "mpm":
                        h.update(inference.posterior_marginals(factors).tobytes())
                    else:
                        path, score = inference.map_path(factors)
                        h.update(repr((path.tolist(), score)).encode())
                except pkg.errors.DeadEnd as exc:
                    h.update(f"dead {exc.position}".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree_a", help="directory holding the pmctag package of side A")
    p.add_argument("tree_b", help="directory holding the pmctag package of side B")
    p.add_argument("--workload", required=True,
                   choices=["tag-mpm", "eval-map-oov", "train-online"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=15)
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("--rounds must be at least 2, to give quartiles")

    wl = bench.WORKLOADS[args.workload]
    decodes = wl.command != "train"
    train = sample_sentences(wl.world, make_rng(args.seed, "train"), wl.train)
    test = sample_sentences(wl.world, make_rng(args.seed, "test"), wl.test, wl.oov_share)
    sentences = [[w for w, _ in sentence] for sentence in test]
    chunks = [sentences[i:i + CHUNK] for i in range(0, len(sentences), CHUNK)]
    sides = {}
    for label, tree in (("A", args.tree_a), ("B", args.tree_b)):
        pkg = import_tree(tree, f"pmctag_{label.lower()}")
        sides[label] = pkg, load_side(pkg, wl, train) if decodes else None

    # the CLI's input text: train reads its corpora, tag the words alone, eval
    # the word and tag columns
    if not decodes:
        extra = sample_sentences(wl.world, make_rng(args.seed, "extra"), wl.extra)
        text = [conll_text(train), conll_text(extra)]
    elif wl.command == "tag":
        text = "".join("".join(f"{w}\n" for w in words) + "\n" for words in sentences)
    else:
        text = conll_text(test)
    # each way with the units it times, alternating the sides per unit
    ways = {"direct": (direct, chunks), "windows": (windows, chunks)} if decodes else {}
    ways["read"] = (read, [text])
    times = {(way, label): [] for way in ways for label in sides}
    for way, (call, units) in ways.items():  # one untimed pass, to warm both sides
        for pkg, model in sides.values():
            call(pkg, model, units[0], wl)
    for r in range(args.rounds):
        order = ["A", "B"] if r % 2 == 0 else ["B", "A"]
        for way, (call, units) in ways.items():
            total = dict.fromkeys(sides, 0.0)
            for unit in units:
                for label in order:
                    pkg, model = sides[label]
                    t0 = time.perf_counter()
                    call(pkg, model, unit, wl)
                    total[label] += time.perf_counter() - t0
            for label, seconds in total.items():
                times[way, label].append(seconds)

    read_sentences = len(sentences) if decodes else len(train) + len(extra)
    print(f"workload {args.workload}  seed {args.seed}  rounds {args.rounds}  "
          f"sentences {read_sentences}  chunk {CHUNK}")
    for way in ways:
        medians = {}
        for label in sides:
            q1, medians[label], q3 = statistics.quantiles(times[way, label], n=4)
            print(f"{way:8s} {label}: median {medians[label]:.4f} s  "
                  f"quartiles {q1:.4f}-{q3:.4f} s")
        print(f"{way:8s} B / A: {medians['B'] / medians['A']:.3f}")
    digests = {}
    for label, (pkg, model) in sides.items() if decodes else ():
        digests["digest", label] = digest(pkg, model, sentences)
    for label, (pkg, _) in sides.items():
        digests["read digest", label] = read_digest(pkg, text, wl)
    for (kind, label), value in digests.items():
        print(f"{kind} {label}: {value}")
    return int(any(value != digests[kind, "A"] for (kind, _), value in digests.items()))


if __name__ == "__main__":
    sys.exit(main())
