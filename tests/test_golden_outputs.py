"""Every output of a fixed set of CLI runs, pinned by its sha256.

The runs train every task with and without --extra-corpus at suffix
lengths 0 and 3, tag and evaluate in both modes with both decoders, and
verify at a fixed seed. Their inputs are tests/data/ and one small corpus
generated here from a fixed seed, which has unknown words, downgrades and
a dead end. Each run's exit code is kept as it is; its stdout, its stderr
with the timings masked, and every file it writes are kept as digests in
tests/golden/outputs.json.

A change that means to change outputs regenerates that file:

    PYTHONPATH=src python tests/test_golden_outputs.py

and lists each digest that changed, with the reason. The digests pin this
environment's numpy and BLAS: an exact MPM tie may fall the other way
elsewhere.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

from pmctag import cli

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.json"
TIMING = re.compile(r" in \d+\.\d+s$", re.MULTILINE)

# the generated world: label i is followed only by labels i+1 and i+2, and
# emits words of its own pool, suffixed for the back-off, or shared words
N_LABELS = 6
POOL = 12
SHARED = 8
SUFFIXES = ["", "ing", "ed", "ly", "s"]


def _sentences(rng, n, oov_share=0.0):
    sentences = []
    for _ in range(n):
        label = rng.randrange(N_LABELS)
        sent = []
        for _ in range(rng.randint(2, 8)):
            if rng.random() < oov_share:
                word = f"u{rng.randrange(1000)}{rng.choice(SUFFIXES)}"
            elif rng.random() < 0.3:
                word = f"s{rng.randrange(SHARED)}"
            else:
                k = min(int(POOL * rng.random() ** 2), POOL - 1)
                word = f"w{label}k{k}{SUFFIXES[k % len(SUFFIXES)]}"
            sent.append(f"{word} L{label}")
            label = (label + rng.choice((1, 2))) % N_LABELS
        sentences.append("\n".join(sent) + "\n\n")
    return "".join(sentences)


def generated_corpora(seed=21):
    """(train, extra, test) texts of the generated world. The test text ends
    with a sentence that no label path can explain: w0k0 is only ever
    labelled L0, w3k0 only L3, and L3 never follows L0."""
    rng = random.Random(seed)
    train, extra = _sentences(rng, 300), _sentences(rng, 60)
    test = _sentences(rng, 60, oov_share=0.15) + "w0k0 L0\nw3k0 L3\n\n"
    return train, extra, test


def _runs(d):
    """(name, argv, written files) of every run; d is the directory of the inputs."""
    runs = []
    corpora = {"pos": (DATA / "train_chunk.conll", DATA / "test_chunk.conll", "1"),
               "chunk": (DATA / "train_chunk.conll", DATA / "test_chunk.conll", "2"),
               "ner": (d / "gen_train.conll", d / "gen_extra.conll", "1")}
    for task, (corpus, extra, column) in corpora.items():
        for with_extra in (False, True):
            for suffix in ("0", "3"):
                name = f"train-{task}-suffix{suffix}" + ("-extra" if with_extra else "")
                argv = ["train", "--corpus", str(corpus), "--task", task,
                        "--tag-column", column, "--suffix-max-len", suffix,
                        "--model", str(d / f"{name}.pmc")]
                runs.append((name, argv + (["--extra-corpus", str(extra)] if with_extra
                                           else []), [f"{name}.pmc"]))
    runs.append(("train-pos-mapped", ["train", "--corpus", str(DATA / "train_chunk.conll"),
                                      "--tag-column", "1", "--mapping", str(DATA / "ptb_mini.map"),
                                      "--model", str(d / "mapped.pmc")], ["mapped.pmc"]))
    runs.append(("train-pos-comments", ["train", "--corpus", str(d / "commented.conll"),
                                        "--tag-column", "1", "--comment-prefix", "#",
                                        "--skip-pattern=-DOCSTART-",
                                        "--model", str(d / "commented.pmc")], ["commented.pmc"]))
    tests = {"chunk": ("train-chunk-suffix3.pmc", DATA / "test_chunk.conll", "2"),
             "ner": ("train-ner-suffix3.pmc", d / "gen_test.conll", "1")}
    for world, (model, corpus, column) in tests.items():
        for mode in ("pmc", "hmc"):
            for decoder in ("mpm", "map"):
                decode = ["--model", str(d / model), "--mode", mode, "--decoder", decoder]
                runs.append((f"tag-{world}-{mode}-{decoder}",
                             ["tag", "--input", str(corpus), *decode], []))
                runs.append((f"eval-{world}-{mode}-{decoder}",
                             ["eval", "--corpus", str(corpus), "--tag-column", column,
                              "--report-kv", str(d / "report.kv"), *decode], ["report.kv"]))
        for scheme in ("bio", "plain"):
            runs.append((f"eval-{world}-{scheme}",
                         ["eval", "--corpus", str(corpus), "--tag-column", column,
                          "--model", str(d / model), "--scheme", scheme,
                          "--report-text", str(d / "report.txt")], ["report.txt"]))
    runs.append(("eval-ner-suffix0",
                 ["eval", "--corpus", str(d / "gen_test.conll"),
                  "--model", str(d / "train-ner-suffix0.pmc")], []))
    runs.append(("eval-pos-mapped",
                 ["eval", "--corpus", str(DATA / "test_chunk.conll"), "--tag-column", "1",
                  "--mapping", str(DATA / "ptb_mini.map"), "--model", str(d / "mapped.pmc")],
                 []))
    runs.append(("verify", ["verify", "--instances", "20", "--seed", "7"], []))
    return runs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_outputs() -> dict:
    """Run every CLI command of _runs in this process; returns, by run name,
    the exit code and the digests of stdout, masked stderr and each file
    written."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        train, extra, test = generated_corpora()
        for name, text in (("gen_train", train), ("gen_extra", extra), ("gen_test", test)):
            (d / f"{name}.conll").write_text(text, encoding="utf-8")
        chunk = (DATA / "train_chunk.conll").read_text(encoding="utf-8")
        (d / "commented.conll").write_text(
            "-DOCSTART- -X- O\n\n# a comment\n" + chunk.replace("\n\n", "\n# end\n\n", 3),
            encoding="utf-8")
        for name, argv, files in _runs(d):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            outputs[name] = {
                "exit": code,
                "stdout": _sha256(out.getvalue().encode()),
                "stderr": _sha256(TIMING.sub(" in <s>", err.getvalue()).encode()),
                **{file: _sha256((d / file).read_bytes()) for file in files},
            }
            for file in files:
                if file.startswith("report"):
                    os.unlink(d / file)
    return outputs


def test_outputs_match_the_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_outputs()
    changed = sorted(f"{run}.{key}" for run in expected.keys() | got.keys()
                     for key in expected.get(run, {}).keys() | got.get(run, {}).keys()
                     if expected.get(run, {}).get(key) != got.get(run, {}).get(key))
    assert not changed, f"outputs changed: {changed}"


def test_the_generated_corpus_has_unknown_words_downgrades_and_a_dead_end(tmp_path, capsys):
    train, _, test = generated_corpora()
    paths = [tmp_path / "train.conll", tmp_path / "test.conll"]
    for path, text in zip(paths, (train, test)):
        path.write_text(text, encoding="utf-8")
    model, kv = str(tmp_path / "m.pmc"), tmp_path / "report.kv"
    assert cli.main(["train", "--corpus", str(paths[0]), "--model", model]) == 0
    assert cli.main(["eval", "--corpus", str(paths[1]), "--model", model,
                     "--report-kv", str(kv)]) == 1
    assert "dead end" in capsys.readouterr().err
    report = dict(line.split("\t") for line in kv.read_text(encoding="utf-8").splitlines())
    assert int(report["unknown-tokens"]) > 0 and float(report["downgrade-rate"]) > 0


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
