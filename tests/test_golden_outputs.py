"""Every output of a fixed set of CLI runs, pinned by its sha256.

The runs train every task with and without --extra-corpus at suffix
lengths 0 and 3, tag and evaluate in both modes with both decoders, and
verify at a fixed seed. Others read the word from another column, tag to
a file with --output and take options from a --config file. Their inputs
are tests/data/, a copy of its chunk corpora with the first two columns
swapped, one small corpus generated here from a fixed seed, which has
unknown words, downgrades and a dead end, and a respelled copy of its
world whose words carry non-ASCII capitals and decimals, hyphens and a
trailing NUL, known and unknown, at the start of a sentence and inside
it. Each run's exit code is kept as it is; its stdout, its stderr with
the timings masked, and every file it writes are kept as digests in
tests/golden/outputs.json.

A change that means to change outputs regenerates that file:

    PYTHONPATH=src python tests/test_golden_outputs.py

which prints each digest it adds, changes (old -> new) or removes, by run
and output. The change lists each of them with the reason. The digests
pin this environment's numpy and BLAS: an exact MPM tie may fall the
other way elsewhere.
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


# spellings that set the orthographic feature bits with non-ASCII
# capitals and decimals, a hyphen or a NUL at the end of the token
ORTHO = [lambda w: "É" + w, lambda w: "Σ" + w, lambda w: w + "٣", lambda w: w + "７",
         lambda w: w[:2] + "-" + w[2:], lambda w: w + "\x00"]


def _respelled(rng, text, share):
    lines = []
    for line in text.split("\n"):
        if line:
            word, label = line.split(" ")
            if rng.random() < share:
                word = rng.choice(ORTHO)(word)
            line = f"{word} {label}"
        lines.append(line)
    return "\n".join(lines)


def ortho_corpora(seed=23):
    """(train, test) texts of the generated world with respelled words. The
    test text ends with unknown words of each spelling at the start of a
    sentence and inside it."""
    rng = random.Random(seed)
    train = _respelled(rng, _sentences(rng, 400), 0.5)
    test = _respelled(rng, _sentences(rng, 40, oov_share=0.3), 0.25) + (
        "Éu1ing L0\nx-y٣ L1\nΣu2ed L2\nba７ L3\nzq\x00 L4\n\n"
        "ba\x00 L0\nΣ７-s L1\nÉ L2\n٣ L3\n\n")
    return train, test


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
    chunk_model = str(d / "train-chunk-suffix3.pmc")
    # the swapped copies hold the word in column 1: the model is train-chunk-suffix3's
    runs.append(("train-chunk-word-column",
                 ["train", "--corpus", str(d / "swapped_train.conll"), "--task", "chunk",
                  "--word-column", "1", "--tag-column", "2",
                  "--model", str(d / "word-column.pmc")], ["word-column.pmc"]))
    runs.append(("tag-chunk-word-column",
                 ["tag", "--input", str(d / "swapped_test.conll"), "--word-column", "1",
                  "--model", chunk_model], []))
    runs.append(("eval-chunk-word-column",
                 ["eval", "--corpus", str(d / "swapped_test.conll"), "--word-column", "1",
                  "--tag-column", "2", "--model", chunk_model], []))
    runs.append(("tag-chunk-output",
                 ["tag", "--input", str(DATA / "test_chunk.conll"), "--model", chunk_model,
                  "--output", str(d / "tagged.txt")], ["tagged.txt"]))
    # a config file's values are defaults, and a flag wins over them
    runs.append(("train-chunk-config",
                 ["--config", str(d / "train.json"), "train",
                  "--corpus", str(DATA / "train_chunk.conll"),
                  "--model", str(d / "config.pmc")], ["config.pmc"]))
    runs.append(("eval-chunk-config",
                 ["--config", str(d / "eval.json"), "eval",
                  "--corpus", str(DATA / "test_chunk.conll"), "--model", chunk_model,
                  "--decoder", "map"], []))
    runs.append(("train-ortho", ["train", "--corpus", str(d / "ortho_train.conll"),
                                 "--model", str(d / "ortho.pmc")], ["ortho.pmc"]))
    for mode in ("pmc", "hmc"):
        for decoder in ("mpm", "map"):
            decode = ["--model", str(d / "ortho.pmc"), "--mode", mode, "--decoder", decoder]
            runs.append((f"tag-ortho-{mode}-{decoder}",
                         ["tag", "--input", str(d / "ortho_test.conll"), *decode], []))
            runs.append((f"eval-ortho-{mode}-{decoder}",
                         ["eval", "--corpus", str(d / "ortho_test.conll"),
                          "--report-kv", str(d / "report.kv"), *decode], ["report.kv"]))
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
        for name, text in (("gen_train", train), ("gen_extra", extra), ("gen_test", test),
                           *zip(("ortho_train", "ortho_test"), ortho_corpora())):
            (d / f"{name}.conll").write_text(text, encoding="utf-8")
        chunk = (DATA / "train_chunk.conll").read_text(encoding="utf-8")
        (d / "commented.conll").write_text(
            "-DOCSTART- -X- O\n\n# a comment\n" + chunk.replace("\n\n", "\n# end\n\n", 3),
            encoding="utf-8")
        for name in ("train", "test"):
            lines = (DATA / f"{name}_chunk.conll").read_text(encoding="utf-8").split("\n")
            swapped = [" ".join([c[1], c[0], *c[2:]]) if len(c := line.split()) > 1 else line
                       for line in lines]
            (d / f"swapped_{name}.conll").write_text("\n".join(swapped), encoding="utf-8")
        (d / "train.json").write_text(json.dumps(
            {"task": "chunk", "tag_column": 2, "suffix_max_len": 0}), encoding="utf-8")
        (d / "eval.json").write_text(json.dumps(
            {"tag_column": 2, "mode": "hmc", "decoder": "mpm", "scheme": "plain"}),
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
                if file.startswith(("report", "tagged")):
                    os.unlink(d / file)
    return outputs


def changes(old: dict, new: dict) -> list[str]:
    """One line per output whose digest (or exit code) was added, changed or
    removed from old to new, by run and output."""
    lines = []
    for run in sorted(old.keys() | new.keys()):
        before, after = old.get(run, {}), new.get(run, {})
        for key in sorted(before.keys() | after.keys()):
            was, now = before.get(key), after.get(key)
            if was is None:
                lines.append(f"added {run}.{key}: {now}")
            elif now is None:
                lines.append(f"removed {run}.{key}: {was}")
            elif was != now:
                lines.append(f"changed {run}.{key}: {was} -> {now}")
    return lines


def test_outputs_match_the_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = changes(expected, golden_outputs())
    assert not changed, "outputs changed:\n" + "\n".join(changed)


def test_changes_name_each_added_changed_and_removed_output():
    old = {"a": {"exit": 0, "stdout": "x"}, "b": {"stdout": "y"}}
    new = {"a": {"exit": 1, "stdout": "x", "f.pmc": "z"}, "c": {"stdout": "y"}}
    assert changes(old, new) == ["changed a.exit: 0 -> 1", "added a.f.pmc: z",
                                 "removed b.stdout: y", "added c.stdout: y"]
    assert changes(new, new) == []


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
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    outputs = golden_outputs()
    for line in changes(previous, outputs):
        print(line)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
