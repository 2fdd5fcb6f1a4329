import argparse
import contextlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmctag import cli
from pmctag.cli import main
from pmctag.conll import LabeledCorpus, read_conll, read_tag_mapping
from pmctag.errors import DeadEnd, ShapeError
from pmctag.evaluation import evaluate_predictions, format_report_kv, format_report_text
from pmctag.inference import decode_sentence
from pmctag.serialize import load_model, serialize_model
from pmctag.training import TrainConfig, train_model, update_online

DATA = os.path.join(os.path.dirname(__file__), "data")
TRAIN = os.path.join(DATA, "train_chunk.conll")
TEST = os.path.join(DATA, "test_chunk.conll")
DET = os.path.join(DATA, "train_det.conll")
MAP = os.path.join(DATA, "ptb_mini.map")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _no_input_read(*args, **kwargs):
    raise AssertionError("input read before the options were checked")


def _save_part(model, path):
    """save_model that fails after writing part of the file."""
    with open(path, "wb") as fh:
        fh.write(b"part")
    raise OSError("no space left on device")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def model_path(tmp_path, capsys):
    path = str(tmp_path / "chunk.pmc")
    code, _, _ = run(["train", "--corpus", TRAIN, "--model", path,
                      "--task", "chunk", "--tag-column", "2"], capsys)
    assert code == 0
    return path


class TestTrain:
    def test_deterministic_model_bytes(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.pmc"), str(tmp_path / "b.pmc")
        for path in (a, b):
            code, _, err = run(["train", "--corpus", TRAIN, "--model", path,
                                "--task", "chunk", "--tag-column", "2"], capsys)
            assert code == 0
            assert "trained in" in err and "pattern-keys" in err
            # the size line reports what the file holds
            assert f"model-bytes {os.path.getsize(path)}" in err.splitlines()
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_model_reloadable(self, model_path):
        model = load_model(model_path)
        assert model.task == "chunk"
        model.validate()

    def test_negative_word_column_exits_2(self, tmp_path, capsys):
        model = tmp_path / "m.pmc"
        code, out, err = run(["train", "--corpus", TRAIN, "--model", str(model),
                              "--tag-column", "2", "--word-column", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == "error: word column must be 0 or more, not -1"
        assert not model.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--skip-pattern", "("], "error: invalid skip pattern '('"),
        (["--word-column", "2"], "error: tag column and word column are both 2"),
    ], ids=["skip-pattern", "same-column"])
    def test_bad_reader_option_exits_2(self, flags, message, tmp_path, capsys):
        model = tmp_path / "m.pmc"
        code, out, err = run(["train", "--corpus", TRAIN, "--model", str(model),
                              "--tag-column", "2"] + flags, capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(message)
        assert not model.exists()

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        code, _, err = run(["train", "--corpus", str(tmp_path / "nope.conll"),
                            "--model", str(tmp_path / "m.pmc")], capsys)
        assert code == 2
        assert "error:" in err

    def test_extra_corpus_equals_joint_training(self, tmp_path, capsys):
        d1 = tmp_path / "d1.conll"
        d2 = tmp_path / "d2.conll"
        text = open(TRAIN).read()
        blocks = text.strip().split("\n\n")
        d1.write_text("\n\n".join(blocks[:5]) + "\n")
        d2.write_text("\n\n".join(blocks[5:]) + "\n")
        joint, split = str(tmp_path / "joint.pmc"), str(tmp_path / "split.pmc")
        code, _, _ = run(["train", "--corpus", TRAIN, "--model", joint,
                          "--task", "chunk", "--tag-column", "2"], capsys)
        assert code == 0
        code, _, _ = run(["train", "--corpus", str(d1), "--extra-corpus", str(d2),
                          "--model", split, "--task", "chunk",
                          "--tag-column", "2"], capsys)
        assert code == 0
        assert open(joint, "rb").read() == open(split, "rb").read()

    def test_unwritable_model_fails_before_reading(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "read_conll", _no_input_read)
        code, out, err = run(["train", "--corpus", TRAIN, "--tag-column", "2",
                              "--model", str(tmp_path / "no" / "such" / "m.pmc")], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("failure", ["corpus", "save"])
    def test_failed_train_leaves_the_old_model(self, failure, tmp_path, capsys, monkeypatch):
        """The model is written through a new file, which a failure at any
        step removes."""
        corpus = tmp_path / "corpus.conll"
        corpus.write_text(open(TRAIN).read() + "dog NN\n", encoding="utf-8")
        if failure == "save":
            corpus.write_text(open(TRAIN).read(), encoding="utf-8")
            monkeypatch.setattr(cli, "save_model", _save_part)
        model = tmp_path / "m.pmc"
        model.write_bytes(b"old")
        code, out, err = run(["train", "--corpus", str(corpus), "--tag-column", "2",
                              "--model", str(model)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert model.read_bytes() == b"old"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.conll", "m.pmc"]

    def test_corpus_from_a_pipe(self, tmp_path, capsys):
        """train reads each corpus once, so /dev/stdin may be a pipe; the
        text spans several read blocks."""
        text = open(TRAIN, encoding="utf-8").read() * 300
        corpus, piped, model = (tmp_path / "corpus.conll", tmp_path / "piped.pmc",
                                tmp_path / "file.pmc")
        corpus.write_text(text, encoding="utf-8")
        assert run(["train", "--corpus", str(corpus), "--model", str(model)], capsys)[0] == 0
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(DATA), "..", "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pmctag.cli", "train", "--corpus", "/dev/stdin",
             "--model", str(piped)], input=text, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert piped.read_bytes() == model.read_bytes()

    def test_bytes_that_are_not_utf8_are_placed_in_the_file(self, tmp_path, capsys):
        """The corpus is read in blocks; the error still gives the byte's
        position in the whole file, past the first block."""
        corpus = tmp_path / "corpus.conll"
        corpus.write_bytes(b"a X Y\n" * 20000 + b"\xff X Y\n")
        code, out, err = run(["train", "--corpus", str(corpus),
                              "--model", str(tmp_path / "m.pmc")], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: 'utf-8' codec can't decode byte 0xff in "
                                    "position 120000: invalid start byte"]

    def test_mapping_applied(self, tmp_path, capsys):
        path = str(tmp_path / "pos.pmc")
        code, _, _ = run(["train", "--corpus", TRAIN, "--model", path,
                          "--task", "pos", "--tag-column", "1",
                          "--mapping", MAP], capsys)
        assert code == 0
        model = load_model(path)
        assert set(model.alphabet.items) <= {"DET", "NOUN", "VERB", "ADV",
                                             "ADJ", "PRON", "."}


def _column_sentences(text):
    """Column rows of CoNLL text, sentence by sentence."""
    sentences = [[]]
    for line in text.splitlines():
        if line.split():
            sentences[-1].append(line.split())
        elif sentences[-1]:
            sentences.append([])
    return [sent for sent in sentences if sent]


class TestTag:
    def test_appends_prediction_column(self, model_path, tmp_path, capsys):
        out = str(tmp_path / "tagged.conll")
        code, _, err = run(["tag", "--model", model_path, "--input", TEST,
                            "--output", out], capsys)
        assert code == 0
        assert "downgrade-rate" in err
        records = [line.split() for line in open(out) if line.strip()]
        source = [line.split() for line in open(TEST) if line.strip()]
        assert len(records) == len(source)
        for got, src in zip(records, source):
            assert got[:3] == src
            assert len(got) == 4

    @pytest.mark.parametrize("model", [os.path.join(TRAIN, "m.pmc"), "m" * 300],
                             ids=["under-a-file", "name-too-long"])
    def test_unopenable_model_exits_2(self, model, capsys):
        code, out, err = run(["tag", "--model", model, "--input", TEST], capsys)
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_stdout_identical_across_runs(self, model_path, capsys):
        code1, out1, _ = run(["tag", "--model", model_path, "--input", TEST],
                             capsys)
        code2, out2, _ = run(["tag", "--model", model_path, "--input", TEST],
                             capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_empty_input(self, model_path, tmp_path, capsys):
        empty = tmp_path / "empty.conll"
        empty.write_text("")
        code, out, _ = run(["tag", "--model", model_path,
                            "--input", str(empty)], capsys)
        assert code == 0
        assert out == ""

    def test_unknown_word_only_sentence_fully_downgraded(self, model_path,
                                                         tmp_path, capsys):
        inp = tmp_path / "unk.conll"
        inp.write_text("Zats\nzuns\n")
        code, out, err = run(["tag", "--model", model_path,
                              "--input", str(inp)], capsys)
        assert code == 0
        lines = [line.split() for line in out.strip().split("\n")]
        assert [l[0] for l in lines] == ["Zats", "zuns"]
        assert "downgrade-rate 1.000000" in err

    def test_self_consistency_beats_frequency_baseline(self, model_path, capsys):
        corpus = read_conll(open(TRAIN), 0, 2)
        # most-frequent-tag-per-word baseline, computed right here
        freq = {}
        for sent in corpus.sentences:
            for w, t in sent:
                freq.setdefault(w, {})[t] = freq.get(w, {}).get(t, 0) + 1
        baseline_errors = 0
        for sent in corpus.sentences:
            for w, t in sent:
                best = max(sorted(freq[w]), key=lambda k: freq[w][k])
                baseline_errors += best != t
        assert baseline_errors > 0  # the fixture is ambiguous on purpose

        code, out, _ = run(["tag", "--model", model_path, "--input", TRAIN],
                           capsys)
        assert code == 0
        predicted = [line.split()[3] for line in out.strip().split("\n") if line.strip()]
        gold = [t for sent in corpus.sentences for _, t in sent]
        model_errors = sum(p != g for p, g in zip(predicted, gold))
        assert model_errors < baseline_errors

    def test_mapping_flag_exits_2(self, model_path, capsys):
        # tag reads no tag column, so it has no tag mapping to apply
        with pytest.raises(SystemExit) as exc:
            main(["tag", "--model", model_path, "--input", TEST, "--mapping", MAP])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mapping" in capsys.readouterr().err

    def test_map_decoder(self, model_path, capsys):
        code, out, _ = run(["tag", "--model", model_path, "--input", TEST,
                            "--decoder", "map"], capsys)
        assert code == 0
        assert out

    @pytest.mark.parametrize("decoder", ["mpm", "map"])
    def test_hmc_mode_labels_equal_the_library(self, decoder, model_path, capsys):
        code, out, err = run(["tag", "--model", model_path, "--input", TEST,
                              "--mode", "hmc", "--decoder", decoder], capsys)
        model, sentences = load_model(model_path), _column_sentences(open(TEST).read())
        expected = []
        for rows in sentences:
            try:
                expected.append(decode_sentence(model, [row[0] for row in rows],
                                                mode="hmc", decoder=decoder).labels)
            except DeadEnd:
                continue
        assert code == (1 if len(expected) < len(sentences) else 0)
        assert [[row[-1] for row in rows] for rows in _column_sentences(out)] == expected
        assert "downgrade-rate 0.000000" in err

    def test_dead_end_sentence_skipped_and_exit_1(self, model_path, tmp_path,
                                                  capsys):
        # "Q#7" matches no feature tuple at any level: its emission column
        # is all-zero and the sentence cannot be labeled
        inp = tmp_path / "dead.conll"
        inp.write_text("The\nQ#7\n\nThe\ndog\n")
        code, out, err = run(["tag", "--model", model_path,
                              "--input", str(inp)], capsys)
        assert code == 1
        assert "sentence 0" in err and "dead end" in err
        words = [line.split()[0] for line in out.strip().split("\n") if line.strip()]
        assert words == ["The", "dog"]


class TestEval:
    def test_perfect_model_scores_one(self, tmp_path, capsys):
        path = str(tmp_path / "det.pmc")
        run(["train", "--corpus", DET, "--model", path, "--task", "chunk",
             "--tag-column", "2"], capsys)
        kv_path = str(tmp_path / "report.kv")
        code, out, _ = run(["eval", "--model", path, "--corpus", DET,
                            "--tag-column", "2", "--report-kv", kv_path], capsys)
        assert code == 0
        kv = dict(line.split("\t") for line in open(kv_path).read().strip().split("\n"))
        assert kv["overall-error"] == "0.000000"
        assert kv["f1"] == "1.000000"
        assert kv["task"] == "chunk"
        assert kv["mode"] == "pmc" and kv["decoder"] == "mpm"
        assert "f1" in out

    def test_hand_computed_metrics(self, model_path, tmp_path, capsys):
        # gold file with one flipped chunk tag against the training corpus
        gold = open(TRAIN).read().replace("fast RB B-ADVP", "fast RB B-NP", 1)
        gold_path = tmp_path / "gold.conll"
        gold_path.write_text(gold)
        kv_path = str(tmp_path / "r.kv")
        code, _, _ = run(["eval", "--model", model_path, "--corpus",
                          str(gold_path), "--tag-column", "2",
                          "--report-kv", kv_path], capsys)
        kv = dict(line.split("\t") for line in open(kv_path).read().strip().split("\n"))
        # the model reproduces its training labels on this corpus, so the
        # single divergence is the flipped gold tag: one span changes type
        tokens = int(kv["tokens"])
        assert float(kv["overall-error"]) == pytest.approx(1 / tokens, abs=5e-7)
        assert int(kv["gold-spans"]) == int(kv["predicted-spans"])
        assert int(kv["correct-spans"]) == int(kv["gold-spans"]) - 1

    def test_report_header_and_text_file(self, model_path, tmp_path, capsys):
        text_path = str(tmp_path / "report.txt")
        code, out, _ = run(["eval", "--model", model_path, "--corpus", TEST,
                            "--tag-column", "2", "--report-text", text_path,
                            "--decoder", "map"], capsys)
        assert code == 0
        assert out == ""  # report went to the file
        text = open(text_path).read()
        assert "decoder" in text and "map" in text
        assert "unknown-error" in text

    def test_eval_deterministic_outputs(self, model_path, tmp_path, capsys):
        paths = [str(tmp_path / f"r{i}.kv") for i in (1, 2)]
        for p in paths:
            run(["eval", "--model", model_path, "--corpus", TEST,
                 "--tag-column", "2", "--report-kv", p], capsys)
        assert open(paths[0]).read() == open(paths[1]).read()


def _tuple_sentences(path, tag_column, mapping):
    """(word, mapped tag) tuple sentences of a column file, read line by line."""
    sentences = [[]]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cols = line.split()
            if cols:
                sentences[-1].append((cols[0], mapping[cols[tag_column]]))
            elif sentences[-1]:
                sentences.append([])
    return [sent for sent in sentences if sent]


def test_cli_train_and_eval_match_the_tuple_library(tmp_path, capsys):
    """The CLI reads columns; the library here gets tuple sentences."""
    with open(MAP, encoding="utf-8") as fh:
        mapping = read_tag_mapping(fh)
    train = _tuple_sentences(TRAIN, 1, mapping)
    test = _tuple_sentences(TEST, 1, mapping)
    path = str(tmp_path / "m.pmc")
    code, _, _ = run(["train", "--corpus", TRAIN, "--extra-corpus", TEST, "--model", path,
                      "--tag-column", "1", "--mapping", MAP], capsys)
    assert code == 0
    config = TrainConfig(task="pos")
    model = update_online(train_model(LabeledCorpus(train), config), LabeledCorpus(test))
    assert open(path, "rb").read() == serialize_model(model)

    for mode, decoder in itertools.product(("pmc", "hmc"), ("mpm", "map")):
        text, kv = str(tmp_path / "r.txt"), str(tmp_path / "r.kv")
        code, _, _ = run(["eval", "--model", path, "--corpus", TEST, "--tag-column", "1",
                          "--mapping", MAP, "--mode", mode, "--decoder", decoder,
                          "--report-text", text, "--report-kv", kv], capsys)
        results, gold, predicted, bits = [], [], [], []
        for sent in test:
            words = [w for w, _ in sent]
            try:
                result = decode_sentence(model, words, mode=mode, decoder=decoder)
            except DeadEnd:
                continue
            results.append(result)
            gold.append([t for _, t in sent])
            predicted.append(result.labels)
            bits.append([w in model.vocabulary for w in words])
        assert code == (1 if len(results) < len(test) else 0)
        report = evaluate_predictions(gold, predicted, bits, task="pos", mode=mode,
                                      decoder=decoder,
                                      downgrades=sum(r.downgraded for r in results),
                                      resolutions=sum(r.resolutions for r in results),
                                      failed_sentences=len(test) - len(results))
        assert open(text, encoding="utf-8").read() == format_report_text(report)
        assert open(kv, encoding="utf-8").read() == format_report_kv(report)
        if mode == "hmc":
            assert "mode\thmc\n" in format_report_kv(report)
            assert "downgrade-rate\t0.000000\n" in format_report_kv(report)


def _window_corpus():
    """The test sentences three times, with a dead-end sentence ("Q#7", as
    in TestTag) after the first and second copies; returns the text and
    the dead-end sentence indices."""
    test = open(TEST, encoding="utf-8").read().strip("\n") + "\n\n"
    n = test.count("\n\n")
    return (test + "The DT B-NP\nQ#7 NN I-NP\n\n") * 2 + test, [n, 2 * n + 1]


# flags and the corpus edit that gives them lines to drop; dropped lines
# never end a sentence, so the dead-end indices stay
WINDOW_VARIANTS = {
    "plain": ([], lambda text: text),
    "skip-pattern": (["--skip-pattern=-DOCSTART-"],
                     lambda text: "-DOCSTART- -X- O\n\n" +
                     text.replace("\n\n", "\n\n-DOCSTART- -X- O\n", 2)),
    "comment-prefix": (["--comment-prefix", "#"],
                       lambda text: "# doc\n" + text.replace("\n\n", "\n# end\n\n")),
}


class TestWindows:
    """tag and eval read their input a window at a time; the window size
    must not show in any output."""

    @pytest.fixture
    def pos_model(self, tmp_path, capsys):
        path = str(tmp_path / "pos.pmc")
        assert run(["train", "--corpus", TRAIN, "--model", path, "--tag-column", "1",
                    "--mapping", MAP], capsys)[0] == 0
        return path

    @staticmethod
    def outputs(argv, out_dir, capsys):
        """Exit code, stdout, stderr lines without timings and written files."""
        for path in out_dir.iterdir():
            path.unlink()
        code, out, err = run(argv, capsys)
        files = {path.name: path.read_text(encoding="utf-8") for path in out_dir.iterdir()}
        return code, out, [line for line in err.splitlines()
                           if not line.startswith("decoded ")], files

    @pytest.mark.parametrize("mapping", [False, True], ids=["chunk", "mapped-pos"])
    @pytest.mark.parametrize("variant", sorted(WINDOW_VARIANTS))
    def test_outputs_do_not_depend_on_the_window(self, variant, mapping, model_path,
                                                 pos_model, tmp_path, capsys, monkeypatch):
        flags, edit = WINDOW_VARIANTS[variant]
        text, dead = _window_corpus()
        corpus = tmp_path / "corpus.conll"
        corpus.write_text(edit(text), encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        model, columns = ((pos_model, ["--tag-column", "1", "--mapping", MAP]) if mapping
                          else (model_path, ["--tag-column", "2"]))
        tag = ["tag", "--model", model, "--input", str(corpus)] + flags
        evaluate = ["eval", "--model", model, "--corpus", str(corpus)] + columns + flags
        commands = [tag, tag + ["--output", str(out_dir / "tagged")],
                    evaluate + ["--report-kv", str(out_dir / "kv")],
                    evaluate + ["--report-text", str(out_dir / "txt"),
                                "--report-kv", str(out_dir / "kv"), "--decoder", "map"]]
        for argv in commands:
            seen = []
            for window in (10 ** 9, 1, 4):
                monkeypatch.setattr(cli, "WINDOW_TOKENS", window)
                seen.append(self.outputs(argv, out_dir, capsys))
            assert seen[0] == seen[1] == seen[2], argv
            code, out, err, files = seen[0]
            assert out or files
            if not mapping:
                assert code == 1
                assert [int(line.split()[1].rstrip(":")) for line in err
                        if ": dead end at position" in line] == dead

    @pytest.mark.parametrize("command", ["tag", "eval"])
    def test_bad_line_after_the_first_window_writes_nothing(self, command, model_path,
                                                            tmp_path, capsys, monkeypatch):
        text, _ = _window_corpus()
        lines = text.splitlines(keepends=True)
        ragged = len(lines) - 3
        lines[ragged] = "dog NN I-NP X\n"
        corpus = tmp_path / "corpus.conll"
        corpus.write_text("".join(lines), encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = {"tag": ["tag", "--model", model_path, "--input", str(corpus),
                        "--output", str(out_dir / "tagged")],
                "eval": ["eval", "--model", model_path, "--corpus", str(corpus),
                         "--tag-column", "2", "--report-text", str(out_dir / "txt"),
                         "--report-kv", str(out_dir / "kv")]}[command]
        monkeypatch.setattr(cli, "WINDOW_TOKENS", 2)
        for args in (argv, argv[:5] + (["--tag-column", "2"] if command == "eval" else [])):
            code, out, err = run(args, capsys)
            assert code == 2
            assert out == ""
            assert err.splitlines() == [f"error: line {ragged + 1}: ragged row: 4 columns "
                                        "where previous lines had 3"]
            assert list(out_dir.iterdir()) == []

    def test_bytes_that_are_not_utf8_are_placed_in_the_file(self, model_path, tmp_path,
                                                            capsys):
        """The check decodes the file in blocks; the error still gives the
        byte's position in the whole file, past the first block."""
        corpus = tmp_path / "corpus.conll"
        corpus.write_bytes(b"a X Y\n" * 3000 + b"\xff X Y\n")
        code, out, err = run(["tag", "--model", model_path, "--input", str(corpus)], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: 'utf-8' codec can't decode byte 0xff in "
                                    "position 18000: invalid start byte"]

    def test_unwritable_output_fails_before_decoding(self, model_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_decode_corpus", _no_input_read)
        code, out, err = run(["tag", "--model", model_path, "--input", TEST,
                              "--output", os.path.join(TEST, "tagged")], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_tag_in_place_equals_tag_to_another_file(self, model_path, tmp_path, capsys,
                                                     monkeypatch):
        """The output may be the input file itself, even one far larger than
        a read buffer and read in many windows."""
        text, _ = _window_corpus()
        corpus, other = tmp_path / "corpus.conll", tmp_path / "other.conll"
        corpus.write_text(text * 200, encoding="utf-8")
        assert corpus.stat().st_size > 8 * 8192
        corpus.chmod(0o640)
        monkeypatch.setattr(cli, "WINDOW_TOKENS", 50)
        for output in (other, corpus):
            code, out, _ = run(["tag", "--model", model_path, "--input", str(corpus),
                                "--output", str(output)], capsys)
            assert (code, out) == (1, "")
        assert corpus.read_bytes() == other.read_bytes()
        assert corpus.stat().st_mode & 0o777 == 0o640
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["chunk.pmc", "corpus.conll", "other.conll"]

    def test_failed_tag_leaves_the_old_output(self, model_path, tmp_path, capsys,
                                              monkeypatch):
        """An error after some windows are written leaves no partial output."""
        def fail_at_second_window(model, sentences, opts, start=0):
            if start:
                raise ShapeError("failed")
            return decode_corpus(model, sentences, opts, start)

        decode_corpus = cli._decode_corpus
        monkeypatch.setattr(cli, "_decode_corpus", fail_at_second_window)
        monkeypatch.setattr(cli, "WINDOW_TOKENS", 4)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "tagged").write_text("old\n", encoding="utf-8")
        for output in (out_dir / "tagged", out_dir / "new"):
            code, out, err = run(["tag", "--model", model_path, "--input", TEST,
                                  "--output", str(output)], capsys)
            assert (code, out, err) == (2, "", "error: failed\n")
        assert [path.name for path in out_dir.iterdir()] == ["tagged"]
        assert (out_dir / "tagged").read_text(encoding="utf-8") == "old\n"

    def test_tag_writes_a_device_in_place(self, model_path, capsys):
        code, out, _ = run(["tag", "--model", model_path, "--input", TEST,
                            "--output", os.devnull], capsys)
        assert (code, out) == (0, "")
        assert not os.path.isfile(os.devnull)

    @pytest.mark.parametrize("command", ["tag", "eval"])
    def test_pipe_input_exits_2(self, command, model_path, capsys):
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "w", encoding="utf-8") as fh:
                fh.write(open(TEST, encoding="utf-8").read())
            source = f"/dev/fd/{read_end}"
            argv = {"tag": ["tag", "--model", model_path, "--input", source],
                    "eval": ["eval", "--model", model_path, "--corpus", source,
                             "--tag-column", "2"]}[command]
            code, out, err = run(argv, capsys)
        finally:
            os.close(read_end)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert "Traceback" not in err


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(["verify", "--instances", "25", "--seed", "7"], capsys)
        assert code == 0
        assert "failures 0" in out

    @pytest.mark.parametrize("instances", ["0", "-5"])
    def test_vacuous_instance_count_exits_2(self, instances, capsys):
        code, out, err = run(["verify", "--instances", instances], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: instances must be at least 1, not {instances}"

    def test_instance_count_above_the_bound_exits_2(self, capsys):
        code, out, err = run(["verify", "--instances", str(cli.MAX_INSTANCES + 1)], capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == (f"error: instances must be at most {cli.MAX_INSTANCES}, "
                               f"not {cli.MAX_INSTANCES + 1}")


class TestConfigFile:
    def test_flags_override_config(self, model_path, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"decoder": "map"}))
        kv_path = str(tmp_path / "r.kv")
        code, _, _ = run(["--config", str(config), "eval", "--model", model_path,
                          "--corpus", TEST, "--tag-column", "2",
                          "--report-kv", kv_path], capsys)
        assert code == 0
        kv = dict(line.split("\t") for line in open(kv_path).read().strip().split("\n"))
        assert kv["decoder"] == "map"  # from config
        code, _, _ = run(["--config", str(config), "eval", "--model", model_path,
                          "--corpus", TEST, "--tag-column", "2",
                          "--decoder", "mpm", "--report-kv", kv_path], capsys)
        kv = dict(line.split("\t") for line in open(kv_path).read().strip().split("\n"))
        assert kv["decoder"] == "mpm"  # flag wins

    def test_string_option_from_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mapping": MAP}))
        path = str(tmp_path / "pos.pmc")
        code, _, _ = run(["--config", str(config), "train", "--corpus", TRAIN,
                          "--model", path, "--task", "pos", "--tag-column", "1"],
                         capsys)
        assert code == 0
        assert set(load_model(path).alphabet.items) <= {"DET", "NOUN", "VERB", "ADV",
                                                        "ADJ", "PRON", "."}

    BAD_CONFIGS = [
        ("verify", None),  # missing file
        ("verify", "{not json"),
        ("verify", "[1]"),
        ("verify", '{"instances": "x"}'),
        ("verify", '{"instances": true}'),
        ("verify", '{"decoder": 3}'),
        ("train", '{"mapping": 5}'),  # a str option given a non-string
        ("train", '{"skip_pattern": 7}'),
        ("verify", '{"threads": 2}'),  # not an option at all
        ("eval", '{"scheme": "bogus"}'),  # not one of the option's choices
        ("eval", '{"mode": "bogus"}'),
        ("verify", '{"instances": 0}'),  # a vacuous run
        ("verify", '{"repetitions": 3}'),  # an option of no subcommand
        ("verify", '{"instances": 100001}'),  # above MAX_INSTANCES
        ("verify", '{"instances": 1' + "0" * 300 + '}'),
        ("verify", '{"decoder": "map"}'),  # an option of another subcommand
        ("train", '{"seed": 1}'),
        ("eval", '{"suffix_max_len": 2}'),
        ("tag", '{"mapping": "m.map"}'),
        ("eval", '{"model": "x.pmc"}'),  # a required option
        ("train", '{"extra_corpus": "x.conll"}'),  # an append option
    ]

    @pytest.mark.parametrize("command, content", BAD_CONFIGS,
                             ids=[str(content) for _, content in BAD_CONFIGS])
    def test_bad_config_exits_2_with_one_error_line(self, command, content,
                                                    tmp_path, capsys, monkeypatch):
        self.run_bad_config(command, content, tmp_path, capsys, monkeypatch)

    @staticmethod
    def run_bad_config(command, content, tmp_path, capsys, monkeypatch):
        """Run a command under a bad config; returns its one error line."""
        monkeypatch.setattr(cli, "read_conll", _no_input_read)
        monkeypatch.setattr(cli, "load_model", _no_input_read)
        config = tmp_path / "cfg.json"
        if content is not None:
            config.write_text(content)
        model = tmp_path / "m.pmc"
        argv = {"verify": ["verify"],
                "train": ["train", "--corpus", TRAIN, "--model", str(model)],
                "tag": ["tag", "--model", str(model), "--input", TEST],
                "eval": ["eval", "--model", str(model), "--corpus", TEST]}
        code, out, err = run(["--config", str(config)] + argv[command], capsys)
        assert code == 2
        assert out == ""
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not model.exists()
        return lines[0]

    @pytest.mark.parametrize("command, content", [
        ("verify", '{"instances": ' + "[" * 990 + "]" * 990 + "}"),
        ("verify", '{"instances": ' + "[" * 500 + "]" * 500 + "}"),
        ("verify", '{"instances": "' + "x" * 10000 + '"}'),
        ("eval", '{"decoder": "' + "x" * 10000 + '"}'),
    ], ids=["990-deep-instances", "500-deep-instances", "long-instances", "long-decoder"])
    def test_long_config_value_gives_one_short_error_line(self, command, content, tmp_path,
                                                          capsys, monkeypatch):
        line = self.run_bad_config(command, content, tmp_path, capsys, monkeypatch)
        assert len(line) < 200, line

    @pytest.mark.parametrize("content", ["[" * 100000 + "]" * 100000,
                                         '{"instances": ' + "[" * 3000 + "]" * 3000 + "}"],
                             ids=["deep-array", "deep-instances"])
    def test_deeply_nested_config_exits_2(self, content, tmp_path, capsys, monkeypatch):
        self.run_bad_config("train", content, tmp_path, capsys, monkeypatch)

    DEEP_CONFIGS = {
        "990-deep-instances": ("verify", '{"instances": ' + "[" * 990 + "]" * 990 + "}"),
        "500-deep-instances": ("verify", '{"instances": ' + "[" * 500 + "]" * 500 + "}"),
        "deep-array": ("train", "[" * 100000 + "]" * 100000),
        "deep-instances": ("train", '{"instances": ' + "[" * 3000 + "]" * 3000 + "}"),
    }

    @pytest.mark.parametrize("command, content", DEEP_CONFIGS.values(), ids=DEEP_CONFIGS)
    def test_deep_config_error_does_not_depend_on_the_stack(self, command, content, tmp_path,
                                                            capsys, monkeypatch):
        def under(frames):
            if frames:
                return under(frames - 1)
            return self.run_bad_config(command, content, tmp_path, capsys, monkeypatch)

        line = under(0)
        assert "nested deeper than" in line
        assert under(200) == line

    def test_only_brackets_outside_strings_nest(self):
        depth = cli.MAX_CONFIG_DEPTH
        assert not cli._nested_too_deeply("[" * depth + "]" * depth)
        assert cli._nested_too_deeply("[" * (depth + 1) + "]" * (depth + 1))
        assert not cli._nested_too_deeply('{"comment_prefix": "' + "[" * 40 + '\\" {"}')
        # json stops at an unterminated string, so nothing after it nests
        assert not cli._nested_too_deeply('{"comment_prefix": "\\"' + "[" * 40)

    def test_run_of_escaped_quotes_exits_2_in_linear_time(self, tmp_path, capsys,
                                                          monkeypatch):
        # an unterminated string of 100,000 escaped quotes: a string
        # pattern retried from every quote would take minutes here
        started = time.perf_counter()
        line = self.run_bad_config("verify", '\\"' * 100000, tmp_path, capsys, monkeypatch)
        assert time.perf_counter() - started < 5
        assert "nested deeper than" not in line


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_declared_option_is_read(command, model_path, tmp_path, capsys):
    """Each subcommand's command reads every value its flags or a config
    file can set, so that no option is silently ignored."""
    reads = set()

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    argv = {"train": ["train", "--corpus", TRAIN, "--model", str(tmp_path / "m.pmc"),
                      "--task", "chunk", "--tag-column", "2"],
            "tag": ["tag", "--model", model_path, "--input", TEST,
                    "--output", str(tmp_path / "tagged")],
            "eval": ["eval", "--model", model_path, "--corpus", TEST, "--tag-column", "2",
                     "--report-kv", str(tmp_path / "kv")],
            "verify": ["verify", "--instances", "5"]}[command]
    parser = cli.build_parser()
    opts = RecordingNamespace(**vars(parser.parse_args(argv)))
    reads.clear()
    assert cli.COMMANDS[command](opts) == 0
    capsys.readouterr()
    subparser = cli._subparser(parser, command)
    declared = {a.dest for a in subparser._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction)}
    settable = declared | set(cli._config_options(subparser))
    assert settable - reads == set()


# byte pieces of corpus files: invalid UTF-8, NULs, lone carriage returns,
# Unicode line separators, very wide and empty rows
CORPUS_PIECES = [b"a", b"B", b"X", b"The", b" ", b"\t", b"\n", b"\n\n", b"\r", b"\r\n",
                 b"\x00", b"\xff", b"\xc3", b"\xc3\xa9", b"\xe2\x80\xa8", b"\xc2\x85",
                 b"\x1c", b"#", b"a X\n", b"The DT B-NP\n", b"dog NN\n", b" ".join([b"w"] * 500)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A temporary directory holding a chunk model trained on tests/data."""
    path = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["train", "--corpus", TRAIN, "--model", str(path / "m.pmc"),
                     "--task", "chunk", "--tag-column", "2"]) == 0
    return path


@settings(max_examples=150, deadline=None)
@given(content=st.one_of(
    st.lists(st.sampled_from(CORPUS_PIECES), max_size=30).map(b"".join),
    st.binary(max_size=60)))
def test_input_bytes_never_crash_the_cli(fuzz_dir, content):
    corpus, model = fuzz_dir / "corpus.conll", str(fuzz_dir / "m.pmc")
    corpus.write_bytes(content)
    out = str(fuzz_dir / "out.txt")
    commands = [
        ["train", "--corpus", str(corpus), "--model", str(fuzz_dir / "new.pmc")],
        ["tag", "--model", model, "--input", str(corpus), "--output", out],
        ["eval", "--model", model, "--corpus", str(corpus), "--report-text", out],
        # the same bytes as a tag mapping file
        ["train", "--corpus", TRAIN, "--tag-column", "1", "--mapping", str(corpus),
         "--model", str(fuzz_dir / "new.pmc")],
    ]
    for argv in commands:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        lines = stderr.getvalue().splitlines()
        assert code in (0, 1, 2), argv
        assert sum(line.startswith("error:") for line in lines) <= 1, lines
        assert not any("Traceback" in line for line in lines), lines


def test_console_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(DATA), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pmctag.cli", "verify", "--instances", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "failures 0" in proc.stdout


def readme_commands():
    """Argument lists of the `pmctag` lines in README's command-line block."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("pmctag ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: pmctag {shlex.join(argv)}")
