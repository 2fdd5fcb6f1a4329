import json
import os
import subprocess
import sys

import pytest

from pmctag import cli
from pmctag.cli import main
from pmctag.conll import read_conll
from pmctag.serialize import load_model

DATA = os.path.join(os.path.dirname(__file__), "data")
TRAIN = os.path.join(DATA, "train_chunk.conll")
TEST = os.path.join(DATA, "test_chunk.conll")
DET = os.path.join(DATA, "train_det.conll")
MAP = os.path.join(DATA, "ptb_mini.map")


def _no_input_read(*args, **kwargs):
    raise AssertionError("input read before the options were checked")


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

    def test_mapping_applied(self, tmp_path, capsys):
        path = str(tmp_path / "pos.pmc")
        code, _, _ = run(["train", "--corpus", TRAIN, "--model", path,
                          "--task", "pos", "--tag-column", "1",
                          "--mapping", MAP], capsys)
        assert code == 0
        model = load_model(path)
        assert set(model.alphabet.items) <= {"DET", "NOUN", "VERB", "ADV",
                                             "ADJ", "PRON", "."}


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

    def test_map_decoder(self, model_path, capsys):
        code, out, _ = run(["tag", "--model", model_path, "--input", TEST,
                            "--decoder", "map"], capsys)
        assert code == 0
        assert out

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


class TestBench:
    def test_minimal_run(self, capsys):
        code, out, _ = run(["bench", "--corpus", TRAIN, "--task", "chunk",
                            "--tag-column", "2", "--repetitions", "1"], capsys)
        assert code == 0
        assert "train-median-s" in out
        assert "decode-tokens-per-s" in out

    def test_test_corpus_flag(self, capsys):
        code, out, _ = run(["bench", "--corpus", TRAIN, "--test-corpus", TEST,
                            "--task", "chunk", "--tag-column", "2",
                            "--repetitions", "2"], capsys)
        assert code == 0
        assert "decode-tokens 10" in out

    def test_zero_repetitions_rejected_before_reading(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "read_conll", _no_input_read)
        code, out, err = run(["bench", "--corpus", TRAIN, "--repetitions", "0"],
                             capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == "error: repetitions must be at least 1, not 0"


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
    ]

    @pytest.mark.parametrize("command, content", BAD_CONFIGS,
                             ids=[str(content) for _, content in BAD_CONFIGS])
    def test_bad_config_exits_2_with_one_error_line(self, command, content,
                                                    tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "read_conll", _no_input_read)
        monkeypatch.setattr(cli, "load_model", _no_input_read)
        config = tmp_path / "cfg.json"
        if content is not None:
            config.write_text(content)
        model = tmp_path / "m.pmc"
        argv = {"verify": ["verify"],
                "train": ["train", "--corpus", TRAIN, "--model", str(model)],
                "eval": ["eval", "--model", str(model), "--corpus", TEST]}
        code, out, err = run(["--config", str(config)] + argv[command], capsys)
        assert code == 2
        assert out == ""
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not model.exists()


def test_console_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(DATA), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pmctag.cli", "verify", "--instances", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "failures 0" in proc.stdout
