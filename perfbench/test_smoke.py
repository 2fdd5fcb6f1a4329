"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a tampered program output fails the run, and that the benchmark
refuses to run without the pmctag sources. Corpora are scaled down to
2% so the whole file takes a few seconds per workload.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "7", "--seconds", "0", "--scale", "0.02"]


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--trace", trace, *TINY],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_CLI_RUNS
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_tampered_tag_output_fails_the_run(monkeypatch, capsys):
    real_run_child = run.run_child

    def run_child_then_tamper(argv, work):
        child = real_run_child(argv, work)
        path = work / "tagged.txt"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        word, label = lines[0].split()
        lines[0] = f"{word} {'L1' if label == 'L0' else 'L0'}\n"
        path.write_text("".join(lines), encoding="utf-8")
        return child

    monkeypatch.setattr(run, "run_child", run_child_then_tamper)
    assert run.main(["--workload", "tag-mpm", "--trace", "0", *TINY]) == 1
    result = _result(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_tampered_eval_report_trips_its_check():
    wl = run.WORKLOADS["eval-map-oov"]
    bench = run.Run(wl, seed=7, seconds=0, scale=0.02)
    inputs, _ = bench.set_up(1)
    ref = bench.reference(inputs)
    code, stderr = run.run_in_process(run.cli_args(wl, inputs))
    run.check_outputs(wl, inputs, ref, code, stderr)

    kv = inputs.path("report.kv")
    rows = kv.read_text(encoding="utf-8").splitlines(keepends=True)
    tampered = [f"tokens\t{int(r.split()[1]) + 1}\n" if r.startswith("tokens\t") else r
                for r in rows]
    kv.write_text("".join(tampered), encoding="utf-8")
    with pytest.raises(run.CheckFailed, match="tokens"):
        run.check_report(kv, inputs, ref)
    with pytest.raises(run.CheckFailed, match="exit code"):
        run.check_exit(0 if code else 1, stderr, ref)
    kv.unlink()
    with pytest.raises(run.CheckFailed, match="unreadable"):
        run.check_report(kv, inputs, ref)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tag-mpm",
         "--trace", "0", *TINY],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
