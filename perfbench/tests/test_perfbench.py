"""Smoke-sized self-test of the benchmark.

    python3 -m pytest -q perfbench/tests

Runs every workload once timed and once traced at the smallest sizes
(``--seconds 1``), and shows that a forced failure (a wrong
``attribute``) fails the run, and that the command refuses to run
without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, tracing  # noqa: E402
from perfbench.calibrate import DriftClock, kernel_ns  # noqa: E402


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _main(workload: str, trace: int) -> int:
    return run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_reports_every_metric(workload, trace, capsys):
    assert _main(workload, trace) == 0
    result = _result(capsys)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == {entry[0] for entry in expected}
    for entry in expected:
        assert result["metrics"][entry[0]]["unit"] == entry[1]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_attribution_fails_the_run(monkeypatch, capsys):
    from repro.webcompute.server import WBCServer

    real = WBCServer.attribute
    monkeypatch.setattr(WBCServer, "attribute", lambda self, index: real(self, index) + 1)
    assert _main("wbc-1shard", 0) == 1
    result = _result(capsys)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_benchmark_matches_its_contract_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        entry[:2] for entry in run.PER_LAYER
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wbc-1shard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_kernel_refuses_under_a_trace_hook():
    sys.settrace(lambda *args: None)
    try:
        with pytest.raises(RuntimeError, match="calibration refused"):
            kernel_ns()
    finally:
        sys.settrace(None)


def test_self_times_partition_the_traced_wall():
    tracer = tracing.Tracer()

    class Outer:
        def work(self, inner):
            return sum(inner.work() for _ in range(50))

    class Inner:
        def work(self):
            return sum(range(2000))

    original = Outer.__dict__["work"]
    patches = tracing.Patches(tracer)
    patches.method(Outer, "work", "outer")
    patches.method(Inner, "work", "inner")
    clock = DriftClock(tracer)
    try:
        clock.boundary()
        Outer().work(Inner())
        clock.stop()
    finally:
        patches.undo()
    assert Outer.__dict__["work"] is original
    assert tracer.calls("Inner.work") == 50 and tracer.calls("Outer.work") == 1
    assert tracer.layer_ns("inner") > 0 and tracer.layer_ns("outer") > 0
    assert tracer.attributed_ns() == pytest.approx(clock.corrected_ns, rel=0.05)
    assert tracer.incl_ns("Outer.work") == pytest.approx(
        tracer.layer_ns("outer") + tracer.layer_ns("inner"), rel=1e-6)


def test_time_outside_every_span_lowers_the_share():
    tracer = tracing.Tracer()

    class Work:
        def step(self):
            return sum(range(20000))

    patches = tracing.Patches(tracer)
    patches.method(Work, "step", "work")
    clock = DriftClock(tracer)
    try:
        clock.boundary()
        Work().step()
        sum(range(60000))  # untraced, in the chunk
        clock.stop()
    finally:
        patches.undo()
    assert 0.05 < tracer.attributed_ns() / clock.corrected_ns < 0.6


def test_lints_a_checkout_under_a_hidden_directory(tmp_path):
    import types

    from perfbench.lint import _Discovery

    tree = tmp_path / ".checkout" / "src"
    for name in ("pkg/a.py", "pkg/.skip/b.py", "pkg/__pycache__/c.py", "pkg/d.txt"):
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text("")
    runner = types.SimpleNamespace(iter_python_files=lambda paths: iter(()))
    original = runner.iter_python_files
    discovery = _Discovery(runner, tree)
    assert discovery.active
    assert list(runner.iter_python_files([tree])) == [(tree / "pkg" / "a.py").resolve()]
    discovery.undo()
    assert runner.iter_python_files is original
