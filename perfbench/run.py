"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds nothing (the program is pure
Python under ``src/``); exits 2 without a result when the program is
missing, 1 when a correctness check fails, 0 otherwise.  The last line
of standard output is the JSON result; the lines before it are a
readable report (every timing with its raw wall time and drift scale,
and with ``--trace 1`` the per-layer table with each metric's target).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import lint, tracing, wbc  # noqa: E402
from perfbench.calibrate import NOMINAL_IMPORT_NS, settle  # noqa: E402

WORKLOADS = {
    "wbc-1shard": "single WBCServer, 200 volunteers with churn, 100-tick episodes: no router, codec, journal or relay",
    "wbc-16shard": "the same traffic on ShardedWBCServer(shards=16): router, codec, journal, relay",
    "wbc-crash": "4 shards, leases, a cut every 3 ticks, one-tick crash->restore outages of 2 shards every 3 ticks",
    "lint-src": "reprolint over src/ with jobs=1: cold, fully warm, and one-function edits",
}

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("tasks_per_s", "1/s"),
    ("request_us_p50", "us"),
    ("request_us_p90", "us"),
    ("submit_us_p50", "us"),
    ("submit_us_p90", "us"),
    ("restore_ms_p50", "ms"),
    ("restore_ms_p90", "ms"),
    ("checkpoint_kb_per_cut", "KiB"),
    ("index_bits", "bits"),
    ("lint_cold_s", "s"),
    ("lint_warm_ms_p50", "ms"),
    ("lint_warm_ms_p90", "ms"),
    ("lint_edit_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

_STEADY = "submit_us_p50 -> wbc-1shard, wbc-16shard"
#: (name, unit, the end-to-end metric and workload it should move).
PER_LAYER = [
    ("sharding.self_ns_per_task", "ns", "tasks_per_s, submit_us_p50 -> wbc-16shard; none on wbc-1shard"),
    ("server.self_ns_per_task", "ns", "tasks_per_s, submit_us_p50 -> wbc-1shard"),
    ("codecs.decode_calls_per_task", "count", "submit_us_p50, tasks_per_s -> wbc-16shard"),
    ("codecs.self_ns_per_task", "ns", "submit_us_p50, tasks_per_s -> wbc-16shard"),
    ("allocator.inverse_calls_per_task", "count", _STEADY),
    ("allocator.self_ns_per_task", "ns", _STEADY),
    ("frontend.self_ns_per_task", "ns", _STEADY),
    ("engine.self_ns_per_task", "ns", "request_us_p50, submit_us_p50 -> all wbc-*"),
    ("ledger.self_ns_per_task", "ns", "tasks_per_s -> wbc-crash"),
    ("ledger.reap_scan_ms_per_tick", "ms", "tasks_per_s -> wbc-crash"),
    ("ledger.restore_ms_per_restore", "ms", "restore_ms_p50 -> wbc-crash"),
    ("recovery.journal_ns_per_op", "ns", "submit_us_p50 -> wbc-16shard"),
    ("recovery.journal_bytes_per_op", "B", "submit_us_p50 -> wbc-16shard; checkpoint_kb_per_cut -> wbc-crash"),
    ("recovery.cut_ms_per_checkpoint", "ms", "checkpoint_kb_per_cut, tasks_per_s -> wbc-crash"),
    ("recovery.replay_ops_per_restore", "count", "restore_ms_p90 -> wbc-crash"),
    ("recovery.replay_ms_per_restore", "ms", "restore_ms_p90 -> wbc-crash"),
    ("events.publish_calls_per_task", "count", "tasks_per_s -> wbc-16shard"),
    ("events.self_ns_per_task", "ns", "tasks_per_s -> wbc-16shard"),
    ("simulation.self_ns_per_task", "ns", "tasks_per_s -> all wbc-*"),
    ("trace.unattributed_ns_per_task", "ns", "(time inside WBCSimulation.run that no finer span covers)"),
    ("trace.self_sum_share", "ratio", "(layer self times with unattributed / traced wall; within 10% of 1)"),
    ("trace.overhead_ratio", "ratio", "(traced / untraced tasks_per_s)"),
    ("loader.parse_ms", "ms", "lint_cold_s -> lint-src"),
    ("summaries.extract_ms", "ms", "lint_cold_s -> lint-src"),
    ("summaries.fixpoint_ms", "ms", "lint_cold_s -> lint-src"),
    ("runner.analyze_file_ms", "ms", "lint_cold_s -> lint-src"),
    *[(f"checkers.R00{i}_ms", "ms", "lint_cold_s -> lint-src") for i in range(1, 7)],
    ("cache.load_ms", "ms", "lint_warm_ms_p50, lint_edit_ms_p50 -> lint-src"),
    ("cache.hash_ms", "ms", "lint_warm_ms_p50, lint_edit_ms_p50 -> lint-src"),
    ("cache.plan_ms", "ms", "lint_edit_ms_p50 -> lint-src"),
    ("cache.save_ms", "ms", "lint_warm_ms_p50, lint_edit_ms_p50 -> lint-src"),
    ("cache.files_reanalyzed", "count", "lint_edit_ms_p50 -> lint-src"),
    ("cache.closure_files", "count", "lint_edit_ms_p50 -> lint-src"),
]

#: Sizes, for a run of ``RUN_SECONDS`` (``run_seconds`` in BENCHMARK.json);
#: a shorter ``--seconds`` scales every count down, to 1 at the least, so
#: ``--seconds 1`` is the smoke size.  A workload's own phase measures for
#: ``--seconds``; the metrics it does not exercise come from a companion
#: phase (the ``wbc-crash`` phase, or reprolint over ``src/repro/core``),
#: so every workload reports every metric.
RUN_SECONDS = 10
LINT_PLANS = {
    ("lint-src", False): lint.LintPlan("", cold=2, warm=100, edits=12),
    ("lint-src", True): lint.LintPlan("", cold=1, warm=0, edits=4),
    ("companion", False): lint.LintPlan("repro/core", cold=3, warm=200, edits=12),
    ("companion", True): lint.LintPlan("repro/core", cold=1, warm=0, edits=4),
}
WBC_COMPANIONS = ("wbc-crash", "wbc-1shard")
WBC_LAYER_NAMES = [
    name for name, _unit, _target in PER_LAYER
    if not name.startswith(("loader.", "summaries.", "runner.", "checkers.", "cache."))
]
#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_RUNS = 9
#: Where runs write: span traces, and a scratch copy of src/ per process.
OUTPUT = ROOT / "perfbench-out"


class Report:
    """Metric values with where they came from, for the readable report."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.notes: dict[str, str] = {}

    def put(self, name: str, value: float, note: str) -> None:
        self.values[name] = value
        self.notes[name] = note


def timing_note(source: str, raw_ns: float, scale: float) -> str:
    return f"[{source}] raw wall {raw_ns / 1e9:.3f} s, drift scale {scale:.4f}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def scaled(count: int, seconds: float) -> int:
    """*count*, sized for ``RUN_SECONDS``, scaled to a run of *seconds*."""
    return max(1, round(count * seconds / RUN_SECONDS)) if count else 0


def setup_seconds(workload: str, seed: int, runs: int) -> tuple[float, list[float], float]:
    """Median corrected set-up time over *runs* fresh interpreters, each
    scaled by its own import reference."""
    corrected, raws = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        raws.append(sample["raw_ns"] / 1e9)
        corrected.append(sample["raw_ns"] * NOMINAL_IMPORT_NS / sample["reference_ns"] / 1e9)
    return statistics.median(corrected), corrected, statistics.median(raws)


def wbc_metrics(report: Report, tally: wbc.WbcTally, source: str) -> None:
    note = timing_note(source, tally.raw_ns, tally.scale)
    report.put("tasks_per_s", tally.tasks_per_s,
               f"{note}; {tally.tasks} tasks in {tally.episodes} episodes")
    for name, samples in (("request", tally.request), ("submit", tally.submit)):
        for q in (50, 90):
            report.put(f"{name}_us_p{q}", samples.percentile(q) / 1e3,
                       f"{note}; n={len(samples)}")
    report.put("index_bits", tally.index_bits, f"[{source}]")


def restore_metrics(report: Report, tally: wbc.WbcTally, source: str) -> None:
    note = timing_note(source, tally.raw_ns, tally.scale)
    for q in (50, 90):
        report.put(f"restore_ms_p{q}", tally.restore.percentile(q) / 1e6,
                   f"{note}; n={len(tally.restore)}")
    report.put("checkpoint_kb_per_cut", tally.cut_bytes / tally.cuts / 1024,
               f"[{source}] {tally.cuts} cuts")


def lint_metrics(report: Report, tally: lint.LintTally, source: str) -> None:
    note = timing_note(source, tally.raw_ns, tally.scale)
    report.put("lint_cold_s", statistics.median(tally.cold_s),
               f"{note}; median of {len(tally.cold_s)} cold runs over {tally.files} files")
    warm = sorted(tally.warm_ms)
    for q in (50, 90):
        report.put(f"lint_warm_ms_p{q}", wbc.percentile(warm, q), f"{note}; n={len(warm)}")
    report.put("lint_edit_ms_p50", statistics.median(tally.edit_ms),
               f"{note}; n={len(tally.edit_ms)}, re-analyzed {tally.reanalyzed}")
    if tally.own_discovery:
        report.notes["lint_cold_s"] += "; files listed below the checkout's hidden ancestor"


class Run:
    def __init__(self, args) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        # Not under a hidden directory: reprolint skips those.
        self.work = OUTPUT / f"work-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.report = Report()

    def lint_plan(self, traced: bool) -> lint.LintPlan:
        key = "lint-src" if self.workload == "lint-src" else "companion"
        plan = LINT_PLANS[(key, traced)]
        return lint.LintPlan(plan.subtree, *(scaled(n, self.seconds)
                                             for n in (plan.cold, plan.warm, plan.edits)))

    def add_wbc(self, tally: wbc.WbcTally, label: str) -> None:
        self.attempted += tally.attempted
        self.failed += tally.failed
        for name, count in tally.failure_counts().items():
            self.failures[name] = self.failures.get(name, 0) + count
        self.problems += [f"{label}: {p}" for p in tally.problems()]

    def run_lint(self, tracers=None) -> lint.LintTally:
        tally = lint.LintTally()
        tree = lint.copy_tree(ROOT, self.work)
        settle()
        lint.run(self.lint_plan(tracers is not None), ROOT, tree,
                 self.work / "reprolint-cache.json", self.seed, tally, tracers)
        self.attempted += tally.attempted
        self.failed += tally.failed
        self.problems += [f"lint: {p}" for p in tally.problems]
        return tally

    def crash_companion(self) -> wbc.WbcTally:
        tally = wbc.measure("wbc-crash", self.seed, wbc.episodes_for("wbc-crash", self.seconds))
        self.add_wbc(tally, "wbc-crash companion")
        return tally

    # -- timed run (end-to-end metrics) ----------------------------------

    def timed(self) -> None:
        import repro.staticcheck  # noqa: F401  (bytecode compiled before the probes)
        import repro.webcompute  # noqa: F401

        report = self.report
        setup, samples, raw = setup_seconds(self.workload, self.seed,
                                            scaled(SETUP_RUNS, self.seconds))
        report.put("setup_s", setup, f"median of {len(samples)} fresh interpreters, each scaled "
                   f"by an import reference (corrected {', '.join(f'{s:.3f}' for s in samples)}; "
                   f"raw median {raw:.3f} s)")
        if self.workload == "lint-src":
            tally = self.run_lint()
            lint_metrics(report, tally, "lint-src")
            report.put("peak_rss_mb", peak_rss_mb(), "[lint-src] ru_maxrss after the lint phase")
            crash = self.crash_companion()
            wbc_metrics(report, crash, "wbc-crash companion")
            restore_metrics(report, crash, "wbc-crash companion")
            return
        main = wbc.measure(self.workload, self.seed, wbc.episodes_for(self.workload, self.seconds))
        self.add_wbc(main, self.workload)
        report.put("peak_rss_mb", peak_rss_mb(), f"[{self.workload}] ru_maxrss after the main phase")
        wbc_metrics(report, main, self.workload)
        if main.restores:
            restore_metrics(report, main, self.workload)
        else:
            restore_metrics(report, self.crash_companion(), "wbc-crash companion")
        lint_metrics(report, self.run_lint(), "lint companion: src/repro/core")

    # -- traced run (per-layer metrics) ----------------------------------

    def traced(self) -> None:
        trace_path = OUTPUT / "traces" / f"{self.workload}-seed{self.seed}.jsonl"
        header = {"workload": self.workload, "seed": self.seed}
        if self.workload == "lint-src":
            cold, _edit = self.traced_lint("lint-src")
            cold.write(trace_path, {**header, "phase": "lint cold"})
        # The workload's own episode first; companions fill the layers it
        # does not exercise (restores, leases and codecs; the WBCServer).
        sources = [w for w in (self.workload, *WBC_COMPANIONS) if w.startswith("wbc-")]
        for i, workload in enumerate(dict.fromkeys(sources)):
            if i and all(name in self.report.values for name in WBC_LAYER_NAMES):
                break
            source = workload if i == 0 and workload == self.workload else f"{workload} companion"
            tracer = self.traced_wbc(workload, source, only_missing=i > 0)
            if workload == self.workload:
                tracer.write(trace_path, header)
        if self.workload != "lint-src":
            self.traced_lint("lint companion: src/repro/core")

    def traced_wbc(self, workload: str, source: str, only_missing: bool):
        """One untraced and one traced episode of *workload*: they must
        agree, and the traced one gives the per-layer table."""
        seed = wbc.episode_seed(self.seed, 0)
        untraced = wbc.WbcTally()
        plain, _ = wbc.run_episode(workload, seed, untraced)
        self.add_wbc(untraced, f"{source} untraced")
        tracer = tracing.Tracer()
        traced = wbc.WbcTally()
        outcome, _ = wbc.run_episode(workload, seed, traced, tracer, patch=_wbc_patcher(tracer))
        self.add_wbc(traced, f"{source} traced")
        for field in dataclasses.fields(outcome):
            before, after = getattr(plain, field.name), getattr(outcome, field.name)
            if before != after:
                self.problems.append(f"{source}: tracing changed behaviour: {field.name} "
                                     f"{before} untraced, {after} traced")
        self.layer_table(tracer, traced, untraced, outcome, source, only_missing)
        return tracer

    def traced_lint(self, source: str):
        report = self.report
        cold, edit = tracing.Tracer(), tracing.Tracer()
        tally = self.run_lint(((cold, tracing.patch_lint), (edit, tracing.patch_lint)))
        runs = len(tally.cold_s)
        for layer, name in (("loader", "loader.parse_ms"),
                            ("summaries.extract", "summaries.extract_ms"),
                            ("summaries.fixpoint", "summaries.fixpoint_ms"),
                            ("runner.analyze_file", "runner.analyze_file_ms")):
            report.put(name, cold.layer_ns(layer) / 1e6 / runs, f"[{source}] self time per cold run")
        for i in range(1, 7):
            report.put(f"checkers.R00{i}_ms", cold.layer_ns(f"checkers.R00{i}") / 1e6 / runs,
                       f"[{source}] self time per cold run")
        edits = len(tally.edit_ms)
        for part in ("load", "hash", "plan", "save"):
            report.put(f"cache.{part}_ms", edit.layer_ns(f"cache.{part}") / 1e6 / edits,
                       f"[{source}] self time per edit run")
        report.put("cache.files_reanalyzed", statistics.mean(tally.reanalyzed),
                   f"[{source}] per edit run {tally.reanalyzed}")
        report.put("cache.closure_files", statistics.mean(tally.closure),
                   f"[{source}] per edit run {tally.closure}")
        return cold, edit

    def layer_table(self, tracer, tally: wbc.WbcTally, untraced: wbc.WbcTally, outcome,
                    source: str, only_missing: bool) -> None:
        """Per-layer WBC metrics from one traced episode, for the layers it
        exercised.  With *only_missing*, metrics already reported by an
        earlier episode are kept."""
        tasks = outcome.tasks_completed
        ticks = outcome.ticks
        restores = outcome.shard_restores
        present = {"always"}
        if restores:
            present.add("restores")
        for layer in ("codecs", "sharding", "server"):
            if tracer.layer_calls(layer):
                present.add(layer)
        if tracer.calls("AccountabilityLedger.outstanding_tasks"):
            present.add("reap")
        if tracer.calls("CheckpointStore.journal"):
            present.add("journal")
        if tracer.calls("ShardedWBCServer.checkpoint_shard"):
            present.add("cuts")
        wall = tally.corrected_ns - tracer.layer_ns("bench")
        share = tracer.attributed_ns() / wall
        values = {
            "sharding.self_ns_per_task": ("sharding", tracer.layer_ns("sharding") / tasks),
            "server.self_ns_per_task": ("server", tracer.layer_ns("server") / tasks),
            "codecs.decode_calls_per_task": ("codecs", tracer.calls("codec.unpair") / tasks),
            "codecs.self_ns_per_task": ("codecs", tracer.layer_ns("codecs") / tasks),
            "allocator.inverse_calls_per_task": ("always", tracer.calls("apf.unpair") / tasks),
            "allocator.self_ns_per_task": ("always", tracer.layer_ns("allocator") / tasks),
            "frontend.self_ns_per_task": ("always", tracer.layer_ns("frontend") / tasks),
            "engine.self_ns_per_task": ("always", tracer.layer_ns("engine") / tasks),
            "ledger.self_ns_per_task": ("always", tracer.layer_ns("ledger") / tasks),
            "ledger.reap_scan_ms_per_tick": (
                "reap", tracer.incl_ns("AccountabilityLedger.outstanding_tasks") / 1e6 / ticks),
            "ledger.restore_ms_per_restore": ("restores", (
                tracer.incl_ns("AccountabilityLedger.restore_state")
                + tracer.incl_ns("AccountabilityLedger.apply_delta")) / 1e6 / max(restores, 1)),
            "recovery.journal_ns_per_op": ("journal", tracer.incl_ns("CheckpointStore.journal")
                                           / max(tracer.calls("CheckpointStore.journal"), 1)),
            "recovery.journal_bytes_per_op": ("journal", tracer.journal_bytes
                                              / max(tracer.calls("CheckpointStore.journal"), 1)),
            "recovery.cut_ms_per_checkpoint": ("cuts", tracer.incl_ns("ShardedWBCServer.checkpoint_shard")
                                               / 1e6 / max(tracer.calls("ShardedWBCServer.checkpoint_shard"), 1)),
            "recovery.replay_ops_per_restore": ("restores", tracer.calls("apply_op") / max(restores, 1)),
            "recovery.replay_ms_per_restore": ("restores", (
                tracer.incl_ns("apply_op") + tracer.incl_ns("AllocationEngine.apply_delta"))
                / 1e6 / max(restores, 1)),
            "events.publish_calls_per_task": ("always", tracer.calls("EventBus.publish") / tasks),
            "events.self_ns_per_task": ("always", tracer.layer_ns("events") / tasks),
            "simulation.self_ns_per_task": ("always", tracer.layer_ns("simulation") / tasks),
            "trace.unattributed_ns_per_task": ("always", tracer.layer_ns(tracing.UNATTRIBUTED) / tasks),
            "trace.self_sum_share": ("always", share),
        }
        note = timing_note(source, tally.raw_ns, tally.scale)
        notes = {"trace.self_sum_share": (
            f"{note}; layer self times {tracer.attributed_ns() / 1e6:.1f} ms of "
            f"{wall / 1e6:.1f} ms wall, unattributed "
            f"{tracer.layer_ns(tracing.UNATTRIBUTED) / wall:.1%} of the wall")}
        for name, (needs, value) in values.items():
            if needs in present and not (only_missing and name in self.report.values):
                self.report.put(name, value, notes.get(name, note))
        if not (only_missing and "trace.overhead_ratio" in self.report.values):
            self.report.put("trace.overhead_ratio", tally.tasks_per_s / untraced.tasks_per_s,
                            f"[{source}] traced {tally.tasks_per_s:.0f} / untraced "
                            f"{untraced.tasks_per_s:.0f} tasks/s")
        if abs(share - 1) > 0.10:
            self.problems.append(
                f"{source}: layer self times sum to {share:.3f} of traced wall (limit 10%)")


def _wbc_patcher(tracer):
    return lambda apf_class, composer_class: tracing.patch_wbc(tracer, apf_class, composer_class)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({src / 'repro'} not found)", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    run = Run(args)
    try:
        run.traced() if args.trace else run.timed()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    table = PER_LAYER if args.trace else END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={sys.version.split()[0]}")
    print(f"  workload: {WORKLOADS[args.workload]}")
    metrics = {}
    for entry in table:
        name, unit = entry[0], entry[1]
        if name not in run.report.values:
            run.problems.append(f"metric {name} was not measured")
            continue
        value = run.report.values[name]
        metrics[name] = {"value": value, "unit": unit}
        target = f"  -> {entry[2]}" if len(entry) > 2 else ""
        print(f"  {name:34s} {value:14.4f} {unit:6s} {run.report.notes[name]}{target}")
    breakdown = ", ".join(f"{name} {count}" for name, count in run.failures.items())
    print(f"  attempted {run.attempted}, failed {run.failed} ({breakdown})")
    for problem in run.problems:
        print(f"  FAILED CHECK: {problem}")
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
