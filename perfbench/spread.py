"""Run the benchmark over two sets of seeds and summarise its steadiness.

    python3 perfbench/spread.py --runs 10

Every workload in ``BENCHMARK.json`` runs with seeds ``1..runs`` (set 1)
and ``runs+1..2*runs`` (set 2).  For every end-to-end metric it prints
each set's median and quartile spread ``(Q3 - Q1) / median`` next to the
metric's bound, and how far set 2's median moved from set 1's; a spread
over a third of the bound, or a move over the bound, is flagged and
makes the exit code 1.  It also prints the ``wbc-16shard`` /
``wbc-1shard`` ``tasks_per_s`` ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    runs = parser.parse_args(argv).runs

    steady = True
    tasks_per_s: dict[str, float] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for first in (1, runs + 1):
            results = []
            for seed in range(first, first + runs):
                results.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"{workload} seed {seed}: correct={results[-1]['correct']}", flush=True)
            sets.append(results)
        print(f"\n{workload} ({runs} runs per set)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in results] for results in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            moved = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                moved = -moved
            flags = ["spread over bound/3"] if max(spreads) > bound / 3 else []
            flags += ["median moved over bound"] if moved > bound else []
            steady &= not flags
            print(f"  {name:24s} median {medians[0]:12.4f} {medians[1]:12.4f} {metric['unit']:5s} "
                  f"spread {spreads[0]:.4f} {spreads[1]:.4f}  moved {moved:+.4f}  "
                  f"bound {bound:.2f}{'  <-- ' + ', '.join(flags) if flags else ''}", flush=True)
        tasks_per_s[workload] = statistics.median(
            r["metrics"]["tasks_per_s"]["value"] for results in sets for r in results)
    one, sixteen = tasks_per_s.get("wbc-1shard"), tasks_per_s.get("wbc-16shard")
    if one and sixteen:
        print(f"\nwbc-16shard / wbc-1shard tasks_per_s: {sixteen:.1f} / {one:.1f} = {sixteen / one:.3f}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
