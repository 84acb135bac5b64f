"""One set-up measurement in a fresh interpreter.

Times importing the program and building a workload's initial state --
the simulation with its server (and, for the sharded workloads, every
shard's engine and first checkpoint), or the reprolint config -- then
times the import reference (:func:`perfbench.calibrate.import_reference_ns`)
and prints ``{"raw_ns", "reference_ns"}``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter_ns()
    if workload.startswith("wbc-"):
        from perfbench.wbc import build_simulation

        build_simulation(workload, seed)
    else:
        import repro.staticcheck  # noqa: F401
        from repro.staticcheck.config import load_config

        load_config(ROOT / "src")
    raw = time.perf_counter_ns() - start
    from perfbench.calibrate import import_reference_ns

    print(json.dumps({"raw_ns": raw, "reference_ns": import_reference_ns()}))


if __name__ == "__main__":
    main()
