# Developer entry points.  `make check` is the pre-commit gate: the
# tier-1 test suite plus incremental-cached reprolint over src/ (warm
# lint runs are ~ms), nonzero exit on any failure or unsuppressed
# finding.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint lint-cold test bench-smoke perfbench-smoke

check: test lint

lint:
	$(PYTHON) -m repro.cli lint --cache src

lint-cold:  ## full re-analysis, ignoring and not writing the cache
	$(PYTHON) -m repro.cli lint --no-cache src

test:
	$(PYTHON) -m pytest -x -q

bench-smoke:
	$(PYTHON) -m pytest -q -m bench_smoke

# One-second run of each WBC workload of the repo's benchmark
# (BENCHMARK.json); any nonzero exit -- a failed correctness check, a
# crash -- fails the target.  ~15 s in total on 2 CPUs.
perfbench-smoke:
	@for workload in wbc-1shard wbc-16shard wbc-crash; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 1 --trace 0 || exit 1; \
	done
