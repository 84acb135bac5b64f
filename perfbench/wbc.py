"""WBC service workloads, driven through ``WBCSimulation``.

Each workload is a seeded ``SimulationConfig``; one *episode* is one
simulation of it from scratch.  The benchmark taps the simulation's
server (``sim.server``) at its public methods to time ``request_task``,
``submit_result`` and ``restore_shard`` from the calling side, to check that no
task index is issued twice, and to cut the run into chunks of ticks with
a calibration kernel between them (see :mod:`perfbench.calibrate`).
"""

from __future__ import annotations

import math
import random
import time
from array import array
from dataclasses import dataclass, field

from perfbench.calibrate import DriftClock, settle

#: Ticks per episode, and per drift-corrected chunk.
EPISODE_TICKS = 100
CHUNK_TICKS = 10
#: The steady workloads: arrivals (0.5 per tick) match departures
#: (0.5 / 200 per volunteer per tick at ~200 volunteers).
STEADY_VOLUNTEERS = 200
#: The crash workload: 4 shards, leases long enough that no return races
#: its own reissue, a cut every 3 ticks, compaction after 8 deltas.
CRASH_SHARDS = 4
CRASH_VOLUNTEERS = 64
CRASH_LEASE_TICKS = 64
CRASH_CUT_EVERY = 3
#: Episodes cycle through this many seeds derived from the run's seed,
#: so one run's figures average over several populations (a 10 s run is
#: 8 episodes: every derived seed once).
SUBSEEDS = 8
#: Nominal episode length (s) on the reference box: a run of ``--seconds``
#: runs ``round(seconds / nominal)`` episodes, a count fixed by its
#: arguments so one seed always gives the same inputs.
NOMINAL_EPISODE_S = {"wbc-1shard": 1.25, "wbc-16shard": 1.25, "wbc-crash": 1.25}


def wbc_config(workload: str, seed: int):
    from repro.webcompute import SimulationConfig

    ticks = EPISODE_TICKS
    if workload in ("wbc-1shard", "wbc-16shard"):
        return SimulationConfig(
            ticks=ticks,
            initial_volunteers=STEADY_VOLUNTEERS,
            arrival_rate=0.5,
            departure_rate=0.5 / STEADY_VOLUNTEERS,
            seed=seed,
            shards=1 if workload == "wbc-1shard" else 16,
        )
    if workload == "wbc-crash":
        # One-tick crash->restore outages of two random shards every third
        # tick (~64 per episode), starting one tick after a cut, so no shard is ever down
        # when a cut falls due and every seed cuts on the same schedule.
        rng = random.Random(seed ^ 0xC0FFEE)
        faults = []
        for tick in range(CRASH_CUT_EVERY + 1, ticks - 1, CRASH_CUT_EVERY):
            for shard in rng.sample(range(CRASH_SHARDS), 2):
                faults += [f"crash@{tick}:{shard}", f"restore@{tick + 1}:{shard}"]
        return SimulationConfig(
            ticks=ticks,
            initial_volunteers=CRASH_VOLUNTEERS,
            arrival_rate=0.5,
            departure_rate=0.5 / CRASH_VOLUNTEERS,
            seed=seed,
            shards=CRASH_SHARDS,
            lease_ticks=CRASH_LEASE_TICKS,
            checkpoint_every=CRASH_CUT_EVERY,
            compact_every=8,
            faults=",".join(faults),
        )
    raise ValueError(f"not a WBC workload: {workload}")


def build_simulation(workload: str, seed: int):
    from repro.apf.families import TSharp
    from repro.webcompute import WBCSimulation

    return WBCSimulation(TSharp(), wbc_config(workload, seed))


def sim_apf(sim):
    """The allocation APF the simulation's server runs on."""
    server = sim.server
    engine = server.engines[0] if hasattr(server, "engines") else server.engine
    return engine.apf


class Samples:
    """Call latencies: raw ns collect while a chunk runs and are scaled by
    the chunk's drift factor when it closes; percentiles are over every
    call.  A failed call is recorded as infinitely slow, so it misses
    every latency limit."""

    def __init__(self) -> None:
        self.pending = array("d")
        self.values = array("d")

    def close_chunk(self, scale: float) -> None:
        self.values.extend(v * scale for v in self.pending)
        del self.pending[:]

    def percentile(self, q: float) -> float:
        return percentile(sorted(self.values), q)

    def __len__(self) -> int:
        return len(self.values)


def percentile(ordered, q: float) -> float:
    """Linear-interpolated percentile *q* (0..100) of sorted values."""
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return math.inf if pos > lo or ordered[lo] == math.inf else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class WbcTally:
    """Everything the episodes of one phase measured."""

    episodes: int = 0
    tasks: int = 0
    raw_ns: int = 0
    corrected_ns: float = 0.0
    request: Samples = field(default_factory=Samples)
    submit: Samples = field(default_factory=Samples)
    restore: Samples = field(default_factory=Samples)
    attempted: int = 0
    raised: int = 0
    rejected: int = 0
    duplicates: int = 0
    attribution_failures: int = 0
    returns_retried: int = 0
    returns_abandoned: int = 0
    restores: int = 0
    cuts: int = 0
    cut_bytes: int = 0
    index_bits: int = 0

    @property
    def failed(self) -> int:
        return self.raised + self.attribution_failures

    def failure_counts(self) -> dict[str, int]:
        """The failure accounting: every exception the server raised to the simulation
        (each ``ShardDownError`` rejection among them), the returns the
        simulation retried or abandoned, and the attribution failures."""
        return {
            "raised": self.raised,
            "rejected": self.rejected,
            "returns_retried": self.returns_retried,
            "returns_abandoned": self.returns_abandoned,
            "attribution_failures": self.attribution_failures,
        }

    @property
    def scale(self) -> float:
        return self.corrected_ns / self.raw_ns if self.raw_ns else 1.0

    @property
    def tasks_per_s(self) -> float:
        return self.tasks / (self.corrected_ns / 1e9)

    def problems(self) -> list[str]:
        out = []
        if self.attribution_failures:
            out.append(f"{self.attribution_failures} attribution failures")
        if self.duplicates:
            out.append(f"{self.duplicates} task indices issued twice")
        return out


class _CutMeter:
    """Counts serialized checkpoint bytes per cut, read from each store's
    public byte counters right after the cut (class-level wrap, undone
    by :meth:`undo`)."""

    def __init__(self, tally: WbcTally) -> None:
        from repro.webcompute.recovery import CheckpointStore

        self.cls = CheckpointStore
        self.saved = {
            name: CheckpointStore.__dict__[name]
            for name in ("checkpoint_state", "checkpoint_delta")
        }
        full, delta = self.saved["checkpoint_state"], self.saved["checkpoint_delta"]

        def checkpoint_state(store, state):
            result = full(store, state)
            tally.cuts += 1
            tally.cut_bytes += store.base_bytes
            return result

        def checkpoint_delta(store, delta_state):
            result = delta(store, delta_state)
            tally.cuts += 1
            tally.cut_bytes += store.segment_bytes[-1]
            return result

        CheckpointStore.checkpoint_state = checkpoint_state
        CheckpointStore.checkpoint_delta = checkpoint_delta

    def undo(self) -> None:
        for name, fn in self.saved.items():
            setattr(self.cls, name, fn)


def run_episode(workload: str, seed: int, tally: WbcTally, tracer=None, patch=None):
    """Run one episode, adding its measurements to *tally*; returns the
    ``SimulationOutcome`` and the server.  With *tracer*, *patch* installs the span
    wrappers (given the APF and composer classes) just before the run and
    the caller-side latency taps are left out; spans are undone after."""
    from repro.errors import ShardDownError

    sim = build_simulation(workload, seed)
    server = sim.server
    clock = DriftClock(tracer)
    taps = (tally.request, tally.submit, tally.restore)
    elapsed = 0

    def boundary(stop: bool = False) -> None:
        scale = clock.stop() if stop else clock.boundary()
        if scale is not None:
            for samples in taps:
                samples.close_chunk(scale)

    server_class = type(server)

    def tick():
        nonlocal elapsed
        if elapsed and elapsed % CHUNK_TICKS == 0:
            boundary()
        elapsed += 1
        # Looked up per call, so the traced run's class-level wrapper runs.
        return server_class.tick(server)

    server.tick = tick
    if tracer is None:
        _tap_latencies(server, tally, ShardDownError)
    patches = None
    meter = None
    try:
        if tracer is not None:
            composer = getattr(server, "composer", None)
            patches = patch(
                type(sim_apf(sim)), type(composer) if composer is not None else None
            )
        meter = _CutMeter(tally)
        boundary()
        outcome = sim.run()
        boundary(stop=True)
    finally:
        if meter is not None:
            meter.undo()
        if patches is not None:
            patches.undo()
        sim.close()
    tally.episodes += 1
    tally.tasks += outcome.tasks_completed
    tally.raw_ns += clock.raw_ns
    tally.corrected_ns += clock.corrected_ns
    tally.attribution_failures += outcome.attribution_failures
    tally.returns_retried += outcome.returns_retried
    tally.returns_abandoned += outcome.returns_abandoned
    tally.restores += outcome.shard_restores
    tally.index_bits = max(tally.index_bits, outcome.max_task_index.bit_length())
    return outcome, server


def _tap_latencies(server, tally: WbcTally, shard_down: type) -> None:
    """Caller-side timing of the three user-visible calls, plus the
    no-double-issue check on every index ``request_task`` hands out."""
    issued: set[int] = set()
    clock = time.perf_counter_ns
    inf = math.inf

    def failed(samples: Samples, exc: BaseException) -> None:
        samples.pending.append(inf)
        tally.raised += 1
        if isinstance(exc, shard_down):
            tally.rejected += 1

    request_task = server.request_task
    submit_result = server.submit_result

    def timed_request(volunteer_id):
        tally.attempted += 1
        start = clock()
        try:
            task = request_task(volunteer_id)
        except BaseException as exc:
            failed(tally.request, exc)
            raise
        tally.request.pending.append(clock() - start)
        if task.index in issued:
            tally.duplicates += 1
        issued.add(task.index)
        return task

    def timed_submit(volunteer_id, task_index, result):
        tally.attempted += 1
        start = clock()
        try:
            submit_result(volunteer_id, task_index, result)
        except BaseException as exc:
            failed(tally.submit, exc)
            raise
        tally.submit.pending.append(clock() - start)

    server.request_task = timed_request
    server.submit_result = timed_submit
    restore_shard = getattr(server, "restore_shard", None)
    if restore_shard is not None:

        def timed_restore(shard):
            tally.attempted += 1
            start = clock()
            try:
                restore_shard(shard)
            except BaseException as exc:
                failed(tally.restore, exc)
                raise
            tally.restore.pending.append(clock() - start)

        server.restore_shard = timed_restore


def episode_seed(seed: int, episode: int) -> int:
    return seed * SUBSEEDS + episode % SUBSEEDS


def episodes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_EPISODE_S[workload]))


def measure(workload: str, seed: int, episodes: int) -> WbcTally:
    """*episodes* episodes of *workload*, cycling through the seed's
    derived episode seeds."""
    tally = WbcTally()
    for episode in range(episodes):
        settle()
        run_episode(workload, episode_seed(seed, episode), tally)
    return tally
