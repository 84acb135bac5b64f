"""The sharded router decodes each global index once per call.

``ShardedWBCServer.submit_result`` and ``attribute`` decode the global
index to ``(shard, local)`` to pick the shard, and hand ``local`` down to
the shard engine, which runs the APF inverse (``T^-1``) and the epoch
check on it without decoding again.  These tests count the decodes and
inverses of a seeded 16-shard simulation exactly, and pin that a forged
cross-shard submission is still refused on both the router's decoded
path and the engine's own undecoded one.
"""

from __future__ import annotations

import functools

import pytest

from repro.apf.families import TSharp
from repro.errors import AllocationError
from repro.webcompute.sharding import ShardedWBCServer
from repro.webcompute.simulation import SimulationConfig, WBCSimulation
from repro.webcompute.volunteer import VolunteerProfile


def count_calls(monkeypatch, cls: type, name: str, counts: dict, key: str) -> None:
    original = getattr(cls, name)

    @functools.wraps(original)
    def counted(self, *args, **kwargs):
        counts[key] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


def test_two_decodes_and_two_inverses_per_completed_task(monkeypatch):
    sim = WBCSimulation(
        TSharp(),
        SimulationConfig(
            ticks=40,
            initial_volunteers=48,
            arrival_rate=0.5,
            departure_rate=0.01,
            shards=16,
            seed=13,
        ),
    )
    counts = {"composer": 0, "apf": 0}
    count_calls(monkeypatch, type(sim.server.composer), "unpair", counts, "composer")
    count_calls(monkeypatch, type(sim.server.engines[0].apf), "unpair", counts, "apf")
    try:
        outcome = sim.run()
    finally:
        sim.close()
    assert outcome.tasks_completed > 500
    assert outcome.attribution_failures == 0
    # One decode in submit_result, one in the attribution check.
    assert counts["composer"] == 2 * outcome.tasks_completed
    # The exact T^-1 check runs on both paths.
    assert counts["apf"] == 2 * outcome.tasks_completed


class TestForgedCrossShardSubmission:
    def setup_method(self):
        self.server = ShardedWBCServer(TSharp(), shards=16, verification_rate=1.0)
        self.owner, self.forger = self.server.register_round(
            [VolunteerProfile("owner"), VolunteerProfile("forger")]
        )
        assert self.server.shard_of(self.owner) != self.server.shard_of(self.forger)
        self.server.tick()
        self.task = self.server.request_task(self.owner)

    def pending(self) -> list[int]:
        return [store.pending_ops for store in self.server._stores]

    def test_router_refuses_it(self):
        before = self.pending()
        with pytest.raises(AllocationError, match="attributes to volunteer"):
            self.server.submit_result(
                self.forger, self.task.index, self.task.expected_result
            )
        assert self.pending() == before  # a refused call journals nothing
        self.server.submit_result(self.owner, self.task.index, self.task.expected_result)

    def test_undecoded_engine_entry_refuses_it(self):
        """Called without ``local``, the forger's own engine decodes the
        index and finds it belongs to another shard."""
        engine = self.server.engines[self.server.shard_of(self.forger)]
        owner_shard = self.server.shard_of(self.owner)
        with pytest.raises(AllocationError, match=f"belongs to shard {owner_shard}"):
            engine.submit_result(self.forger, self.task.index, self.task.expected_result)
        with pytest.raises(AllocationError, match=f"belongs to shard {owner_shard}"):
            engine.attribute(self.task.index)
