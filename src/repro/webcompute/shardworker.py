"""Worker-process execution of engine shards (the parallel half of
:mod:`~repro.webcompute.sharding`).

A :class:`~repro.webcompute.engine.AllocationEngine` is deterministic and
journal-replayable, which makes it *shippable*: the sharded router can run
each shard's engine in a separate OS process and drive it with exactly the
ops it would otherwise journal.  This module holds everything that crosses
the process boundary:

* :func:`shard_codec` -- builds a shard's
  :class:`~repro.webcompute.engine.IndexCodec` from ``(composer, shard)``.
  The codec's closures are *not* picklable, so the parent never ships a
  codec; it ships the pair of values and both sides rebuild the same
  bijection from them (the parent for its serial mode, the worker for its
  hosted engines).
* :class:`EngineSpec` -- the picklable recipe for one shard's engine
  (APF, composer, shard number, ledger knobs, seed).  ``build()`` runs on
  the worker side and must produce an engine bit-identical to the one the
  serial router would construct.
* :func:`worker_main` -- the worker process loop: applies journal-grammar
  ops to its hosted engines, answers read-only queries, rebuilds a shard
  via the streaming-restore protocol (``restore_begin`` installs the base
  checkpoint, ``restore_apply`` folds delta segments and replays journaled
  ops in arrival order, ``restore_finish`` promotes the engine and attaches
  its event tap), and returns every event its engines published (the
  parent re-publishes them onto the global bus, so the typed event stream
  survives the process boundary).
* :class:`WorkerHandle` -- the parent-side endpoint: one child process +
  one duplex pipe, with split ``start``/``finish`` so the router can fan a
  batch out to every worker before collecting any reply (the overlap that
  makes multi-core sharding actually parallel).

Protocol: one request message, one reply.  Every reply is
``(status, payload, events)`` where ``events`` is the ordered list of
events the hosted engines published since the previous reply, each
already stamped with its shard.  A worker process dying surfaces as
:class:`WorkerDiedError` on the parent side; the router maps that onto
the existing ``crash_shard``/``restore_shard`` fault path, so a real
process death is indistinguishable from an injected crash.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any

from repro.apf.base import AdditivePairingFunction
from repro.core.base import PairingFunction
from repro.errors import AllocationError, RecoveryError, ShardDownError
from repro.webcompute.engine import AllocationEngine, IndexCodec
from repro.webcompute.events import EventBus
from repro.webcompute.recovery import replay
from repro.webcompute.volunteer import VolunteerProfile

__all__ = ["shard_codec", "EngineSpec", "WorkerHandle", "WorkerDiedError", "worker_main"]


class WorkerDiedError(ShardDownError):
    """The worker process behind a shard died mid-conversation.  A
    transient :class:`~repro.errors.ShardDownError`: the router crashes
    the hosted shards and the caller retries after ``restore_shard``."""


def shard_codec(composer: PairingFunction, shard: int) -> IndexCodec:
    """Shard *shard*'s slice of the global index space: row ``shard + 1``
    of *composer* (1-indexed, like everything in the paper).  Built from
    plain values so the serial router and the worker process construct
    the identical bijection independently."""
    shard_no = shard + 1

    def encode(local: int) -> int:
        return composer.pair(shard_no, local)

    def decode(global_index: int) -> int:
        x, y = composer.unpair(global_index)
        if x != shard_no:
            raise AllocationError(
                f"task {global_index} belongs to shard {x - 1}, not {shard}"
            )
        return y

    return IndexCodec(encode=encode, decode=decode)


@dataclass(frozen=True, slots=True)
class EngineSpec:
    """The picklable recipe for one shard's engine.  ``build()`` must
    reproduce exactly what the serial router's ``_fresh_engine`` builds:
    same seed offset, same codec, same ledger knobs, and a bus carrying
    the shard id, so worker-side events are stamped where they are
    built."""

    apf: AdditivePairingFunction
    composer: PairingFunction
    shard: int
    verification_rate: float
    ban_after_strikes: int
    seed: int
    lease_ticks: int | None

    def build(self) -> AllocationEngine:
        return AllocationEngine(
            self.apf,
            verification_rate=self.verification_rate,
            ban_after_strikes=self.ban_after_strikes,
            seed=self.seed + self.shard,
            codec=shard_codec(self.composer, self.shard),
            bus=EventBus(shard=self.shard),
            lease_ticks=self.lease_ticks,
        )


# ----------------------------------------------------------------------
# Worker-side op and query dispatch
# ----------------------------------------------------------------------


def _apply_live_op(engine: AllocationEngine, op: list[Any]) -> Any:
    """Apply one journal-grammar op to a live engine and return its
    result (the journal replay path discards results; the live path
    ships them back to the router)."""
    kind = op[0]
    if kind == "tick":
        return engine.tick()
    if kind == "register":
        profiles = [VolunteerProfile.from_state(p) for p in op[1]]
        return engine.register_round(profiles, ids=list(op[2]))
    if kind == "validate_register":
        profiles = [VolunteerProfile.from_state(p) for p in op[1]]
        engine.validate_round(profiles, ids=list(op[2]))
        return None
    if kind == "depart":
        return engine.depart(op[1])
    if kind == "request":
        return engine.request_task(op[1])
    if kind == "submit":
        return engine.submit_result(op[1], op[2], op[3])
    if kind == "reap":
        return engine.reap_expired()
    if kind == "corrupt":
        return engine.mark_corrupted(op[1], op[2])
    if kind == "attribute_many":
        return [engine.attribute(index) for index in op[1]]
    raise RecoveryError(f"unknown worker op {kind!r}")


_QUERIES = {
    "clock": lambda e: e.clock,
    "seated_count": lambda e: e.seated_count,
    "max_task_index": lambda e: e.max_task_index,
    "report": lambda e: e.report(),
    "is_banned": lambda e, vid: e.is_banned(vid),
    "profile_of": lambda e, vid: e.profile_of(vid),
    "attribute": lambda e, index: e.attribute(index),
    "locate": lambda e, index: e.locate(index),
    "task": lambda e, index: e.ledger.task(index),
    "snapshot_state": lambda e: e.snapshot_state(),
    "snapshot_delta": lambda e, since: e.snapshot_delta(since),
    "seated_volunteers": lambda e: e.frontend.seated_volunteers(),
    "row_of": lambda e, vid: e.frontend.row_of(vid),
    "volunteer_for": lambda e, row, serial: e.frontend.volunteer_for(row, serial),
    "allocator_attribute": lambda e, local: e.allocator.attribute(local),
}


def worker_main(conn, specs: dict[int, EngineSpec]) -> None:
    """The worker process body: host the engines described by *specs*
    and serve the router until a ``stop`` message or a closed pipe.

    Every reply carries the ordered stream of events (each stamped with
    its shard where it was built) published since the previous reply;
    restore attaches the event tap only *after* journal replay, so
    replayed history is never re-published -- the same discipline as the
    serial ``restore_shard``."""
    engines: dict[int, AllocationEngine] = {}
    restoring: dict[int, AllocationEngine] = {}
    pending_events: list[Any] = []

    for shard in sorted(specs):
        engine = specs[shard].build()
        engine.bus.subscribe(pending_events.append)
        engines[shard] = engine

    def drain() -> list[Any]:
        out = pending_events[:]
        pending_events.clear()
        return out

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        try:
            if kind == "ops":
                groups = []
                for shard, ops in message[1]:
                    engine = engines.get(shard)
                    if engine is None:
                        groups.append(
                            (
                                shard,
                                [
                                    (False, ShardDownError(f"shard {shard} is not hosted"))
                                    for _ in ops
                                ],
                            )
                        )
                        continue
                    results = []
                    for op in ops:
                        try:
                            results.append((True, _apply_live_op(engine, op)))
                        except Exception as exc:  # per-op outcome, shipped back
                            results.append((False, exc))
                    groups.append((shard, results))
                reply = ("ok", groups, drain())
            elif kind == "call":
                _kind, shard, name, args = message
                engine = engines.get(shard)
                if engine is None:
                    raise ShardDownError(f"shard {shard} is not hosted")
                reply = ("ok", _QUERIES[name](engine, *args), drain())
            elif kind == "restore_begin":
                _kind, shard, spec, state = message
                engine = spec.build()
                engine.restore_state(state)
                restoring[shard] = engine
                reply = ("ok", None, drain())
            elif kind == "restore_apply":
                _kind, shard, items = message
                engine = restoring.get(shard)
                if engine is None:
                    raise RecoveryError(f"shard {shard} is not restoring here")
                applied = 0
                for item_kind, item in items:
                    if item_kind == "delta":
                        engine.apply_delta(item)
                    else:
                        applied += replay(engine, [item], start=applied)
                reply = ("ok", applied, drain())
            elif kind == "restore_finish":
                shard = message[1]
                engine = restoring.pop(shard, None)
                if engine is None:
                    raise RecoveryError(f"shard {shard} is not restoring here")
                engine.bus.subscribe(pending_events.append)
                engines[shard] = engine
                issued = engine.ledger.tasks_issued_count()
                reply = ("ok", (issued, engine.clock), drain())
            elif kind == "drop":
                engines.pop(message[1], None)
                restoring.pop(message[1], None)
                reply = ("ok", None, drain())
            elif kind == "stop":
                conn.send(("ok", None, drain()))
                return
            else:
                raise RecoveryError(f"unknown worker message {kind!r}")
        except Exception as exc:
            reply = ("err", exc, drain())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class WorkerHandle:
    """Parent-side endpoint for one worker process.

    ``start``/``finish`` are split so the router can ship a batch to every
    worker before collecting any reply -- with one round of pickling on
    each side, the engines crunch their shards concurrently.  Any pipe
    failure marks the handle dead and raises :class:`WorkerDiedError`;
    the router maps that onto the shard-crash path.
    """

    def __init__(self, specs: dict[int, EngineSpec]) -> None:
        ctx = multiprocessing.get_context()
        self.connection, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=worker_main, args=(child, specs), daemon=True
        )
        self.process.start()
        child.close()
        self.alive = True
        self._awaiting = False

    def _die(self) -> WorkerDiedError:
        self.alive = False
        self._awaiting = False
        return WorkerDiedError(
            f"worker process pid={self.process.pid} died; its shards are "
            "crashed -- restore them and retry"
        )

    def start(self, message: tuple) -> None:
        """Ship one request without waiting for the reply."""
        if not self.alive:
            raise WorkerDiedError("worker process is not running")
        if self._awaiting:
            raise RecoveryError("worker has an outstanding request")
        try:
            self.connection.send(message)
        except (BrokenPipeError, OSError):
            raise self._die() from None
        self._awaiting = True

    def finish(self) -> tuple:
        """Collect the reply to the outstanding :meth:`start`."""
        if not self.alive:
            raise WorkerDiedError("worker process is not running")
        if not self._awaiting:
            raise RecoveryError("no outstanding request to finish")
        self._awaiting = False
        try:
            return self.connection.recv()
        except (EOFError, OSError):
            raise self._die() from None

    def request(self, message: tuple) -> tuple:
        """One synchronous round trip."""
        self.start(message)
        return self.finish()

    def close(self) -> None:
        """Stop the worker (graceful ``stop``, then terminate)."""
        if self.alive:
            try:
                self.request(("stop",))
            except (WorkerDiedError, RecoveryError):
                pass
            self.alive = False
        if self.process.is_alive():
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=1.0)
        self.connection.close()
