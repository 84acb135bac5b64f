"""Span tracing from outside the program.

The traced run wraps public functions of each layer at class (or module)
level, in the benchmark process only, and records one span per call:
name, start, end and parent.  A span's self time is its time minus its
child spans' time, charged to its layer when it closes.  The calibration
kernel's pauses are left out of every span, and a span still open when a
chunk of work closes (:meth:`Tracer.flush`) charges the part it spent in
that chunk, so each chunk's spans are scaled by that chunk's drift factor.

The simulation's ``run`` is the root span; its self time -- time inside
the run that no finer span covers -- is the ``unattributed`` layer.  Time
in a chunk outside every span is in no layer, which is what the traced
run's "self times sum to the wall" check measures.

Spans are kept in memory (up to :data:`SPAN_CAP` verbatim; every span is
aggregated) and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

UNATTRIBUTED = "unattributed"
#: The benchmark's own bookkeeping inside a traced region (journal byte
#: counting); excluded from every layer sum.
BENCH = "bench"
#: Spans kept verbatim for the trace file; later spans are aggregated only.
SPAN_CAP = 100_000

# An open span: [fn, start, span id, parent id, segment start, child ns].
# The segment is the part of the span in the current chunk, and child ns
# the time its closed children spent in that segment.
_FN, _START, _ID, _PARENT, _SEGMENT, _CHILD = range(6)


class Tracer:
    def __init__(self) -> None:
        self.layer_names: list[str] = []
        self._layer_index: dict[str, int] = {}
        self.fn_names: list[str] = []
        self.fn_layer: list[int] = []
        self._fn_index: dict[str, int] = {}
        self._chunk_self: list[int] = []
        self.self_ns: list[float] = []
        self.fn_calls: list[int] = []
        self._chunk_incl: list[int] = []
        self.fn_incl_ns: list[float] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.span_count = 0
        self.journal_bytes = 0
        self._stack: list[list[int]] = []
        self._paused_at = 0
        self.bench_fn = self.function("bench", BENCH)

    def _layer(self, name: str) -> int:
        index = self._layer_index.get(name)
        if index is None:
            index = self._layer_index[name] = len(self.layer_names)
            self.layer_names.append(name)
            self._chunk_self.append(0)
            self.self_ns.append(0.0)
        return index

    def function(self, name: str, layer: str) -> int:
        index = self._fn_index.get(name)
        if index is None:
            index = self._fn_index[name] = len(self.fn_names)
            self.fn_names.append(name)
            self.fn_layer.append(self._layer(layer))
            self.fn_calls.append(0)
            self._chunk_incl.append(0)
            self.fn_incl_ns.append(0.0)
        return index

    def enter(self, fn: int) -> None:
        now = time.perf_counter_ns()
        span_id = self.span_count
        self.span_count += 1
        stack = self._stack
        parent = stack[-1][_ID] if stack else -1
        stack.append([fn, now, span_id, parent, now, 0])

    def exit(self) -> None:
        now = time.perf_counter_ns()
        stack = self._stack
        fn, start, span_id, parent, segment, child = stack.pop()
        spent = now - segment
        self._chunk_self[self.fn_layer[fn]] += spent - child
        self._chunk_incl[fn] += spent
        self.fn_calls[fn] += 1
        if stack:
            stack[-1][_CHILD] += spent
        if len(self.spans) < SPAN_CAP and fn != self.bench_fn:
            self.spans.append((fn, start, now, span_id, parent))

    def pause(self) -> None:
        """The current chunk ends now; :meth:`flush` closes it."""
        self._paused_at = time.perf_counter_ns()

    def flush(self, scale: float) -> None:
        """Charge the open spans' time up to :meth:`pause` to the chunk,
        move the chunk's raw times into the corrected totals scaled by
        *scale*, and start the next chunk now (the time between is the
        kernel's, in no span)."""
        at = self._paused_at
        stack = self._stack
        for depth in range(len(stack) - 1, -1, -1):
            frame = stack[depth]
            spent = at - frame[_SEGMENT]
            self._chunk_self[self.fn_layer[frame[_FN]]] += spent - frame[_CHILD]
            self._chunk_incl[frame[_FN]] += spent
            if depth:
                stack[depth - 1][_CHILD] += spent
        for chunk, total in ((self._chunk_self, self.self_ns), (self._chunk_incl, self.fn_incl_ns)):
            for i, raw in enumerate(chunk):
                if raw:
                    total[i] += raw * scale
                    chunk[i] = 0
        now = time.perf_counter_ns()
        for frame in stack:
            frame[_SEGMENT] = now
            frame[_CHILD] = 0

    # -- reading -------------------------------------------------------

    def layer_ns(self, name: str) -> float:
        index = self._layer_index.get(name)
        return self.self_ns[index] if index is not None else 0.0

    def layer_calls(self, name: str) -> int:
        index = self._layer_index.get(name)
        return sum(
            calls for calls, layer in zip(self.fn_calls, self.fn_layer) if layer == index
        )

    def calls(self, name: str) -> int:
        index = self._fn_index.get(name)
        return self.fn_calls[index] if index is not None else 0

    def incl_ns(self, name: str) -> float:
        index = self._fn_index.get(name)
        return self.fn_incl_ns[index] if index is not None else 0.0

    def attributed_ns(self) -> float:
        """Sum of every layer's self time, ``unattributed`` included and
        the benchmark's own bookkeeping excluded: the chunks' time inside
        root spans."""
        return sum(
            ns for name, ns in zip(self.layer_names, self.self_ns) if name != BENCH
        )

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"header": header, "spans_total": self.span_count,
                                  "spans_written": len(self.spans)}) + "\n")
            for name, ns in zip(self.layer_names, self.self_ns):
                out.write(json.dumps({"layer": name, "self_ns": round(ns)}) + "\n")
            for fn, start, end, span_id, parent in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": self.fn_names[fn],
                    "start_ns": start, "end_ns": end,
                }) + "\n")


# -- patching ----------------------------------------------------------


def _wrap(fn, tracer: Tracer, index: int):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(index)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return traced


def _wrap_journal(fn, tracer: Tracer, index: int):
    """``CheckpointStore.journal`` also counts the bytes the op encodes to
    under the journal grammar (JSON), charged to :data:`BENCH`."""
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(self, op):
        enter(index)
        try:
            return fn(self, op)
        finally:
            exit_()
            enter(tracer.bench_fn)
            tracer.journal_bytes += len(json.dumps(op))
            exit_()

    return traced


class Patches:
    """Installed wrappers, undone by :meth:`undo`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object, bool]] = []

    def method(self, cls: type, name: str, layer: str, label: str | None = None) -> None:
        """Wrap ``cls.name`` at class level (inherited methods get a
        wrapper on *cls* only, so sibling classes stay untraced)."""
        label = label or f"{cls.__name__}.{name}"
        index = self.tracer.function(label, layer)
        owned = name in cls.__dict__
        raw = cls.__dict__[name] if owned else getattr(cls, name)
        wrap = _wrap_journal if label == "CheckpointStore.journal" else _wrap
        if isinstance(raw, classmethod):
            new = classmethod(wrap(raw.__func__, self.tracer, index))
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrap(raw.__func__, self.tracer, index))
        else:
            new = wrap(raw, self.tracer, index)
        setattr(cls, name, new)
        self._undo.append((cls, name, raw, owned))

    def function(self, module: str, name: str, layer: str) -> None:
        """Wrap a module-level function under every name it is looked up
        by: each loaded ``repro``/``perfbench`` module that imported it by
        name gets the wrapper too (``runner`` imports ``content_hash`` and
        ``extract_file_seeds`` that way)."""
        original = getattr(importlib.import_module(module), name)
        wrapped = _wrap(original, self.tracer, self.tracer.function(name, layer))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(("repro", "perfbench")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original, True))

    def undo(self) -> None:
        for target, name, raw, owned in reversed(self._undo):
            if owned:
                setattr(target, name, raw)
            else:
                delattr(target, name)
        self._undo.clear()


def _cls(path: str) -> type:
    module, name = path.split(":")
    return getattr(importlib.import_module(module), name)


#: The WBC service's layers: (layer, class, public methods).
#: The simulation's ``run`` is the root span; its self time is reported as
#: unattributed, and the driver's own steps below it as ``simulation``.
WBC_METHODS: list[tuple[str, str, tuple[str, ...]]] = [
    (UNATTRIBUTED, "repro.webcompute.simulation:WBCSimulation", ("run",)),
    ("simulation", "repro.webcompute.simulation:WBCSimulation", (
        "_admit", "_make_profile", "_on_departure", "_reachable",
        "_check_attribution", "_submit_or_queue", "_apply_scheduled_faults",
    )),
    ("simulation", "repro.webcompute.volunteer:VolunteerProfile", ("compute",)),
    ("simulation", "repro.webcompute.faults:FaultInjector", ("scheduled_at", "return_fate")),
    ("sharding", "repro.webcompute.sharding:ShardedWBCServer", (
        "tick", "register_round", "depart", "request_task", "submit_result",
        "reap_expired", "attribute", "attribute_many", "profile_of",
        "is_banned", "is_shard_alive", "shard_of", "mark_corrupted",
        "checkpoint_shard", "checkpoint_all", "crash_shard", "restore_shard",
        "begin_restore", "restore_step", "report",
    )),
    ("server", "repro.webcompute.server:WBCServer", (
        "tick", "register_round", "depart", "request_task", "submit_result",
        "reap_expired", "attribute", "profile_of", "is_banned",
        "mark_corrupted", "report",
    )),
    ("engine", "repro.webcompute.engine:AllocationEngine", (
        "tick", "validate_round", "register_round", "depart", "request_task",
        "submit_result", "reap_expired", "mark_corrupted", "locate",
        "attribute", "profile_of", "is_banned", "report", "snapshot_state",
        "snapshot_delta", "apply_delta", "restore_state",
    )),
    ("allocator", "repro.webcompute.allocator:TaskAllocator", (
        "register_row", "register_rows", "release_row", "contract",
        "next_task", "attribute", "snapshot_state", "snapshot_delta",
        "apply_delta", "restore_state",
    )),
    ("frontend", "repro.webcompute.frontend:FrontEnd", (
        "admit", "depart", "note_issued", "row_of", "volunteer_for",
        "snapshot_state", "snapshot_delta", "apply_delta", "restore_state",
    )),
    ("ledger", "repro.webcompute.ledger:AccountabilityLedger", (
        "record_issue", "record_reissue", "record_return", "audit_task",
        "is_banned", "task", "tasks_issued_count", "outstanding_tasks",
        "snapshot_state", "snapshot_delta", "apply_delta", "restore_state",
        "report",
    )),
    ("recovery", "repro.webcompute.recovery:CheckpointStore", (
        "checkpoint_state", "checkpoint_delta", "journal", "base_state",
        "segments", "ops",
    )),
    ("events", "repro.webcompute.events:EventBus", ("publish", "republish")),
]
WBC_FUNCTIONS = [
    ("recovery", "repro.webcompute.recovery", "apply_op"),
    ("recovery", "repro.webcompute.recovery", "fold_delta"),
]


def patch_wbc(tracer: Tracer, apf_class: type, composer_class: type | None) -> Patches:
    """Wrap every WBC layer.  The patches are class-level, so engines the
    router rebuilds on restore are traced like the originals."""
    patches = Patches(tracer)
    try:
        for layer, path, names in WBC_METHODS:
            cls = _cls(path)
            for name in names:
                patches.method(cls, name, layer)
        for layer, module, name in WBC_FUNCTIONS:
            patches.function(module, name, layer)
        # T and T^-1 of the allocation APF, and the shard index codec.
        patches.method(apf_class, "pair", "allocator", "apf.pair")
        patches.method(apf_class, "unpair", "allocator", "apf.unpair")
        if composer_class is not None:
            patches.method(composer_class, "pair", "codecs", "codec.pair")
            patches.method(composer_class, "unpair", "codecs", "codec.unpair")
    except BaseException:
        patches.undo()
        raise
    return patches


LINT_FUNCTIONS = [
    ("loader", "repro.staticcheck.loader", "load_module"),
    ("loader", "repro.staticcheck.loader", "module_imports"),
    ("summaries.extract", "repro.staticcheck.summaries", "extract_file_seeds"),
    ("summaries.extract", "repro.staticcheck.summaries", "extract_seeds"),
    ("runner.analyze_file", "repro.staticcheck.runner", "analyze_file"),
    ("runner", "repro.staticcheck.runner", "analyze_paths"),
    ("cache.hash", "repro.staticcheck.cache", "content_hash"),
]
LINT_METHODS = [
    ("summaries.fixpoint", "repro.staticcheck.summaries:ProjectSummaries", "__init__"),
    ("cache.load", "repro.staticcheck.cache:AnalysisCache", "load"),
    ("cache.plan", "repro.staticcheck.cache:AnalysisCache", "plan"),
    ("cache.save", "repro.staticcheck.cache:AnalysisCache", "save"),
]


def patch_lint(tracer: Tracer) -> Patches:
    from repro.staticcheck.checkers import ALL_CHECKERS

    patches = Patches(tracer)
    try:
        for layer, module, name in LINT_FUNCTIONS:
            patches.function(module, name, layer)
        for layer, path, name in LINT_METHODS:
            patches.method(_cls(path), name, layer)
        for checker in ALL_CHECKERS:
            cls = type(checker)
            for name in ("check", "check_project"):
                patches.method(cls, name, f"checkers.{checker.code}")
    except BaseException:
        patches.undo()
        raise
    return patches
