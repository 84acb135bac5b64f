"""Drift correction.

The machines this benchmark runs on drift: a fixed pure-Python loop can
slow by half within a minute when a neighbour takes the shared core.  A
small calibration kernel runs between chunks of measured work, and each
chunk's wall time is scaled by ``NOMINAL_NS / kernel time`` (the mean of
the kernels on either side of the chunk), so a figure reads as "time on
a machine where the kernel takes ``NOMINAL_NS``".

The kernel lives here, in the benchmark's own files, so no change to the
program can speed it up or slow it down.  It pauses the cyclic GC while
it runs and builds no reference cycles, so the size of the program's heap
cannot change its cost, and it refuses to run under a trace or profile
hook, which would slow kernel and work alike and so cancel out.
"""

from __future__ import annotations

import gc
import json
import sys
import time

#: Kernel time the corrected figures are normalised to (about the
#: kernel's median on the 2-CPU box the benchmark was tuned on).
NOMINAL_NS = 3_000_000
#: Kernel size: ~3 ms of mixed dict, attribute, bigint, tuple, f-string
#: and ``json.dumps`` work -- the operation mix of the WBC service.
ROUNDS = 1500


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, delta: int) -> int:
        self.value += delta
        return self.value


def _kernel(rounds: int) -> int:
    table: dict[int, _Cell] = {}
    acc = 0
    row: list[tuple[int, int]] = []
    for i in range(rounds):
        key = i & 127
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, i)
        acc += cell.bump(i & 7) + ((i << 67) // 13 & 0xFF)
        row.append((key, acc & 0xFFFF))
        if len(row) == 16:
            acc += len(json.dumps(row))
            row = []
        acc = (acc * 31 + len(f"{key}:{i}")) & 0xFFFFFFF
    return acc


def _refuse_hooks() -> None:
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise RuntimeError(
            "calibration refused: a trace or profile hook is installed, "
            "which would slow the kernel and the measured work alike"
        )


def kernel_ns() -> int:
    """Run the calibration kernel once; its wall time in ns."""
    _refuse_hooks()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _kernel(ROUNDS)
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


#: Set-up time is mostly imports, which the kernel does not track: on a
#: contended core the kernel slows by about twice as much as an import
#: does.  So set-up is scaled by an import-shaped reference instead --
#: executing these standard-library modules' cached bytecode under fresh
#: module names, after the real modules (and so their dependencies) are
#: loaded -- normalised to ``NOMINAL_IMPORT_NS``.
IMPORT_REFERENCE = (
    "argparse", "typing", "dataclasses", "enum", "fractions", "statistics",
    "ipaddress", "textwrap", "string", "_pydecimal", "json.decoder",
    "json.encoder", "email.message", "http.client", "calendar", "pprint",
)
NOMINAL_IMPORT_NS = 18_000_000


def import_reference_ns(repeats: int = 5) -> int:
    """Median wall time in ns of one load of every :data:`IMPORT_REFERENCE`
    module from its cached bytecode, with the cyclic GC paused."""
    import importlib
    import importlib.util

    _refuse_hooks()
    files = [importlib.import_module(name).__file__ for name in IMPORT_REFERENCE]
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for repeat in range(repeats):
            start = time.perf_counter_ns()
            for i, path in enumerate(files):
                spec = importlib.util.spec_from_file_location(f"_perfbench_ref{repeat}_{i}", path)
                spec.loader.exec_module(importlib.util.module_from_spec(spec))
            times.append(time.perf_counter_ns() - start)
        return sorted(times)[repeats // 2]
    finally:
        if enabled:
            gc.enable()


class DriftClock:
    """Chunked wall-clock timing with drift correction.

    Call :meth:`boundary` between chunks of work: it closes the open
    chunk, runs the kernel, and opens the next chunk, so the kernel's own
    time is in no chunk.  It returns the closed chunk's scale factor
    (``None`` for the first call), which the caller applies to any
    per-operation times it collected during the chunk.  With a
    *tracer* (:class:`perfbench.tracing.Tracer`), the kernel's time is in
    no span and each chunk's span times are scaled by that chunk's factor.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.raw_ns = 0
        self.corrected_ns = 0.0
        self._last_kernel: int | None = None
        self._start: int | None = None

    def boundary(self) -> float | None:
        tracer = self.tracer
        if tracer is not None:
            tracer.pause()
        now = time.perf_counter_ns()
        kernel = kernel_ns()
        scale = None
        if self._start is not None and self._last_kernel is not None:
            raw = now - self._start
            scale = 2 * NOMINAL_NS / (self._last_kernel + kernel)
            self.raw_ns += raw
            self.corrected_ns += raw * scale
        self._last_kernel = kernel
        if tracer is not None:
            # Spans timed before the first chunk opened are dropped.
            tracer.flush(scale if scale is not None else 0.0)
        self._start = time.perf_counter_ns()
        return scale

    def stop(self) -> float | None:
        """Close the open chunk without opening another."""
        scale = self.boundary()
        self._start = None
        self._last_kernel = None
        return scale


def settle() -> None:
    """Start a phase or episode on a clean heap.  The WBC service's object
    graph is cyclic, so without this a previous episode is freed by a
    full collection in the middle of the next one, and the peak RSS
    depends on when that collection happens to run."""
    gc.collect()
