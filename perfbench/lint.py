"""reprolint workloads, driven through ``repro.staticcheck.analyze_paths``.

Every form runs on a scratch copy of ``src/`` (so the one-function body
edits never touch the checkout) with ``jobs=1`` and the repository's own
``[tool.reprolint]`` config:

* cold: no cache;
* warm: a populated cache and no change, so every file is a hit;
* edit: one statement inserted into ``get_pairing``'s body (a different
  constant each time), then a cached run -- one file re-analyzes.

Each repetition is cut into drift-corrected chunks, one per file analyzed
(see :mod:`perfbench.calibrate`).
"""

from __future__ import annotations

import functools
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.calibrate import DriftClock

#: The function the edit form changes, and the file it lives in.
EDIT_FILE = Path("repro") / "core" / "registry.py"
EDIT_ANCHOR = "def get_pairing(name: str) -> StorageMapping:\n"


@dataclass(frozen=True)
class LintPlan:
    subtree: str  # under the copied src/; "" lints all of it
    cold: int
    warm: int
    edits: int


@dataclass
class LintTally:
    cold_s: list[float] = field(default_factory=list)
    warm_ms: list[float] = field(default_factory=list)
    edit_ms: list[float] = field(default_factory=list)
    raw_ns: int = 0
    corrected_ns: float = 0.0
    attempted: int = 0
    failed: int = 0
    files: int = 0
    reanalyzed: list[int] = field(default_factory=list)
    closure: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: Whether the checkout's hidden ancestor made :class:`_Discovery` list the files.
    own_discovery: bool = False

    @property
    def scale(self) -> float:
        return self.corrected_ns / self.raw_ns if self.raw_ns else 1.0


class _Chunked:
    """Cuts a lint run into drift-corrected chunks: a kernel runs before
    each call of the named functions of *module* -- per-file seed
    extraction and per-file analysis, patched under the names the runner
    looks them up by -- so no chunk spans more than one file's work."""

    def __init__(self, module, names: tuple[str, ...], clock: DriftClock) -> None:
        self.module = module
        self.saved = {name: getattr(module, name) for name in names}
        for name, fn in self.saved.items():
            setattr(module, name, self._wrap(fn, clock))

    @staticmethod
    def _wrap(fn, clock: DriftClock):
        @functools.wraps(fn)
        def chunked(*args, **kwargs):
            clock.boundary()
            return fn(*args, **kwargs)

        return chunked

    def undo(self) -> None:
        for name, fn in self.saved.items():
            setattr(self.module, name, fn)


class _Discovery:
    """reprolint skips a file when any part of its resolved path starts
    with ``.``, so a checkout that lies under a hidden directory would
    lint no file at all.  For such a checkout only, the runner's file
    discovery is replaced by the same rule applied to the parts below
    *tree* (undone by :meth:`undo`); otherwise the program's own runs."""

    def __init__(self, runner, tree: Path) -> None:
        self.runner = runner
        self.saved = runner.iter_python_files
        base = tree.resolve()
        self.active = any(part.startswith(".") for part in base.parts)
        if not self.active:
            return

        def iter_python_files(paths):
            seen: set[Path] = set()
            for entry in map(Path, paths):
                if entry.is_file():
                    candidates = [entry] if entry.suffix == ".py" else []
                else:
                    candidates = entry.rglob("*.py")
                for resolved in (candidate.resolve() for candidate in candidates):
                    parts = (resolved.relative_to(base).parts
                             if resolved.is_relative_to(base) else resolved.parts)
                    if not any(part.startswith(".") or part == "__pycache__" for part in parts):
                        seen.add(resolved)
            yield from sorted(seen)

        runner.iter_python_files = iter_python_files

    def undo(self) -> None:
        self.runner.iter_python_files = self.saved


def copy_tree(root: Path, work: Path) -> Path:
    """Copy ``root/src`` to ``work/src`` (bytecode caches left out)."""
    tree = work / "src"
    if tree.exists():
        shutil.rmtree(tree)
    shutil.copytree(root / "src", tree, ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def _rendered(result) -> list[str]:
    return [finding.render() for finding in result.findings]


def run(plan: LintPlan, root: Path, tree: Path, cache_path: Path, seed: int,
        tally: LintTally, tracers=None) -> None:
    """Run *plan* on *tree*.  With *tracers* -- ``(cold, edit)`` pairs of
    ``(Tracer, install)`` -- the cold and edit forms are traced."""
    import repro.staticcheck.runner as runner

    discovery = _Discovery(runner, tree)
    tally.own_discovery = discovery.active
    try:
        _run(plan, root, tree, cache_path, seed, tally, tracers)
    finally:
        discovery.undo()


def _run(plan: LintPlan, root: Path, tree: Path, cache_path: Path, seed: int,
         tally: LintTally, tracers) -> None:
    import repro.staticcheck as staticcheck
    from repro.staticcheck.config import load_config

    config, _path = load_config(root / "src")
    target = tree / plan.subtree if plan.subtree else tree

    def analyze(cache: bool):
        return staticcheck.analyze_paths(
            [target], config=config, cache=cache, cache_path=cache_path, jobs=1
        )

    def repetition(cache: bool, clock: DriftClock):
        clock.boundary()
        result = analyze(cache)
        clock.stop()
        tally.attempted += 1
        return result

    def phase(count: int, cache: bool, traced, record):
        tracer, patches = None, None
        if traced is not None:
            tracer, install = traced
            patches = install(tracer)
        clock = DriftClock(tracer)
        runner = sys.modules["repro.staticcheck.runner"]
        chunked = _Chunked(runner, ("extract_file_seeds", "analyze_file"), clock)
        try:
            for i in range(count):
                raw, corrected = clock.raw_ns, clock.corrected_ns
                result = repetition(cache, clock)
                tally.raw_ns += clock.raw_ns - raw
                tally.corrected_ns += clock.corrected_ns - corrected
                record(i, result, clock.corrected_ns - corrected)
        finally:
            chunked.undo()
            if patches is not None:
                patches.undo()

    cold_tr, edit_tr = tracers if tracers is not None else (None, None)
    reference: list[str] | None = None

    def on_cold(_i, result, ns):
        nonlocal reference
        tally.cold_s.append(ns / 1e9)
        tally.files = result.files
        if not result.files:
            tally.failed += 1
            tally.problems.append(f"no Python files found under {target}")
        if result.findings:
            tally.failed += 1
            tally.problems.append(
                "unsuppressed findings: " + "; ".join(_rendered(result)[:5])
            )
        if reference is None:
            reference = _rendered(result)

    phase(plan.cold, False, cold_tr, on_cold)

    # Populate the cache (a cold cached run; not a measured form).
    if cache_path.exists():
        cache_path.unlink()
    populated = analyze(True)
    tally.attempted += 1
    if _rendered(populated) != reference:
        tally.failed += 1
        tally.problems.append("cached findings differ from the cold findings")

    def on_warm(_i, result, ns):
        tally.warm_ms.append(ns / 1e6)
        if _rendered(result) != reference:
            tally.failed += 1
            tally.problems.append("warm findings differ from the cold findings")

    phase(plan.warm, True, None, on_warm)

    edit_path = tree / EDIT_FILE
    pristine = edit_path.read_text()
    if EDIT_ANCHOR not in pristine:
        raise RuntimeError(f"edit anchor not found in {edit_path}")

    def edit(i: int) -> None:
        body = f"{EDIT_ANCHOR}    _ = {seed * 1000 + i}  # one-statement body edit\n"
        edit_path.write_text(pristine.replace(EDIT_ANCHOR, body, 1))

    def on_edit(i, result, ns):
        tally.edit_ms.append(ns / 1e6)
        stats = result.cache_stats
        tally.reanalyzed.append(stats.misses)
        tally.closure.append(getattr(stats, "closure_files", 0))
        if not stats.misses:
            tally.failed += 1
            tally.problems.append("an edit to get_pairing re-analyzed no file")
        if _rendered(result) != reference:
            tally.failed += 1
            tally.problems.append("findings after an edit differ from the cold findings")
        if i + 1 < plan.edits:
            edit(i + 1)

    try:
        if plan.edits:
            edit(0)
        phase(plan.edits, True, edit_tr, on_edit)
    finally:
        edit_path.write_text(pristine)
