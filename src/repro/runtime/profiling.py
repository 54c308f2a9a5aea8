"""Per-phase timing counters for sweep hot paths.

The runtime already proves *what* a sweep computed (cache counters,
``RunStats``); this module answers *where the wall-clock went*: kernel
math vs. cache IO vs. process-pool dispatch.  A single process-global
:class:`PhaseProfiler` accumulates ``(calls, seconds)`` per named phase;
instrumented code brackets its hot sections with :func:`phase`, which
costs two ``perf_counter()`` calls when profiling is enabled and almost
nothing (one attribute check) when it is not — sweeps never pay for
instrumentation they did not ask for.

Phase names are dotted, coarse and stable — they are a CLI contract:

* ``kernel.solve``  — vectorized delay-law root solves;
* ``kernel.decode`` — vectorized word/decode grid evaluation;
* ``kernel.mc``     — batched Monte-Carlo draw-cube evaluation;
* ``kernel.transient`` — exact-ZOH PDN transient stepping;
* ``runtime.pool``  — a map on the process pool (workers > 1); its
  workers' phases are merged in and nest inside it;
* ``cache.get`` / ``cache.put`` — result-cache disk IO.

The CLI's ``--profile`` flag enables the profiler around a sweep and
prints :meth:`PhaseProfiler.report` afterwards.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class PhaseStat:
    """Accumulated cost of one phase."""

    calls: int = 0
    seconds: float = 0.0


@dataclass
class PhaseProfiler:
    """Named wall-time accumulators, disabled by default.

    Attributes:
        enabled: When False (default), :meth:`measure` is a no-op.
        phases: Phase name -> :class:`PhaseStat`.
    """

    enabled: bool = False
    phases: dict[str, PhaseStat] = field(default_factory=dict)
    # Threads (a job server's inline workers) report concurrently;
    # ``+=`` on a stat is a read-modify-write that would otherwise lose
    # increments.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self.phases.clear()

    def add(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` to a phase (one call); thread-safe."""
        with self._lock:
            stat = self.phases.setdefault(name, PhaseStat())
            stat.calls += 1
            stat.seconds += seconds

    def merge(self, snapshot: dict[str, tuple[int, float]]) -> None:
        """Fold another process's :meth:`snapshot` into this one."""
        with self._lock:
            for name, (calls, seconds) in snapshot.items():
                stat = self.phases.setdefault(name, PhaseStat())
                stat.calls += calls
                stat.seconds += seconds

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Time a block under ``name`` when enabled; else no-op."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def snapshot(self) -> dict[str, tuple[int, float]]:
        """``{phase: (calls, seconds)}`` — a picklable copy."""
        with self._lock:
            return {k: (v.calls, v.seconds) for k, v in self.phases.items()}

    def report(self, *, total: float | None = None) -> str:
        """Human-readable breakdown, widest phase first.

        Phases may nest (``kernel.solve`` inside ``campaign.stage.*``
        or ``runtime.pool``) and overlap (concurrent stages or pool
        workers), so summed phase time is not wall time: the report
        prints the two as separately labelled quantities.

        Args:
            total: Overall wall time.  When the summed phase time fits
                inside it, shares are of wall time and an ``(other)``
                line carries the unaccounted residual.  When the summed
                time exceeds it, the report says the phases nest or
                overlap, shares are of summed phase time and no
                residual is printed.  Omitted, shares are of summed
                phase time.
        """
        snap = self.snapshot()
        if not snap:
            return "profile: no instrumented phases ran"
        items = sorted(snap.items(), key=lambda kv: kv[1][1], reverse=True)
        summed = sum(seconds for _, (_, seconds) in items)
        wall = total if total is not None and total > 0 else None
        fits = wall is not None and summed <= wall
        denom = wall if fits else summed or 1.0
        rows = [(name, f"{calls:>5}", seconds)
                for name, (calls, seconds) in items]
        if fits:
            rows.append(("(other)", " " * 5, wall - summed))
        width = max(len(name) for name, _, _ in rows)
        lines = ["phase".ljust(width) + "  calls      time     share"]
        lines += [f"{name.ljust(width)}  {calls}  {seconds * 1e3:>7.1f}ms  "
                  f"{seconds / denom:>7.1%}"
                  for name, calls, seconds in rows]
        lines.append(f"summed phase time: {summed * 1e3:.1f}ms")
        if wall is not None:
            lines.append(f"wall time: {wall * 1e3:.1f}ms")
        if fits:
            lines.append("shares are of wall time")
        elif wall is not None:
            lines.append("summed phase time exceeds wall time: phases nest "
                         "or overlap, so shares are of summed phase time "
                         "and no residual is shown")
        else:
            lines.append("shares are of summed phase time")
        return "\n".join(lines)


#: The process-global profiler instrumented code reports into.
PROFILER = PhaseProfiler()

if hasattr(os, "register_at_fork"):
    # A forked pool worker inherits the lock in whatever state a parent
    # thread left it; a lock held at the fork would never be released
    # in the child.
    os.register_at_fork(
        after_in_child=lambda: setattr(PROFILER, "_lock", threading.Lock())
    )


def phase(name: str):
    """Module-level shortcut: ``with phase("kernel.solve"): ...``."""
    return PROFILER.measure(name)
