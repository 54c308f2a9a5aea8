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
* ``runtime.pool``  — process-pool dispatch (workers > 1);
* ``runtime.shm``   — shared-memory block creation/copy-in for
  zero-copy broadcast arrays (see :mod:`repro.runtime.shm`);
* ``cache.get`` / ``cache.put`` — result-cache disk IO.

The CLI's ``--profile`` flag enables the profiler around a sweep and
prints :meth:`PhaseProfiler.report` afterwards.
"""

from __future__ import annotations

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

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.phases.clear()

    def add(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` to a phase (one call)."""
        stat = self.phases.setdefault(name, PhaseStat())
        stat.calls += 1
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
        return {k: (v.calls, v.seconds) for k, v in self.phases.items()}

    def report(self, *, total: float | None = None) -> str:
        """Human-readable breakdown, widest phase first.

        Phases may nest (``kernel.solve`` inside ``campaign.stage.*``)
        and overlap (concurrent stage threads), so summed phase time is
        not wall time: the report prints the two as separately labelled
        quantities.

        Args:
            total: Overall wall time.  When the summed phase time fits
                inside it, shares are of wall time and an ``(other)``
                line carries the unaccounted residual.  When the summed
                time exceeds it, the report says the phases nest or
                overlap, shares are of summed phase time and no
                residual is printed.  Omitted, shares are of summed
                phase time.
        """
        if not self.phases:
            return "profile: no instrumented phases ran"
        items = sorted(self.phases.items(),
                       key=lambda kv: kv[1].seconds, reverse=True)
        summed = sum(s.seconds for _, s in items)
        wall = total if total is not None and total > 0 else None
        fits = wall is not None and summed <= wall
        denom = wall if fits else summed or 1.0
        rows = [(name, f"{stat.calls:>5}", stat.seconds)
                for name, stat in items]
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


def phase(name: str):
    """Module-level shortcut: ``with phase("kernel.solve"): ...``."""
    return PROFILER.measure(name)
