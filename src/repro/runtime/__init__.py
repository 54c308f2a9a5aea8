"""repro.runtime — parallel execution and on-disk memoization.

Characterization is embarrassingly parallel: per-bit threshold
bisections are independent across (bit, delay code) pairs, Monte-Carlo
yield studies are independent across sampled dies, and tester-style
S-curve extraction is independent across stages.  This package supplies
the two pieces every such sweep needs:

* :mod:`repro.runtime.executor` — the sweep entry points
  :func:`map_tasks` and :func:`cached_map`, thin names over the
  resilient engine below: a process-pool fan-out that preserves
  submission order, so a parallel sweep reduces to *bit-identical*
  results vs. the serial loop;
* :mod:`repro.runtime.cache` — an on-disk memoization cache
  (:class:`ResultCache`) keyed by a stable content hash of the inputs
  (design, corner technology, delay code, bisection tolerances), with
  hit/miss/error counters and graceful recovery from corrupt entries;
* :mod:`repro.runtime.resilient` — the one map engine, fault
  tolerant: bounded retries with deterministic backoff, per-task
  timeouts, worker-crash recovery (pool rebuild + resubmission of
  unfinished tasks), incremental result persistence and a
  ``raise``/``partial`` failure policy with structured
  :class:`~repro.runtime.resilient.TaskFailure` records;
* :mod:`repro.runtime.chaos` — seeded fault injection (worker kills,
  cache corruption, stuck tasks) for end-to-end resilience drills.

Task payloads reach pool workers by ordinary pickling, the one
transport: nothing the sweeps broadcast is large enough to pay for a
second one.

Everything above it (``repro.core.characterization``,
``repro.analysis.yield_study``, ``repro.analysis.repeatability``, the
benches and the CLI) takes ``workers=`` / ``cache=`` keyword arguments
that default to today's serial, uncached behavior, plus ``retries=`` /
``task_timeout=`` / ``failure_policy=`` resilience options that
default to the historic fail-fast semantics.

This module sits *below* ``repro.core``/``repro.analysis`` in the layer
diagram: it may import only the error types and the standard library,
so any layer can use it without cycles.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "ChaosMonkey": ".chaos",
    "KillOnceTask": ".chaos",
    "MapOutcome": ".resilient",
    "PROFILER": ".profiling",
    "PhaseProfiler": ".profiling",
    "PhaseStat": ".profiling",
    "ResultCache": ".cache",
    "phase": ".profiling",
    "RetryPolicy": ".resilient",
    "RunStats": ".resilient",
    "SleepyTask": ".chaos",
    "TaskFailure": ".resilient",
    "cached_map": ".executor",
    "default_cache_dir": ".cache",
    "design_fingerprint": ".cache",
    "env_workers": ".executor",
    "map_tasks": ".executor",
    "resilient_cached_map": ".resilient",
    "resilient_map": ".resilient",
    "resolve_cache": ".cache",
    "resolve_workers": ".executor",
    "stable_hash": ".cache",
    "task_key": ".cache",
    "task_keys": ".cache",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
