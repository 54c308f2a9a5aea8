"""Process-pool fan-out with serial-identical semantics.

:func:`map_tasks` and :func:`cached_map` are the two entry points every
sweep builds on.  Both are thin names over the one fault-tolerant
engine, :func:`~repro.runtime.resilient.resilient_map` and
:func:`~repro.runtime.resilient.resilient_cached_map`; with the default
``retries=0`` and ``failure_policy="raise"`` that engine is the plain
fan-out.  Its contract is deliberately stronger than "run these
concurrently":

* **Order preservation** — results come back in submission order, so a
  reducer that folds them in a loop sees *exactly* the operand
  sequence of the serial code path, and floating-point reductions stay
  bit-identical.
* **Determinism** — tasks must be pure functions of their argument
  tuple.  Anything seeded derives its seed from the task payload
  (die index, bit number), never from pool scheduling.
* **Serial fallback** — ``workers=None``/``0``/``1`` runs the tasks
  in-process: no pool, no pickling.  A task's own exception propagates
  unchanged on either path; a worker process that dies raises
  :class:`~repro.errors.WorkerCrashError`.

Worker callables must be module-level (picklable).  The wired sweeps
each define a tiny ``_*_task`` adapter next to the physics they call.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.runtime.resilient import resilient_cached_map, resilient_map

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache

#: Environment variable for sweeps without an explicit ``workers=``
#: (benches, examples): unset/empty means serial.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers=`` argument to a concrete pool size.

    ``None``, ``0`` and ``1`` mean serial; a negative count means "all
    cores" (``os.cpu_count()``); anything else is taken literally.
    """
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(os.cpu_count() or 1, 1)
    return int(workers)


def env_workers(default: int | None = None) -> int | None:
    """Worker count requested via ``$REPRO_WORKERS``, else ``default``.

    Benches and examples use this so ``REPRO_WORKERS=8 pytest
    benchmarks`` parallelizes without touching call sites.  Invalid
    values raise rather than silently running serial.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"${WORKERS_ENV}={raw!r} is not an integer worker count"
        ) from None


def map_tasks(fn: Callable[..., Any], items: Iterable[Any], *,
              workers: int | None = None,
              retries: int = 0,
              task_timeout: float | None = None,
              failure_policy: str = "raise") -> Any:
    """``[fn(x) for x in items]``, optionally across a process pool.

    Results are returned in input order regardless of completion
    order, which is what keeps parallel sweeps bit-identical to their
    serial counterparts (see module docstring).

    Args:
        fn: Module-level pure function of one task payload.
        items: Task payloads (materialized once, in order).
        workers: Pool size per :func:`resolve_workers`; <= 1 runs
            serial in-process.
        retries: Extra attempts per failed task (exponential backoff
            with deterministic jitter — see
            :class:`repro.runtime.resilient.RetryPolicy`).
        task_timeout: Per-task wall-clock budget, seconds.
        failure_policy: ``"raise"`` (default — a failure past its
            budget aborts the sweep, bit-identical to the historic
            behavior) or ``"partial"`` (the sweep completes; the
            return value becomes a
            :class:`~repro.runtime.resilient.MapOutcome` whose failed
            slots are ``None`` plus structured ``TaskFailure``
            records).

    Returns:
        ``list`` of results under ``failure_policy="raise"``;
        a :class:`~repro.runtime.resilient.MapOutcome` under
        ``"partial"``.
    """
    outcome = resilient_map(
        fn, items, workers=workers, retries=retries,
        task_timeout=task_timeout, failure_policy=failure_policy,
    )
    return outcome if failure_policy == "partial" else outcome.results


def cached_map(fn: Callable[..., Any], items: Iterable[Any], *,
               keys: Sequence[str] | None = None,
               cache: "ResultCache | str | os.PathLike[str] | None" = None,
               workers: int | None = None,
               retries: int = 0,
               task_timeout: float | None = None,
               failure_policy: str = "raise") -> Any:
    """:func:`map_tasks` with per-item on-disk memoization.

    Every memoized sweep in the repo reduces to this: look each item's
    key up in the parent process (so the cache's hit/miss counters are
    authoritative), fan only the misses out to the pool, then stitch
    hits and fresh results back together in submission order — which
    keeps the cached/parallel result bit-identical to the direct serial
    one.

    Persistence is *incremental*: each computed result is
    ``store.put()`` as soon as it is available, so a crash mid-sweep
    keeps all completed work for the next run.

    Args:
        fn: Module-level pure function of one task payload.
        items: Task payloads.
        keys: One stable cache key per item (see
            :func:`repro.runtime.cache.task_key`); ``None`` disables
            memoization even when ``cache`` is given.
        cache: A :class:`ResultCache`, a cache directory, or ``None``
            (no memoization).
        workers: Pool size for the misses (<= 1: serial in-process).
        retries / task_timeout / failure_policy: Resilience options as
            in :func:`map_tasks` — under ``"partial"`` the return
            value is a :class:`~repro.runtime.resilient.MapOutcome`.
    """
    outcome = resilient_cached_map(
        fn, items, keys=keys, cache=cache, workers=workers,
        retries=retries, task_timeout=task_timeout,
        failure_policy=failure_policy,
    )
    return outcome if failure_policy == "partial" else outcome.results
