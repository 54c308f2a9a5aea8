"""Process-pool fan-out with serial-identical semantics.

:func:`map_tasks` is the single primitive every sweep builds on.  Its
contract is deliberately stronger than "run these concurrently":

* **Order preservation** — results come back in submission order
  (``ProcessPoolExecutor.map``), so a reducer that folds them in a
  loop sees *exactly* the operand sequence of the serial code path,
  and floating-point reductions stay bit-identical.
* **Determinism** — tasks must be pure functions of their argument
  tuple.  Anything seeded derives its seed from the task payload
  (die index, bit number), never from pool scheduling.
* **Serial fallback** — ``workers=None``/``0``/``1`` runs the plain
  list comprehension in-process: no pool, no pickling, no behavior
  change for existing callers.

Worker callables must be module-level (picklable).  The wired sweeps
each define a tiny ``_*_task`` adapter next to the physics they call.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    TypeVar,
)

from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache, resolve_cache
from repro.runtime.profiling import PROFILER

#: Environment variable for sweeps without an explicit ``workers=``
#: (benches, examples): unset/empty means serial.
WORKERS_ENV = "REPRO_WORKERS"

_T = TypeVar("_T")
_R = TypeVar("_R")


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


def _iter_map(fn: Callable[..., _R], payloads: Sequence[_T],
              workers: int | None,
              shared: "Mapping[str, Any] | None" = None) -> Iterator[_R]:
    """Yield ``fn(x)`` per payload *in submission order, as computed*.

    The streaming core of :func:`map_tasks` and :func:`cached_map`:
    consumers that persist each result as it arrives (incremental
    ``store.put()``) survive a crash mid-sweep with all completed work
    intact, while the yielded order stays bit-identical to serial.

    With ``shared``, tasks are called as ``fn(payload, arrays)``: the
    named arrays ride POSIX shared memory to the pool (one copy-in
    total instead of one pickle per task — see
    :mod:`repro.runtime.shm`) and read-only views in the serial path,
    so the bytes each task sees are identical either way.
    """
    n = min(resolve_workers(workers), len(payloads))
    if shared is not None:
        from repro.runtime.shm import SharedArrayPool, SharedTask, \
            _readonly_views

        if n <= 1:
            arrays = _readonly_views(shared)
            for item in payloads:
                yield fn(item, arrays)
            return
        with SharedArrayPool(shared) as shm_pool:
            task = SharedTask(fn, shm_pool.handles)
            shm_pool.charge_tasks(len(payloads))
            with PROFILER.measure("runtime.pool"), \
                    ProcessPoolExecutor(max_workers=n) as pool:
                yield from pool.map(task, payloads)
        return
    if n <= 1:
        for item in payloads:
            yield fn(item)
        return
    with PROFILER.measure("runtime.pool"), \
            ProcessPoolExecutor(max_workers=n) as pool:
        yield from pool.map(fn, payloads)


def _wants_resilience(retries: int, task_timeout: float | None,
                      failure_policy: str) -> bool:
    return bool(retries) or task_timeout is not None \
        or failure_policy != "raise"


def map_tasks(fn: Callable[..., _R], items: Iterable[_T], *,
              workers: int | None = None,
              retries: int = 0,
              task_timeout: float | None = None,
              failure_policy: str = "raise",
              shared: "Mapping[str, Any] | None" = None) -> Any:
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
        shared: Named read-only arrays broadcast to every task via
            shared memory (:mod:`repro.runtime.shm`); tasks are then
            called as ``fn(payload, arrays)``.  Bit-identical to
            passing the arrays inside each payload — just without the
            per-task pickling.

    Returns:
        ``list`` of results under ``failure_policy="raise"``;
        a :class:`~repro.runtime.resilient.MapOutcome` under
        ``"partial"``.
    """
    payloads: Sequence[_T] = list(items)
    if _wants_resilience(retries, task_timeout, failure_policy):
        from repro.runtime.resilient import resilient_map

        outcome = resilient_map(
            fn, payloads, workers=workers, retries=retries,
            task_timeout=task_timeout, failure_policy=failure_policy,
            shared=shared,
        )
        return outcome if failure_policy == "partial" \
            else outcome.results
    return list(_iter_map(fn, payloads, workers, shared=shared))


def cached_map(fn: Callable[..., _R], items: Iterable[_T], *,
               keys: Sequence[str] | None = None,
               cache: "ResultCache | str | os.PathLike[str] | None" = None,
               workers: int | None = None,
               retries: int = 0,
               task_timeout: float | None = None,
               failure_policy: str = "raise",
               shared: "Mapping[str, Any] | None" = None) -> Any:
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
        shared: Broadcast arrays as in :func:`map_tasks` (tasks become
            ``fn(payload, arrays)``); cache keys must already account
            for the shared contents.
    """
    if _wants_resilience(retries, task_timeout, failure_policy):
        from repro.runtime.resilient import resilient_cached_map

        outcome = resilient_cached_map(
            fn, items, keys=keys, cache=cache, workers=workers,
            retries=retries, task_timeout=task_timeout,
            failure_policy=failure_policy, shared=shared,
        )
        return outcome if failure_policy == "partial" \
            else outcome.results
    store = resolve_cache(cache)
    payloads: Sequence[_T] = list(items)
    if store is None or keys is None:
        return map_tasks(fn, payloads, workers=workers, shared=shared)
    if len(keys) != len(payloads):
        raise ConfigurationError(
            f"got {len(keys)} cache keys for {len(payloads)} items"
        )
    results: list[Any] = [None] * len(payloads)
    pending: list[tuple[int, _T]] = []
    for i, (item, key) in enumerate(zip(payloads, keys)):
        hit, value = store.get(key)
        if hit:
            results[i] = value
        else:
            pending.append((i, item))
    computed = _iter_map(fn, [item for _, item in pending], workers,
                         shared=shared)
    for (i, _), value in zip(pending, computed):
        results[i] = value
        store.put(keys[i], value)
    return results
