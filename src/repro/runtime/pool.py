"""The one process-pool lifecycle of the map engine, the campaign stage
pool and the service shard pools; each keeps its own policy.

One worker entry runs every task: it resets the worker's profiler to
the parent's ``enabled`` flag and returns ``(ok, value, phases)``, so
only a process death breaks the pool.  :meth:`WorkerPool.result` merges
the phases into the parent's profiler.  One teardown rule: a normal
exit joins the workers; an exception or a crash rebuild kills them.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future
from typing import Any, Callable

from repro.runtime.profiling import PROFILER


def _entry(profile: bool, fn: Callable[..., Any], args: tuple) -> tuple:
    PROFILER.reset()
    PROFILER.enabled = profile
    try:
        ok, value = True, fn(*args)
    except Exception as exc:
        from multiprocessing.pool import ExceptionWithTraceback

        tb = exc.__traceback__
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        # Unpickles as ``exc`` with the worker's traceback as its cause.
        ok, value = False, ExceptionWithTraceback(exc, tb)
    return ok, value, PROFILER.snapshot()


class WorkerPool:
    """``max_workers`` processes, started (and ``multiprocessing``
    imported) at the first :meth:`submit`.  As a context manager it
    applies the teardown rule."""

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self._executor = None

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Run ``fn(*args)``; read the result with :meth:`result`."""
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(self.max_workers)
        return self._executor.submit(_entry, PROFILER.enabled, fn, args)

    @staticmethod
    def result(fut: Future) -> Any:
        """The task's value (its exception raised), phases merged."""
        ok, value, phases = fut.result()
        PROFILER.merge(phases)
        if not ok:
            raise value
        return value

    def join(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()

    def kill(self) -> None:
        """Kill the workers, stuck ones too; a later submit restarts."""
        executor, self._executor = self._executor, None
        if executor is not None:
            processes = list(executor._processes.values())
            executor.shutdown(wait=False, cancel_futures=True)
            for proc in processes:
                proc.kill()  # a no-op on a worker already gone

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, exc_type, *_) -> None:
        self.join() if exc_type is None else self.kill()
