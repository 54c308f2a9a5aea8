"""The one process-pool lifecycle (``repro.runtime.pool``).

Every task runs through one worker entry: a task's exception comes back
to the parent as that exception while the worker lives on, only a
process death breaks the pool, and teardown follows one rule — a
normal exit joins the workers, an exception kills them, busy ones
included.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runtime.pool import WorkerPool
from repro.runtime.resilient import resilient_map


def _double(x):
    return 2 * x


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _fail(x):
    raise ValueError(f"bad {x}")


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this exception")


def _fail_unpicklable(x):
    raise _Unpicklable(f"lost {x}")


def _die(_):
    os.kill(os.getpid(), signal.SIGKILL)


def _children_since(before: set[int]) -> list:
    return [p for p in multiprocessing.active_children()
            if p.pid not in before]


def _pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def test_task_error_reaches_the_parent_and_the_worker_survives():
    with WorkerPool(1) as pool:
        with pytest.raises(ValueError, match="bad 3"):
            pool.result(pool.submit(_fail, 3))
        with pytest.raises(RuntimeError, match="_Unpicklable: lost 4"):
            pool.result(pool.submit(_fail_unpicklable, 4))
        assert pool.result(pool.submit(_double, 5)) == 10


def test_task_error_carries_the_worker_traceback_as_its_cause():
    with WorkerPool(1) as pool:
        with pytest.raises(ValueError) as info:
            pool.result(pool.submit(_fail, 7))
    assert 'in _fail\n    raise ValueError(f"bad {x}")' \
        in str(info.value.__cause__)


def test_worker_death_breaks_the_pool_and_kill_lets_it_restart():
    pool = WorkerPool(1)
    with pytest.raises(BrokenProcessPool):
        pool.result(pool.submit(_die, 0))
    pool.kill()
    assert pool.result(pool.submit(_double, 6)) == 12
    pool.join()


def test_a_pool_that_runs_nothing_starts_no_process():
    before = _pids()
    with WorkerPool(2):
        pass
    assert _children_since(before) == []


def test_normal_exit_joins_the_workers():
    before = _pids()
    with WorkerPool(2) as pool:
        futures = [pool.submit(_sleep, 0.05) for _ in range(2)]
        assert [pool.result(f) for f in futures] == [0.05, 0.05]
    assert _children_since(before) == []


def test_the_map_engine_joins_its_workers_on_return():
    before = _pids()
    assert resilient_map(_double, range(4), workers=2).results \
        == [0, 2, 4, 6]
    assert _children_since(before) == []


def test_an_exception_kills_busy_workers():
    before = _pids()
    with pytest.raises(KeyError):
        with WorkerPool(2) as pool:
            pool.submit(_sleep, 60)
            workers = _children_since(before)
            raise KeyError("abort")
    assert len(workers) == 2
    for proc in workers:
        proc.join(timeout=10)
    assert not any(proc.is_alive() for proc in workers)
