"""ResultCache lifetime statistics, including counts from pool workers."""

from __future__ import annotations

from repro.runtime.cache import ResultCache
from repro.runtime.executor import map_tasks


def _cache_stats_task(root):
    """Miss + put + hit inside a pool worker, with an explicit flush.

    ``atexit`` is not guaranteed to run in pool workers torn down by
    the executor, so the worker flushes its counters itself — exactly
    what long-lived service workers do.
    """
    cache = ResultCache(root)
    key = "stats-probe"
    hit, _ = cache.get(key)  # miss
    cache.put(key, 42)
    hit2, value = cache.get(key)  # hit
    cache.flush_stats()
    return (hit, hit2, value)


class TestCacheLifetimeStats:
    def test_pool_worker_stats_aggregate(self, tmp_path):
        root = str(tmp_path / "cache")
        outcomes = map_tasks(_cache_stats_task, [root, root, root],
                             workers=2)
        # later tasks may hit the first writer's entry on their first
        # get; everyone sees the value on the second.
        assert all(o[1:] == (True, 42) for o in outcomes)
        fresh = ResultCache(root)
        lifetime = fresh.lifetime_stats()
        assert lifetime["hits"] >= 3
        assert lifetime["misses"] >= 1  # first writer misses for sure
        assert "lifetime" in fresh.stats()

    def test_lifetime_includes_unflushed_local_counts(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.get("nope")  # unflushed miss
        assert cache.lifetime_stats()["misses"] >= 1

    def test_lifetime_survives_torn_log_line(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.get("nope")
        cache.flush_stats()
        log = tmp_path / "c" / "_stats.log"
        log.write_text(log.read_text() + "garbage not numbers\n")
        assert ResultCache(str(tmp_path / "c")) \
            .lifetime_stats()["misses"] >= 1
