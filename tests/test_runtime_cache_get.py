"""ResultCache.get reads each entry by its file name under the root.

The entry name is the root, a separator and ``<key>.pkl``: a relative
root resolves against the working directory and ``~`` is expanded
once, when the cache is built.  Per key, a get books one
``cache.get`` phase, one hit, miss or error, and unlinks a damaged
entry name.
"""

from __future__ import annotations

import pytest

from repro.analysis.yield_study import run_yield_study
from repro.devices.variation import VariationModel
from repro.runtime import ResultCache
from repro.runtime.profiling import PROFILER


def test_relative_root_hits(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ResultCache("rel/c").put("k", 1.5)
    assert (tmp_path / "rel" / "c" / "k.pkl").is_file()
    warm = ResultCache("rel/c")
    assert warm.get("k") == (True, 1.5)
    assert (warm.hits, warm.misses, warm.errors) == (1, 0, 0)


def test_home_root_hits(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    ResultCache("~/c").put_many({"a": 1, "b": 2})
    assert (tmp_path / "c" / "a.pkl").is_file()
    warm = ResultCache("~/c")
    assert [warm.get(k) for k in "ab"] == [(True, 1), (True, 2)]
    assert warm.get("z") == (False, None)
    assert (warm.hits, warm.misses, warm.errors) == (2, 1, 0)


def test_vandalised_shared_file_misses_and_unlinks_every_name(tmp_path):
    keys = [f"k{i}" for i in range(4)]
    ResultCache(tmp_path).put_many({k: i for i, k in enumerate(keys)})
    (tmp_path / "k0.pkl").write_bytes(b"not a pickle")  # the shared inode
    cache = ResultCache(tmp_path)
    for n, key in enumerate(keys, 1):
        assert cache.get(key) == (False, None)
        assert (cache.misses, cache.errors) == (n, n)
        assert not (tmp_path / f"{key}.pkl").exists()
    assert cache.entries() == []


@pytest.fixture
def enabled_profiler():
    was = PROFILER.enabled
    PROFILER.reset()
    PROFILER.enable()
    yield PROFILER
    PROFILER.enabled = was
    PROFILER.reset()


def test_warm_lot_books_one_cache_get_per_die(design, tmp_path,
                                              enabled_profiler):
    n = 9
    cold = run_yield_study(design, VariationModel(), n_dies=n, seed=4,
                           cache=ResultCache(tmp_path))
    enabled_profiler.reset()
    warm = ResultCache(tmp_path)
    assert run_yield_study(design, VariationModel(), n_dies=n, seed=4,
                           cache=warm) == cold
    assert (warm.hits, warm.misses) == (n, 0)
    assert enabled_profiler.snapshot()["cache.get"][0] == n
