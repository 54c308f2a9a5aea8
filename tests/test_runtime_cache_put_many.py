"""ResultCache.put_many: a batch's entries share one file.

A lot chunk's die entries are hard links to one pickle file, so a cold
lot creates one file per chunk instead of one per die.  Everything a
caller sees stays per key: one entry name, one hit/miss/error count
and one heal per key, even when the shared file is damaged.
"""

from __future__ import annotations

import errno
import gc
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro.runtime.cache as cache_mod
from repro.analysis.yield_study import run_yield_study
from repro.devices.variation import VariationModel
from repro.runtime import ResultCache
from repro.runtime.chaos import ChaosMonkey

ITEMS = {f"k{i}": (float(i), "die") for i in range(4)}


def _inodes(cache: ResultCache) -> set[int]:
    return {p.stat().st_ino for p in cache.entries()}


def _no_links(monkeypatch, after: int = 0) -> None:
    """Let ``after`` hard links succeed, then fail like a full link
    count (``EMLINK``)."""
    real_link = os.link
    made = []

    def link(src, dst, *args, **kwargs):
        if len(made) >= after:
            raise OSError(errno.EMLINK, "Too many links")
        made.append(dst)
        return real_link(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "link", link)


def _count_loads(monkeypatch) -> list[str]:
    """Record the file name of every unpickle the cache makes."""
    loads = []
    real_load = pickle.load

    def counting_load(fh, *args, **kwargs):
        loads.append(fh.name)
        return real_load(fh, *args, **kwargs)

    monkeypatch.setattr(cache_mod.pickle, "load", counting_load)
    return loads


def test_put_many_links_every_key_to_one_file(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put_many(ITEMS)
    assert [p.name for p in cache.entries()] == \
        sorted(f"{k}.pkl" for k in ITEMS)
    assert len(_inodes(cache)) == 1
    assert [p.suffix for p in tmp_path.iterdir()] == [".pkl"] * len(ITEMS)
    fresh = ResultCache(tmp_path)
    for key, value in ITEMS.items():
        assert fresh.get(key) == (True, value)
    assert (fresh.hits, fresh.misses, fresh.errors) == (len(ITEMS), 0, 0)


def test_put_many_overwrites_and_mixes_with_put(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k0", "old")
    cache.put_many(ITEMS)
    cache.put("k1", "own file")
    assert cache.get("k0") == (True, ITEMS["k0"])
    assert cache.get("k1") == (True, "own file")
    assert cache.get("k2") == (True, ITEMS["k2"])
    assert len(cache.entries()) == len(ITEMS)


def test_put_many_one_item_batch(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put_many({"solo": 7})
    assert [p.name for p in tmp_path.iterdir()] == ["solo.pkl"]
    assert ResultCache(tmp_path).get("solo") == (True, 7)


def test_stats_bytes_counts_a_shared_file_once(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put_many(ITEMS)
    cache.put("alone", 1.5)
    sizes = {p.stat().st_ino: p.stat().st_size for p in cache.entries()}
    assert len(sizes) == 2
    stats = cache.stats()
    assert stats["entries"] == len(ITEMS) + 1
    assert stats["bytes"] == sum(sizes.values())


@pytest.mark.parametrize("after", [0, 2])
def test_put_many_falls_back_to_one_file_per_key(tmp_path, monkeypatch,
                                                 after):
    _no_links(monkeypatch, after=after)
    cache = ResultCache(tmp_path)
    cache.put_many(ITEMS)
    monkeypatch.undo()
    assert not cache.disabled and cache.errors == 0
    assert len(cache.entries()) == len(ITEMS)
    # the first ``after`` keys share the batch file; each other key
    # has a file of its own
    assert len(_inodes(cache)) == len(ITEMS) - max(after - 1, 0)
    assert [p.suffix for p in tmp_path.iterdir()] == [".pkl"] * len(ITEMS)
    fresh = ResultCache(tmp_path)
    assert all(fresh.get(k) == (True, v) for k, v in ITEMS.items())


def test_put_many_disables_itself_on_unwritable_dir(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    cache = ResultCache(blocker / "sub")
    with pytest.warns(RuntimeWarning, match="not writable"):
        cache.put_many(ITEMS)
    assert cache.disabled and cache.errors == 1
    cache.put_many(ITEMS)  # no second warning, no crash


def test_get_memo_unpickles_each_shared_file_once(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cache.put_many(ITEMS)
    cache.put_many({f"b{i}": i for i in range(3)})
    loads = _count_loads(monkeypatch)
    fresh = ResultCache(tmp_path)
    for key in [*ITEMS, "b0", "b1", "b2"]:
        assert fresh.get(key)[0]
    assert len(loads) == 2


def test_get_memo_survives_alternating_shared_files(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cache.put_many(ITEMS)
    cache.put_many({f"b{i}": i for i in range(4)})
    loads = _count_loads(monkeypatch)
    fresh = ResultCache(tmp_path)
    for _ in range(3):
        for i in range(4):
            assert fresh.get(f"k{i}") == (True, ITEMS[f"k{i}"])
            assert fresh.get(f"b{i}") == (True, i)
    assert len(loads) == 2


def test_get_memo_holds_a_fixed_number_of_files(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    n_files = cache_mod._MEMO_FILES + 1
    for f in range(n_files):
        cache.put_many({f"f{f}k{i}": (f, i) for i in range(2)})
    loads = _count_loads(monkeypatch)
    fresh = ResultCache(tmp_path)
    for f in range(n_files):
        assert fresh.get(f"f{f}k0") == (True, (f, 0))
    assert len(fresh._memo) == cache_mod._MEMO_FILES
    # The first file was dropped, first in first out; the last is kept.
    assert fresh.get(f"f{n_files - 1}k1")[0]
    assert len(loads) == n_files
    assert fresh.get("f0k1")[0]
    assert len(loads) == n_files + 1


# -- a lot on the cache ----------------------------------------------------

N_DIES = 8
WORKERS = 2  # two chunks of N_DIES // WORKERS dies


def _lot(design, cache):
    return run_yield_study(design, VariationModel(), n_dies=N_DIES,
                           seed=11, workers=WORKERS, cache=cache)


def test_cold_lot_writes_one_file_per_chunk(design, tmp_path):
    cache = ResultCache(tmp_path)
    _lot(design, cache)
    assert len(cache.entries()) == N_DIES
    assert len(_inodes(cache)) == WORKERS


@pytest.mark.parametrize("mode", ChaosMonkey.CORRUPTION_MODES)
def test_damaged_shared_file_heals_every_key(design, tmp_path, mode):
    uncached = _lot(design, None)
    _lot(design, ResultCache(tmp_path))
    (victim,) = ChaosMonkey(7).corrupt_cache(ResultCache(tmp_path),
                                             n_entries=1, mode=mode)
    rerun = ResultCache(tmp_path)
    assert _lot(design, rerun) == uncached
    chunk = N_DIES // WORKERS
    assert rerun.errors == chunk
    assert (rerun.hits, rerun.misses) == (N_DIES - chunk, chunk)
    third = ResultCache(tmp_path)
    assert _lot(design, third) == uncached
    assert (third.hits, third.misses, third.errors) == (N_DIES, 0, 0)


def test_lot_without_hard_links_stays_cached(design, tmp_path,
                                             monkeypatch):
    uncached = _lot(design, None)
    _no_links(monkeypatch)
    cache = ResultCache(tmp_path)
    assert _lot(design, cache) == uncached
    monkeypatch.undo()
    assert not cache.disabled and cache.errors == 0
    assert len(cache.entries()) == N_DIES
    assert len(_inodes(cache)) == N_DIES
    warm = ResultCache(tmp_path)
    assert _lot(design, warm) == uncached
    assert (warm.hits, warm.misses) == (N_DIES, 0)


def test_warm_lot_unpickles_each_shared_file_once(design, tmp_path,
                                                  monkeypatch):
    uncached = _lot(design, None)
    _lot(design, ResultCache(tmp_path))
    loads = _count_loads(monkeypatch)
    warm = ResultCache(tmp_path)
    assert _lot(design, warm) == uncached
    assert (warm.hits, warm.misses) == (N_DIES, 0)
    assert len(loads) == WORKERS


# -- the stats flush holds no strong reference -----------------------------

def test_collected_cache_is_freed_and_flushes(tmp_path):
    root = tmp_path / "c"
    cache = ResultCache(root)
    cache.get("absent")  # one unflushed miss
    ref = weakref.ref(cache)
    del cache
    gc.collect()
    assert ref() is None
    assert ResultCache(root).lifetime_stats() == \
        {"hits": 0, "misses": 1, "errors": 0}


def test_live_cache_flushes_at_exit(tmp_path):
    root = tmp_path / "c"
    src = Path(cache_mod.__file__).resolve().parents[2]
    code = ("import sys; from repro.runtime import ResultCache; "
            "c = ResultCache(sys.argv[1]); c.get('a'); c.get('b')")
    subprocess.run([sys.executable, "-c", code, str(root)], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
    assert ResultCache(root).lifetime_stats()["misses"] == 2
