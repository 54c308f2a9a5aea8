"""repro.runtime: parallel/cached sweeps are bit-identical to serial.

The runtime layer's whole contract is "faster, never different":
process-pool fan-out must return exactly the serial results, and the
on-disk cache must only ever short-circuit work it has proven it
already did — including surviving corrupt entries and invalidating
when the design changes.
"""

import os
import pickle

import pytest

from benchmarks.bench_fig4_threshold_vs_cap import SIM_CAPS, run_fig4_sim
from repro.analysis.repeatability import extract_ladder_via_s_curves
from repro.analysis.yield_study import run_yield_study
from repro.core.characterization import (
    characterize_array,
    characterize_bit_thresholds,
    threshold_vs_capacitance,
)
from repro.devices.variation import VariationModel
from repro.errors import ConfigurationError
from repro.runtime import (
    ResultCache,
    cached_map,
    default_cache_dir,
    design_fingerprint,
    env_workers,
    map_tasks,
    resolve_cache,
    resolve_workers,
    stable_hash,
    task_key,
)

WORKERS = 4


# -- executor primitives ------------------------------------------------------

def test_resolve_workers_serial_aliases():
    assert resolve_workers(None) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(-1) >= 1  # all cores


def test_env_workers(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert env_workers() is None
    assert env_workers(2) == 2
    monkeypatch.setenv("REPRO_WORKERS", "6")
    assert env_workers() == 6
    monkeypatch.setenv("REPRO_WORKERS", "lots")
    with pytest.raises(ConfigurationError):
        env_workers()


def test_map_tasks_preserves_order():
    assert map_tasks(_square, range(20)) == [k * k for k in range(20)]
    assert map_tasks(_square, range(20), workers=WORKERS) == \
        [k * k for k in range(20)]
    assert map_tasks(_square, [], workers=WORKERS) == []


def _square(x):
    return x * x


def test_cached_map_requires_matching_keys(tmp_path):
    with pytest.raises(ConfigurationError):
        cached_map(_square, [1, 2, 3], keys=["only-one"],
                   cache=ResultCache(tmp_path))


# -- stable hashing -----------------------------------------------------------

def test_stable_hash_discriminates():
    assert stable_hash((1, 2.0)) == stable_hash((1, 2.0))
    assert stable_hash(1) != stable_hash(1.0)
    assert stable_hash((1, 2)) != stable_hash((1.0, 2.0))
    assert stable_hash("ab") != stable_hash(("a", "b"))
    assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})


def test_stable_hash_rejects_opaque_objects():
    with pytest.raises(ConfigurationError):
        stable_hash(object())


def test_design_fingerprint_tracks_design_changes(design):
    fp = design_fingerprint(design)
    assert fp == design_fingerprint(design)
    probe = design.with_load_caps((2.0e-12,))
    assert design_fingerprint(probe) != fp


def test_task_key_separates_families_and_parts():
    assert task_key("a", 1) != task_key("b", 1)
    assert task_key("a", 1) != task_key("a", 2)
    assert task_key("a", 1) == task_key("a", 1)


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    assert default_cache_dir() == tmp_path / "c"
    assert ResultCache().root == tmp_path / "c"


def test_cache_dir_must_not_be_a_file(tmp_path):
    clash = tmp_path / "not-a-dir"
    clash.write_text("")
    with pytest.raises(ConfigurationError):
        ResultCache(clash)


def test_resolve_cache_forms(tmp_path):
    assert resolve_cache(None) is None
    cache = ResultCache(tmp_path)
    assert resolve_cache(cache) is cache
    assert resolve_cache(tmp_path).root == tmp_path


# -- serial vs parallel equivalence -------------------------------------------

def test_sim_thresholds_parallel_identical_to_serial(design):
    serial = characterize_bit_thresholds(design, 3, method="sim",
                                         workers=1)
    parallel = characterize_bit_thresholds(design, 3, method="sim",
                                           workers=WORKERS)
    assert parallel == serial  # bit-identical, not approx


def test_characterize_array_parallel_identical(design):
    serial = characterize_array(design, codes=(2, 3), method="sim")
    parallel = characterize_array(design, codes=(2, 3), method="sim",
                                  workers=WORKERS)
    assert parallel == serial


def test_threshold_vs_cap_parallel_identical(design):
    serial = threshold_vs_capacitance(design, list(SIM_CAPS),
                                      method="sim")
    parallel = threshold_vs_capacitance(design, list(SIM_CAPS),
                                        method="sim", workers=WORKERS)
    assert parallel == serial


def test_yield_study_parallel_identical_to_serial(design, tmp_path):
    """Every workers x cache (none / cold / warm) combination, and
    ``"partial"`` with no failures, returns the serial uncached
    YieldReport bit-identically."""
    model = VariationModel()
    serial = run_yield_study(design, model, n_dies=10, seed=11)
    for workers in (1, 2, 3):
        assert run_yield_study(design, model, n_dies=10, seed=11,
                               workers=workers) == serial
        assert run_yield_study(design, model, n_dies=10, seed=11,
                               workers=workers,
                               failure_policy="partial") == serial
        for expect in ((0, 10), (10, 0)):  # cold, then warm
            cache = ResultCache(tmp_path / f"w{workers}")
            assert run_yield_study(design, model, n_dies=10, seed=11,
                                   workers=workers, cache=cache) == serial
            assert (cache.hits, cache.misses) == expect


def test_s_curve_ladder_parallel_identical(design):
    serial = extract_ladder_via_s_curves(design, n_per_level=30)
    parallel = extract_ladder_via_s_curves(design, n_per_level=30,
                                           workers=WORKERS)
    assert parallel == serial


# -- memoization --------------------------------------------------------------

def test_cache_hit_returns_identical_results(design, tmp_path):
    cache = ResultCache(tmp_path)
    cold = characterize_bit_thresholds(design, 3, method="sim",
                                       cache=cache)
    assert cache.hits == 0 and cache.misses == design.n_bits
    warm = characterize_bit_thresholds(design, 3, method="sim",
                                       cache=cache)
    assert warm == cold
    assert cache.hits == design.n_bits
    assert cache.misses == design.n_bits  # no new misses


def test_cache_entries_shared_across_entry_points(design, tmp_path):
    """characterize_array reuses characterize_bit_thresholds entries:
    the key is the task, not the calling API."""
    cache = ResultCache(tmp_path)
    characterize_bit_thresholds(design, 3, method="sim", cache=cache)
    characterize_array(design, codes=(3,), method="sim", cache=cache)
    assert cache.hits == design.n_bits


def test_cache_invalidates_on_design_change(design, tmp_path):
    cache = ResultCache(tmp_path)
    threshold_vs_capacitance(design, [2.0e-12], method="sim",
                             cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    # A different trim cap produces a different probe design, hence a
    # different fingerprint: the cache must miss, not serve stale data.
    threshold_vs_capacitance(design, [2.1e-12], method="sim",
                             cache=cache)
    assert (cache.hits, cache.misses) == (0, 2)
    # Changing the bisection tolerance also changes the key.
    threshold_vs_capacitance(design, [2.0e-12], method="sim",
                             tol=0.25e-3, cache=cache)
    assert (cache.hits, cache.misses) == (0, 3)


def test_corrupt_cache_entry_recomputes(design, tmp_path):
    cache = ResultCache(tmp_path)
    cold = characterize_bit_thresholds(design, 3, method="sim",
                                       cache=cache)
    entries = cache.entries()
    assert len(entries) == design.n_bits
    entries[0].write_bytes(b"\x00not a pickle")  # truncate/garble one
    fresh = ResultCache(tmp_path)
    again = characterize_bit_thresholds(design, 3, method="sim",
                                        cache=fresh)
    assert again == cold
    assert fresh.errors == 1
    assert fresh.hits == design.n_bits - 1
    assert fresh.misses == 1  # only the corrupt entry recomputed
    # ... and the bad entry was healed on disk:
    healed = ResultCache(tmp_path)
    characterize_bit_thresholds(design, 3, method="sim", cache=healed)
    assert healed.errors == 0 and healed.hits == design.n_bits


def test_cache_put_is_atomic(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k", (1.0, 2.0))
    assert [p.suffix for p in tmp_path.iterdir()] == [".pkl"]
    hit, value = cache.get("k")
    assert hit and value == (1.0, 2.0)


def test_cache_clear_and_stats(tmp_path):
    cache = ResultCache(tmp_path)
    for k in range(3):
        cache.put(f"k{k}", k)
    stats = cache.stats()
    assert stats["entries"] == 3 and stats["bytes"] > 0
    assert cache.clear() == 3
    assert cache.stats()["entries"] == 0


def test_yield_study_cache_roundtrip(design, tmp_path, monkeypatch):
    import repro.analysis.yield_study as ys
    from repro.backends import KernelBackend

    model = VariationModel()
    uncached = run_yield_study(design, model, n_dies=8, seed=11)
    # sample_lot is prefix-stable, so a 5-die lot caches the first
    # five dies of the 8-die lot: a mixed cache.
    run_yield_study(design, model, n_dies=5, seed=11,
                    cache=ResultCache(tmp_path))
    mixed = ResultCache(tmp_path)
    assert run_yield_study(design, model, n_dies=8, seed=11,
                           cache=mixed) == uncached
    assert (mixed.hits, mixed.misses) == (5, 3)

    # A warm lot solves nothing and submits nothing.
    def _boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("yield scoring ran on a warm cache")

    monkeypatch.setattr(KernelBackend, "lot_thresholds", _boom)
    monkeypatch.setattr(ys, "resilient_map", _boom)
    warm = ResultCache(tmp_path)
    for workers in (1, 2):
        assert run_yield_study(design, model, n_dies=8, seed=11,
                               workers=workers, cache=warm) == uncached
    assert (warm.hits, warm.misses) == (16, 0)
    monkeypatch.undo()
    # A different seed is a different lot: full miss.
    run_yield_study(design, model, n_dies=8, seed=12, cache=warm)
    assert warm.misses == 8


# -- the acceptance criterion: warm bench does zero bisections ----------------

def test_fig4_bench_warm_cache_runs_zero_bisections(
        design, tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cold = run_fig4_sim(design, cache=cache)
    assert cache.misses == len(SIM_CAPS)

    # Prove "zero bisection simulations", not just "mostly cached":
    # detonate if any threshold bisection actually runs.
    import repro.backends.sim as sim

    def _boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("bisection ran on a warm cache")

    monkeypatch.setattr(sim, "_sim_threshold_task", _boom)
    warm_cache = ResultCache(tmp_path)
    warm = run_fig4_sim(design, cache=warm_cache)
    assert warm == cold
    assert warm_cache.hits == len(SIM_CAPS)
    assert warm_cache.misses == 0


# -- payloads stay picklable (the pool's wire format) -------------------------

def test_design_and_report_payloads_pickle(design):
    model = VariationModel()
    sample = model.sample_die(design.n_bits, seed=3)
    report = run_yield_study(design, model, n_dies=2, seed=3)
    for obj in (design, sample, report):
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_workers_env_drives_bench_helpers(design, monkeypatch,
                                          tmp_path):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    via_env = run_fig4_sim(design)
    assert via_env == run_fig4_sim(design, workers=1)
    assert os.listdir(tmp_path) == []  # env workers, explicit cache only
