"""The ladder store: one solve per key, bounded, read-only, thread-safe.

Every stored value must be the float a fresh solve returns, so each
test compares against the plain solvers (``threshold_grid``,
``lot_threshold_grid``, ``SensorDesign.bit_threshold``), which must
themselves keep solving on every call.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.backends import KernelBackend
from repro.devices.corners import corner_by_name
from repro.devices.variation import VariationModel
from repro.errors import ConfigurationError
from repro.kernels import (
    KERNEL_DTYPE_TOKEN,
    ladders,
    lot_threshold_grid,
    threshold_grid,
)


@pytest.fixture(autouse=True)
def cold_store():
    ladders.clear()
    yield
    ladders.clear()


@pytest.fixture()
def lot(design):
    return VariationModel().sample_lot(12, design.n_bits, seed=5)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# -- stored values are the solvers' floats -----------------------------------


@pytest.mark.parametrize("corner", [None, "SS", "FF"])
def test_ladder_equals_a_fresh_solve(design, corner):
    tech = None if corner is None \
        else corner_by_name(corner).apply(design.tech)
    for code in range(8):
        fresh = tuple(float(v) for v in
                      threshold_grid(design, (code,), tech)[:, 0])
        assert ladders.ladder(design, code, tech) == fresh
        assert ladders.ladder(design, code, tech) == fresh
        for bits in ((), (3,), (2, 4, 6), (7, 1)):
            subset = threshold_grid(design, (code,), tech,
                                    bits=bits)[:, 0]
            assert ladders.ladder(design, code, tech, bits=bits) \
                == tuple(float(v) for v in subset)


def test_die_rows_equal_a_whole_lot_solve(design, lot):
    whole = lot_threshold_grid(design, lot, 3)
    # Warm a scattered subset first, so the full read mixes stored
    # rows with one batch solve of the rest.
    part = ladders.die_ladders(design, lot[1::3], 3)
    assert np.array_equal(part, whole[1::3])
    table = ladders.die_ladders(design, lot, 3)
    assert table.dtype == whole.dtype
    assert np.array_equal(table, whole)
    assert ladders.size() == len(lot)


def test_bit_threshold_equals_the_scalar_solve(design):
    ss = corner_by_name("SS").apply(design.tech)
    for bit in (1, 4, 7):
        for code in (0, 3, 7):
            for tech, window_tech in ((None, None), (ss, None),
                                      (ss, design.tech)):
                want = design.bit_threshold(bit, code, tech,
                                            window_tech=window_tech)
                got = ladders.bit_threshold(design, bit, code, tech,
                                            window_tech=window_tech)
                assert got == want
                assert ladders.bit_threshold(
                    design, bit, code, tech,
                    window_tech=window_tech) == want


def test_each_key_is_solved_once(design, lot, monkeypatch):
    grid_calls = _counting(monkeypatch, ladders, "threshold_grid")
    lot_calls = _counting(monkeypatch, ladders, "lot_threshold_grid")
    for _ in range(3):
        ladders.ladder(design, 3)
        ladders.ladder(design, 3, bits=(1, 2))
        ladders.die_ladders(design, lot, 3)
    assert len(grid_calls) == 1
    assert len(lot_calls) == 1
    ladders.die_ladders(design, lot[:4], 2)
    ladders.die_ladders(design, lot, 2)
    assert len(lot_calls) == 3
    assert [len(args[1]) for args in lot_calls] == [12, 4, 8]


def test_failed_solves_store_nothing(design, lot):
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            ladders.ladder(design, 8)
        with pytest.raises(ConfigurationError):
            ladders.ladder(design, 3, bits=(0,))
        with pytest.raises(ConfigurationError):
            ladders.bit_threshold(design, 8, 3)
        with pytest.raises(ConfigurationError):
            ladders.die_ladders(design, lot, 9)
    # The bad-bit call solved and stored the code-3 ladder itself.
    assert ladders.size() == 1


# -- the satellite checks ------------------------------------------------------


def test_eviction_at_the_fixed_bound(design, monkeypatch):
    n = ladders.MAX_ENTRIES
    big = VariationModel().sample_lot(n + 8, design.n_bits, seed=9)
    whole = lot_threshold_grid(design, big, 3)
    assert np.array_equal(ladders.die_ladders(design, big[:n], 3),
                          whole[:n])
    assert ladders.size() == n
    ladders.die_ladders(design, big[:1], 3)  # a read refreshes die 0
    assert np.array_equal(ladders.die_ladders(design, big[n:], 3),
                          whole[n:])
    assert ladders.size() == n
    calls = _counting(monkeypatch, ladders, "lot_threshold_grid")
    ladders.die_ladders(design, big[:1], 3)
    ladders.die_ladders(design, big[9:], 3)
    assert calls == []
    # The eight least recently used rows went: dies 1 to 8.
    again = ladders.die_ladders(design, big[:9], 3)
    assert [len(args[1]) for args in calls] == [8]
    assert np.array_equal(again, whole[:9])
    assert ladders.size() == n
    # Each stored row owns its floats: none is a view that would keep
    # a whole batch solve alive.
    rows = [v for k, v in ladders._entries.items() if k[0] == "die"]
    assert len(rows) == n
    assert all(row.base is None and row.nbytes == whole[0].nbytes
               for row in rows)


def test_returned_values_cannot_be_mutated(design, lot):
    rungs = ladders.ladder(design, 3)
    assert isinstance(rungs, tuple)
    with pytest.raises(TypeError):
        rungs[0] = 0.0  # type: ignore[index]
    table = ladders.die_ladders(design, lot, 3)
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    with pytest.raises(ValueError):
        table += 1.0
    backend = KernelBackend()
    backend.configure(design)
    with pytest.raises(ValueError):
        backend.lot_thresholds(lot, 3)[:, 0] = 0.0
    assert np.array_equal(ladders.die_ladders(design, lot, 3),
                          lot_threshold_grid(design, lot, 3))
    assert ladders.ladder(design, 3) == tuple(
        float(v) for v in threshold_grid(design, (3,))[:, 0])


def test_dtype_tokens_are_literal():
    """The tokens folded into persisted cache keys never move."""
    assert KERNEL_DTYPE_TOKEN == "dtype/float64"


def test_racing_threads_share_one_entry(design, monkeypatch):
    real = ladders.threshold_grid

    def slow(*args, **kwargs):
        time.sleep(0.02)  # every thread misses before any stores
        return real(*args, **kwargs)

    monkeypatch.setattr(ladders, "threshold_grid", slow)
    ss = corner_by_name("SS").apply(design.tech)
    start = threading.Barrier(8)
    results: list[tuple[float, ...]] = [()] * 8

    def worker(i: int) -> None:
        start.wait()
        results[i] = ladders.ladder(design, 5, ss)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert all(r == results[0] for r in results)
    assert all(r is results[0] for r in results)
    assert ladders.size() == 1
    assert results[0] == tuple(
        float(v) for v in real(design, (5,), ss)[:, 0])


def test_concurrent_readers_get_fresh_solve_values(design):
    lot = VariationModel().sample_lot(48, design.n_bits, seed=3)
    whole = {code: lot_threshold_grid(design, lot, code) for code in (2, 3)}
    nominal = {code: tuple(float(v) for v in
                           threshold_grid(design, (code,))[:, 0])
               for code in range(8)}
    bad: list[str] = []

    def worker(i: int) -> None:
        rng = np.random.default_rng(i)
        for _ in range(40):
            code = int(rng.integers(2, 4))
            pick = np.sort(rng.choice(len(lot), size=6, replace=False))
            table = ladders.die_ladders(design, [lot[j] for j in pick],
                                        code)
            if not np.array_equal(table, whole[code][pick]):
                bad.append(f"rows {pick} code {code}")
            c = int(rng.integers(0, 8))
            if ladders.ladder(design, c) != nominal[c]:
                bad.append(f"ladder {c}")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    # Every key is stored once, however many threads solved it.
    stored = ladders.size()
    ladders.die_ladders(design, lot, 2)
    ladders.die_ladders(design, lot, 3)
    for c in range(8):
        ladders.ladder(design, c)
    assert ladders.size() == 2 * len(lot) + 8 >= stored


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_can_read_while_parent_holds_the_lock(design):
    ctx = multiprocessing.get_context("fork")
    with ladders._lock:
        child = ctx.Process(target=ladders.ladder, args=(design, 3))
        child.start()
    child.join(timeout=30)
    hung = child.is_alive()
    if hung:
        child.kill()
    assert not hung
    assert child.exitcode == 0


def test_plain_solvers_still_solve_every_call(design, lot, monkeypatch):
    import repro.devices.mosfet as mosfet
    import repro.kernels.thresholds as thresholds

    grid_solves = _counting(monkeypatch, thresholds,
                            "solve_voltage_factor")
    threshold_grid(design, (3,))
    threshold_grid(design, (3,))
    assert len(grid_solves) == 2
    lot_threshold_grid(design, lot, 3)
    lot_threshold_grid(design, lot, 3)
    assert len(grid_solves) == 4
    scalar_solves = _counting(monkeypatch, mosfet, "brentq")
    design.bit_threshold(4, 3)
    design.bit_threshold(4, 3)
    assert len(scalar_solves) == 2
    assert ladders.size() == 0
