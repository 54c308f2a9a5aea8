"""Kernel layer vs. scalar oracle: property tests and the perf smoke.

The vectorized kernels (:mod:`repro.kernels`) carry two contracts:

* **agreement** — grid-solved thresholds match the per-point ``brentq``
  oracle to within 2e-9 V (its own ``xtol``); all word/decode/compare
  kernels are *bit-identical* to the scalar code they replace;
* **batch invariance** — solving a subset of (bit, code, die) lanes
  returns bit-identical values to slicing the full-grid solve, which is
  what lets ``DegradedArray`` and the batched yield path share results
  with their scalar-shaped counterparts exactly.

Randomized inputs are seeded (designs, corners, lots) or generated by
Hypothesis (ladders, words, supplies), so failures replay.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.thermometer import ThermometerWord, VoltageRange, decode_word
from benchmarks._oracles import score_die_scalar
from repro.analysis.yield_study import _scores_from_lot_grid
from repro.core.array import SensorArray
from repro.core.autorange import AutoRangingMeter
from repro.core.degraded import DegradedArray
from repro.core.guardband import GuardbandController
from repro.core.sensor import SenseRail
from repro.devices.variation import VariationModel
from repro.errors import ConfigurationError
from repro.kernels import (
    bubble_grid,
    decode_bounds,
    delay_grid,
    lot_threshold_grid,
    midpoint_grid,
    ones_count_grid,
    solve_voltage_factor,
    threshold_grid,
    voltage_factor_grid,
    word_grid,
)

#: Documented kernel-vs-brentq agreement bound, volts.
TOL_V = 2e-9


def _random_designs(design, rng, n):
    """Seeded random ablations of the paper design, incl. a 1-bit one."""
    out = []
    for _ in range(n):
        n_bits = int(rng.integers(1, 9))
        base = rng.uniform(0.2e-15, 2e-15)
        steps = rng.uniform(0.05e-15, 1e-15, size=n_bits)
        caps = base + np.cumsum(steps)
        out.append(design.with_load_caps(tuple(float(c) for c in caps)))
    return out


def _random_corner(design, rng):
    return design.tech.scaled(
        vth_shift=float(rng.uniform(-0.02, 0.03)),
        drive_scale=float(rng.uniform(0.85, 1.2)),
        name="corner",
    )


# -- threshold solves vs. the brentq oracle -----------------------------------


def test_threshold_grid_matches_oracle_on_random_designs(design):
    rng = np.random.default_rng(7)
    for d in _random_designs(design, rng, 4):
        tech = _random_corner(design, rng)
        codes = tuple(range(8))
        grid = threshold_grid(d, codes, tech)
        assert grid.shape == (d.n_bits, 8)
        for b in range(1, d.n_bits + 1):
            for j, code in enumerate(codes):
                oracle = d.bit_threshold(b, code, tech)
                assert abs(grid[b - 1, j] - oracle) <= TOL_V
        assert np.all(np.diff(grid, axis=0) > 0)  # ladder stays ordered


def test_threshold_grid_window_tech_split_matches_oracle(design):
    """Corner inverters under a design-tech window (trimming's worst
    case) agree with the scalar ``window_tech=`` path."""
    rng = np.random.default_rng(11)
    corner = _random_corner(design, rng)
    grid = threshold_grid(design, (0, 3, 7), corner,
                          window_tech=design.tech)
    for i, code in enumerate((0, 3, 7)):
        for b in range(1, design.n_bits + 1):
            oracle = design.bit_threshold(b, code, corner,
                                          window_tech=design.tech)
            assert abs(grid[b - 1, i] - oracle) <= TOL_V


def test_threshold_grid_validates_inputs(design):
    with pytest.raises(ConfigurationError):
        threshold_grid(design, (8,))
    with pytest.raises(ConfigurationError):
        threshold_grid(design, (3,), bits=(0,))
    with pytest.raises(ConfigurationError):
        threshold_grid(design, (3,), bits=(design.n_bits + 1,))


def test_lot_threshold_grid_matches_die_characteristic(design):
    from repro.analysis.yield_study import die_characteristic

    lot = VariationModel().sample_lot(5, design.n_bits, seed=99)
    grid = lot_threshold_grid(design, lot, 3)
    assert grid.shape == (5, design.n_bits)
    for i, sample in enumerate(lot):
        die = die_characteristic(design, sample, code=3)
        for b in range(design.n_bits):
            assert abs(grid[i, b] - die.thresholds[b]) <= TOL_V


def test_batch_invariance_bits_codes_and_dies(design):
    """Subset solves are bit-identical to full-grid slices."""
    full = threshold_grid(design, tuple(range(8)))
    sub = threshold_grid(design, (2, 5), bits=(1, 4, 7))
    assert sub.tolist() == full[np.ix_((0, 3, 6), (2, 5))].tolist()

    lot = VariationModel().sample_lot(4, design.n_bits, seed=5)
    full_lot = lot_threshold_grid(design, lot, 3)
    one = lot_threshold_grid(design, (lot[2],), 3)
    assert one[0].tolist() == full_lot[2].tolist()


def test_solver_inverse_property(design):
    """solve(voltage_factor(v)) round-trips to v across the dynamic."""
    tech = design.tech
    rng = np.random.default_rng(23)
    v = rng.uniform(tech.vth + 0.05, 2.5, size=64)
    g = voltage_factor_grid(v, tech.vth, tech.alpha)
    solved = solve_voltage_factor(g, tech.vth, tech.alpha)
    assert np.all(np.abs(solved - v) <= 1e-9)


def test_solver_rejects_unbracketed_targets(design):
    tech = design.tech
    g_hi = voltage_factor_grid(np.array([tech.vth + 1e-5]),
                               tech.vth, tech.alpha)
    with pytest.raises(ConfigurationError):
        # Faster than the v_hi end of the bracket can explain.
        solve_voltage_factor(np.array([1e-12]), tech.vth, tech.alpha)
    with pytest.raises(ConfigurationError):
        # Slower than any supply above vth allows.
        solve_voltage_factor(g_hi * 100.0, tech.vth, tech.alpha,
                             v_hi=1.2)


def test_delay_grid_matches_scalar_delay(design):
    """The forward law is the scalar ``AlphaPowerModel.delay`` op
    order, so margins (window - delay) compare bit-identically."""
    inv = design.sensor_inverter()
    rng = np.random.default_rng(31)
    v = rng.uniform(design.tech.vth + 0.02, 1.4, size=32)
    loads = rng.uniform(0.1e-15, 5e-15, size=4)
    grid = delay_grid(
        v[:, None],
        inv.model.intrinsic_cap + loads[None, :],
        inv.model.tech.drive_constant / inv.model.strength,
        inv.model.tech.vth, inv.model.tech.alpha,
    )
    for i, vi in enumerate(v):
        for j, load in enumerate(loads):
            assert grid[i, j] == inv.model.delay(float(vi), float(load))


# -- thermometer kernels: bit-identical to the scalar decode ------------------


@st.composite
def _ladder_and_supplies(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    steps = draw(st.lists(
        st.floats(min_value=1e-3, max_value=0.2,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n,
    ))
    lo = draw(st.floats(min_value=0.3, max_value=1.0,
                        allow_nan=False, allow_infinity=False))
    ladder = tuple(float(lo + s) for s in np.cumsum(steps))
    supplies = draw(st.lists(
        st.floats(min_value=0.0, max_value=2.5,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=16,
    ))
    return ladder, supplies


@given(_ladder_and_supplies())
@settings(max_examples=60, deadline=None)
def test_word_and_decode_grids_match_scalar(data):
    ladder, supplies = data
    v = np.asarray(supplies)
    words = word_grid(v, np.asarray(ladder))
    ks = ones_count_grid(words)
    lo, hi = decode_bounds(np.asarray(ladder), ks)
    for i, level in enumerate(supplies):
        word = ThermometerWord(
            tuple(1 if level > t else 0 for t in ladder)
        )
        assert tuple(int(b) for b in words[i]) == word.bits
        assert int(ks[i]) == word.ones
        rng = decode_word(word, ladder, strict=False)
        assert (lo[i], hi[i]) == (rng.lo, rng.hi)


@given(st.lists(st.integers(min_value=0, max_value=1),
                min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_bubble_grid_matches_scalar_validity(bits):
    word = ThermometerWord(tuple(bits))
    bubbled = bubble_grid(np.asarray(bits, dtype=np.uint8))
    assert bool(bubbled) == (not word.is_valid_thermometer)


@given(st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=2,
                max_size=8, unique=True).map(sorted),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_midpoint_grid_matches_voltage_range(ladder, k):
    k = min(k, len(ladder))
    lo, hi = decode_bounds(np.asarray(ladder), np.asarray([k]))
    expected = VoltageRange(float(lo[0]), float(hi[0])).midpoint
    assert float(midpoint_grid(lo, hi)[0]) == expected


def test_midpoint_grid_rejects_doubly_unbounded():
    from repro.errors import DecodingError

    with pytest.raises(DecodingError):
        midpoint_grid(np.array([-np.inf]), np.array([np.inf]))


def test_decode_bounds_rejects_bad_inputs():
    with pytest.raises(Exception):
        decode_bounds(np.array([1.0, 0.9]), np.array([1]))  # not ascending
    with pytest.raises(Exception):
        decode_bounds(np.array([0.8, 0.9]), np.array([3]))  # k out of range


# -- rewired consumers: masked bits, yield scoring, sweeps --------------------


def test_degraded_array_thresholds_are_full_array_slices(design):
    """Masked-bit solves are bit-identical to the surviving slice of
    the full array's ladder (batch invariance in consumer form)."""
    arr = SensorArray(design)
    deg = DegradedArray(design, masked_bits=(2, 6))
    for code in (0, 3, 7):
        full = arr.supply_thresholds(code)
        got = deg.supply_thresholds(code)
        assert got == tuple(full[b - 1] for b in deg.surviving_bits)


def test_one_bit_design_thresholds(design):
    """The degenerate 1-bit array exercises every kernel edge shape."""
    d1 = design.with_load_caps((design.load_caps[0],))
    grid = threshold_grid(d1, tuple(range(8)))
    assert grid.shape == (1, 8)
    for code in range(8):
        assert abs(grid[0, code] - d1.bit_threshold(1, code)) <= TOL_V
    words = word_grid(np.array([0.0, 2.0]), grid[:, 3])
    assert bubble_grid(words).tolist() == [False, False]


def test_kernel_die_score_matches_scalar_oracle(design):
    """The kernel scorer (a one-die lot solve plus the fused lot
    reduction) reproduces the scalar oracle field for field
    (thresholds within tolerance, counts exactly)."""
    lot = VariationModel().sample_lot(6, design.n_bits, seed=17)
    ladder = tuple(float(t) for t in threshold_grid(design, (3,))[:, 0])
    supplies = tuple(
        float(v) for v in np.linspace(ladder[0] + 0.01,
                                      ladder[-1] - 0.01, 9)
    )
    for sample in lot:
        grid = lot_threshold_grid(design, (sample,), 3)
        kern, = _scores_from_lot_grid(grid, supplies, ladder)
        scal = score_die_scalar(design, sample, 3, supplies, ladder)
        assert max(
            abs(a - b) for a, b in zip(kern.thresholds, scal.thresholds)
        ) <= TOL_V
        assert kern.monotone == scal.monotone
        assert kern.bubbled == scal.bubbled
        assert kern.bracketed == scal.bracketed
        assert kern.bracketed_cal == scal.bracketed_cal
        assert kern.errors == scal.errors


def test_scan_levels_matches_measure_level(design):
    """The vectorized autorange sweep equals the scalar policy per
    level — word, final code, attempts, saturation, decode — on both
    rails, including saturating levels that walk the code range."""
    for rail in (SenseRail.VDD, SenseRail.GND):
        meter = AutoRangingMeter(design, rail)
        lo, hi = meter.total_dynamic()
        if rail is SenseRail.VDD:
            levels = list(np.linspace(lo - 0.1, hi + 0.1, 25))
        else:
            nom = design.tech.vdd_nominal
            levels = list(np.linspace(nom - hi - 0.1, nom - lo + 0.1, 25))
        batch = meter.scan_levels(levels)
        for level, got in zip(levels, batch):
            ref = (meter.measure_level(vdd_n=level)
                   if rail is SenseRail.VDD
                   else meter.measure_level(gnd_n=level))
            assert got.word.bits == ref.word.bits
            assert got.code == ref.code
            assert got.attempts == ref.attempts
            assert got.saturated == ref.saturated
            assert (got.decoded.lo, got.decoded.hi) \
                == (ref.decoded.lo, ref.decoded.hi)


def test_scan_levels_validates_input(design):
    meter = AutoRangingMeter(design)
    with pytest.raises(ConfigurationError):
        meter.scan_levels([])
    with pytest.raises(ConfigurationError):
        meter.scan_levels(np.zeros((2, 2)))


def test_observe_many_equals_repeated_observe():
    readings = [
        VoltageRange(0.93, 0.97),
        VoltageRange(float("-inf"), 0.80),
        VoltageRange(0.88, 0.91),
    ]
    a = GuardbandController(vmin=0.8, margin=0.05)
    b = GuardbandController(vmin=0.8, margin=0.05)
    for r in readings:
        a.observe(r)
    b.observe_many(readings)
    assert b.epoch_worst == a.epoch_worst
    assert b._epoch_measures == a._epoch_measures

    c = GuardbandController(vmin=0.8, margin=0.05)
    c.observe_many(np.array([r.lo for r in readings]))
    assert c.epoch_worst == a.epoch_worst
    assert b.decide() == a.decide()

    d = GuardbandController(vmin=0.8, margin=0.05)
    d.observe_many([])
    assert d._epoch_measures == 0


# -- perf harness smoke -------------------------------------------------------


def test_kernel_bench_smoke_writes_tracked_json(design, tmp_path):
    """The bench runs in smoke mode, proves agreement, and emits the
    BENCH_kernels.json schema the CI perf job uploads.  No timing
    floor here — tier-1 must pass on arbitrarily noisy hosts; the
    >= 3x gate lives in the CI perf-smoke job."""
    bench = pytest.importorskip("benchmarks.bench_kernels")
    out = tmp_path / "BENCH_kernels.json"
    payload = bench.run(smoke=True, repeats=1, out=str(out))
    body = json.loads(out.read_text())
    for doc in (payload, body):
        assert doc["bench"] == "kernels"
        assert doc["mode"] == "smoke"
        assert set(doc["workloads"]) == {"fig5_grid", "yield_200"}
        for w in doc["workloads"].values():
            assert w["max_abs_delta_v"] <= TOL_V
            assert w["speedup"] > 0
            assert w["kernel"]["points_per_s"] > 0
    assert body["machine"]["numpy"]
    assert bench.main(["--smoke", "--repeats", "1"]) == 0
