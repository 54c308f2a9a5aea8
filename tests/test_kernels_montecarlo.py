"""Batched Monte-Carlo kernels vs the scalar per-draw oracle.

The contract under test is *exact* statistical equivalence: the kernel
path must reproduce the scalar path's histograms and trip
probabilities float for float (same Generator streams under the
``MC_SEED_SCHEME`` spawn scheme, same elementwise pass/fail
arithmetic) — not merely agree within a tolerance.
"""

import numpy as np
import pytest

from repro.analysis.repeatability import (
    extract_ladder_via_s_curves,
    measure_s_curve,
    word_histogram,
)
from repro.core.sensor import SenseRail
from repro.errors import ConfigurationError
from repro.kernels.montecarlo import (
    effective_supply_grid,
    s_curve_trip_probability,
    spawn_bit_seeds,
    trip_grid,
    word_grid_mc,
    word_histogram_grid,
)


# -- draw-stream equivalence ---------------------------------------------------


def test_batched_normal_matches_sequential_scalar_draws():
    # The parity bedrock: one size-n call fills from the same stream
    # as n scalar draws.
    a = np.random.default_rng(7).normal(0.0, 5e-3, size=64)
    rng = np.random.default_rng(7)
    b = np.array([rng.normal(0.0, 5e-3) for _ in range(64)])
    assert np.array_equal(a, b)


# -- trip/word grids vs the scalar measure ------------------------------------


def test_trip_grid_matches_scalar_measure(design):
    from repro.core.array import SensorArray

    array = SensorArray(design)
    rng = np.random.default_rng(3)
    lo = design.bit_threshold(1, 3) - 0.05
    hi = design.bit_threshold(design.n_bits, 3) + 0.05
    draws = rng.uniform(lo, hi, size=40)
    trips = trip_grid(design, draws, code=3)
    for i, v in enumerate(draws):
        for bit in range(1, design.n_bits + 1):
            passed = array.bits[bit - 1].measure(3, vdd_n=float(v)).passed
            assert bool(trips[i, bit - 1]) == passed


def test_word_grid_matches_array_measure(design):
    from repro.core.array import SensorArray

    array = SensorArray(design)
    rng = np.random.default_rng(5)
    draws = rng.uniform(0.9, 1.3, size=25)
    words = word_grid_mc(design, draws, code=3)
    for i, v in enumerate(draws):
        expected = array.measure(3, vdd_n=float(v)).word.bits
        assert tuple(int(b) for b in words[i]) == expected


def test_word_histogram_grid_strings_are_msb_first():
    words = np.array([[1, 1, 0], [1, 1, 0], [1, 0, 0]], dtype=np.uint8)
    assert word_histogram_grid(words) == {"011": 2, "001": 1}


def test_effective_supply_grid_rails(design):
    draws = np.array([0.1, 0.2])
    assert np.array_equal(effective_supply_grid(design, draws), draws)
    assert np.array_equal(
        effective_supply_grid(design, draws, rail="gnd"),
        design.tech.vdd_nominal - draws,
    )
    with pytest.raises(ConfigurationError):
        effective_supply_grid(design, draws, rail="vss")


# -- histogram parity ----------------------------------------------------------


@pytest.mark.parametrize("rail", [SenseRail.VDD, SenseRail.GND])
def test_word_histogram_kernel_equals_scalar(design, rail):
    level = design.bit_threshold(4, 3)
    kw = dict(level=level, noise_rms=8e-3, n_measures=150, seed=21,
              rail=rail)
    assert word_histogram(design, method="kernel", **kw) \
        == word_histogram(design, method="scalar", **kw)


def test_word_histogram_rejects_unknown_method(design):
    with pytest.raises(ConfigurationError):
        word_histogram(design, level=1.0, noise_rms=1e-3,
                       method="simd")


# -- s-curve parity ------------------------------------------------------------


def test_measure_s_curve_kernel_equals_scalar(design, monkeypatch):
    # The default sweep is the kernel driver, whatever the env names.
    monkeypatch.setenv("REPRO_BACKEND", "no-such-driver")
    for bit in (1, design.n_bits // 2, design.n_bits):
        kernel = measure_s_curve(design, bit, noise_rms=5e-3,
                                 n_per_level=80, seed=11,
                                 method="kernel")
        scalar = measure_s_curve(design, bit, noise_rms=5e-3,
                                 n_per_level=80, seed=11,
                                 method="scalar")
        assert kernel == scalar


def test_s_curve_probabilities_monotone_edges(design):
    seeds = spawn_bit_seeds(13, design.n_bits)
    _, probs = s_curve_trip_probability(
        design, code=3, noise_rms=5e-3, n_per_level=60, seeds=seeds,
    )
    # 4-sigma span: the curve must saturate at both ends.
    assert np.all(probs[:, 0] < 0.1)
    assert np.all(probs[:, -1] > 0.9)


def test_s_curve_kernel_validations(design):
    seeds = spawn_bit_seeds(1, design.n_bits)
    with pytest.raises(ConfigurationError):
        s_curve_trip_probability(design, code=3, noise_rms=0.0,
                                 n_per_level=60, seeds=seeds)
    with pytest.raises(ConfigurationError):
        s_curve_trip_probability(design, code=3, noise_rms=5e-3,
                                 n_per_level=60, seeds=seeds[:-1])


# -- seed-threading scheme -----------------------------------------------------


def test_spawn_bit_seeds_pure_function_of_seed_and_bit():
    a = spawn_bit_seeds(13, 7)
    b = spawn_bit_seeds(13, 7)
    for sa, sb in zip(a, b):
        assert np.array_equal(
            np.random.default_rng(sa).normal(size=4),
            np.random.default_rng(sb).normal(size=4),
        )


def test_spawn_bit_seeds_no_adjacent_root_aliasing():
    # The regression the scheme fixes: under `seed + bit`, bit 2 of
    # root 13 shared a stream with bit 1 of root 14.  Spawned children
    # of different roots must be independent.
    bit2_of_13 = np.random.default_rng(
        spawn_bit_seeds(13, 7)[1]).normal(size=8)
    bit1_of_14 = np.random.default_rng(
        spawn_bit_seeds(14, 7)[0]).normal(size=8)
    assert not np.array_equal(bit2_of_13, bit1_of_14)


# -- ladder extraction: serial == pool == kernel ------------------------------


def test_extract_ladder_serial_pool_kernel_identical(design):
    kw = dict(noise_rms=5e-3, n_per_level=40)
    kernel = extract_ladder_via_s_curves(design, method="kernel", **kw)
    scalar = extract_ladder_via_s_curves(design, method="scalar", **kw)
    pooled = extract_ladder_via_s_curves(design, method="kernel",
                                         workers=2, **kw)
    assert kernel == scalar == pooled


def test_extract_ladder_fits_track_thresholds(design):
    fits = extract_ladder_via_s_curves(design, noise_rms=5e-3,
                                       n_per_level=60)
    for fit in fits:
        true = design.bit_threshold(fit.bit, 3)
        assert fit.threshold == pytest.approx(true, abs=2.5e-3)
        assert fit.noise_sigma == pytest.approx(5e-3, rel=0.5)
