"""Fused solve+decode kernels: bit-identity with the unfused chain.

Every fused kernel claims exact agreement with the tier-1 chain it
replaces (same compares, same gathers).  These tests enforce that
claim case by case — including on adversarial inputs (non-monotone
ladders, bubbled words, Hypothesis-random arrays) — plus the error
paths, so a future "optimization" cannot silently weaken the contract
to mere closeness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.thermometer import ThermometerWord, decode_word
from benchmarks._oracles import score_from_thresholds
from repro.errors import ConfigurationError, DecodingError
from repro.kernels import (
    decode_bounds,
    decode_counts,
    decode_word_rows,
    fused_decode,
    midpoint_grid,
    ones_count_grid,
    s_curve_trip_probability_fused,
    score_lot_grids,
    spawn_bit_seeds,
    trip_counts_from_thresholds,
    word_grid,
)
from repro.kernels.montecarlo import s_curve_trip_probability

LADDER = (1.02, 1.05, 1.08, 1.11, 1.14)


def _random_cases(seed, n=64, bits=5, monotone=True):
    rng = np.random.default_rng(seed)
    if monotone:
        t = np.sort(rng.uniform(0.9, 1.3, size=bits))
    else:
        t = rng.uniform(0.9, 1.3, size=bits)
    v = rng.uniform(0.85, 1.35, size=n)
    return v, t


class TestDecodeCounts:
    @pytest.mark.parametrize("monotone", [True, False])
    def test_matches_word_grid_chain(self, monotone):
        v, t = _random_cases(3, monotone=monotone)
        words = word_grid(v, t)
        counts, bubbled = decode_counts(v, t)
        np.testing.assert_array_equal(counts, ones_count_grid(words))
        from repro.kernels import bubble_grid

        np.testing.assert_array_equal(bubbled, bubble_grid(words))

    def test_single_bit_never_bubbles(self):
        counts, bubbled = decode_counts(np.array([0.9, 1.1]),
                                        np.array([1.0]))
        np.testing.assert_array_equal(counts, [0, 1])
        assert not bubbled.any()

    def test_broadcasts_leading_axes(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(1.0, 1.2, size=(4, 3))  # 4 dies x 3 bits
        v = rng.uniform(0.9, 1.3, size=7)
        counts, bubbled = decode_counts(v[None, :], t[:, None, :])
        assert counts.shape == bubbled.shape == (4, 7)
        for d in range(4):
            ref = ones_count_grid(word_grid(v, t[d]))
            np.testing.assert_array_equal(counts[d], ref)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9),
           st.booleans())
    def test_property_random_arrays(self, seed, bits, monotone):
        v, t = _random_cases(seed, n=17, bits=bits, monotone=monotone)
        words = word_grid(v, t)
        counts, bubbled = decode_counts(v, t)
        from repro.kernels import bubble_grid

        np.testing.assert_array_equal(counts, ones_count_grid(words))
        np.testing.assert_array_equal(bubbled, bubble_grid(words))


class TestFusedDecode:
    def test_matches_unfused_chain(self):
        v, _ = _random_cases(9, n=200)
        words = word_grid(v, np.asarray(LADDER))
        k_ref = ones_count_grid(words)
        lo_ref, hi_ref = decode_bounds(LADDER, k_ref)
        mid_ref = midpoint_grid(lo_ref, hi_ref)
        k, lo, hi, mid = fused_decode(LADDER, v)
        np.testing.assert_array_equal(k, k_ref)
        np.testing.assert_array_equal(lo, lo_ref)
        np.testing.assert_array_equal(hi, hi_ref)
        np.testing.assert_array_equal(mid, mid_ref)

    def test_supply_exactly_on_rung(self):
        # v == T_i: strict compare fails, so the rung does not count.
        k, lo, hi, _ = fused_decode(LADDER, np.array([LADDER[2]]))
        assert k[0] == 2
        assert hi[0] == LADDER[2]

    def test_empty_ladder_raises(self):
        with pytest.raises(DecodingError):
            fused_decode([], np.array([1.0]))

    def test_non_ascending_ladder_raises(self):
        with pytest.raises(DecodingError):
            fused_decode([1.1, 1.0], np.array([1.0]))


class TestDecodeWordRows:
    def _scalar(self, row):
        word = ThermometerWord(bits=tuple(int(b) for b in row))
        rng = decode_word(word, LADDER, strict=False)
        return rng.lo, rng.hi

    def test_matches_scalar_decode_including_bubbled(self):
        rows = np.array([
            [1, 1, 1, 0, 0],
            [0, 0, 0, 0, 0],
            [1, 1, 1, 1, 1],
            [1, 0, 1, 0, 0],  # bubbled: count-preserving correction
            [0, 1, 0, 1, 1],  # bubbled
        ], dtype=np.uint8)
        ks, lo, hi = decode_word_rows(LADDER, rows)
        for i, row in enumerate(rows):
            lo_ref, hi_ref = self._scalar(row)
            assert ks[i] == int(np.sum(row))
            assert lo[i] == lo_ref
            assert hi[i] == hi_ref

    def test_single_row_input(self):
        ks, lo, hi = decode_word_rows(LADDER,
                                      np.array([1, 1, 0, 0, 0]))
        assert ks.shape == (1,)
        assert lo[0] == LADDER[1]
        assert hi[0] == LADDER[2]

    def test_width_mismatch_raises(self):
        with pytest.raises(DecodingError, match="3 bits but 5"):
            decode_word_rows(LADDER, np.array([1, 0, 0]))

    def test_non_ascending_ladder_raises(self):
        with pytest.raises(DecodingError):
            decode_word_rows((1.1, 1.0), np.array([1, 0]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1), min_size=5,
                             max_size=5), min_size=1, max_size=8))
    def test_property_random_words(self, bit_rows):
        rows = np.array(bit_rows, dtype=np.uint8)
        ks, lo, hi = decode_word_rows(LADDER, rows)
        for i, row in enumerate(rows):
            lo_ref, hi_ref = self._scalar(row)
            assert (lo[i], hi[i]) == (lo_ref, hi_ref)


class TestScoreLotGrids:
    def _lot(self, seed, dies=6, bits=5):
        rng = np.random.default_rng(seed)
        return np.asarray(LADDER) + rng.normal(0, 0.01, (dies, bits))

    def test_matches_per_die_scores(self):
        lot = self._lot(21)
        supplies = tuple(np.linspace(0.98, 1.18, 11))
        out = score_lot_grids(lot, supplies, LADDER)
        for d in range(lot.shape[0]):
            ref = score_from_thresholds(lot[d], supplies, LADDER)
            assert out["monotone"][d] == ref.monotone
            assert out["bubbled"][d] == ref.bubbled
            assert out["bracketed"][d] == ref.bracketed
            assert out["bracketed_cal"][d] == ref.bracketed_cal
            errs = out["abs_errors"][d][out["bounded"][d]]
            np.testing.assert_array_equal(errs, np.asarray(ref.errors))

    def test_non_monotone_die_scored_identically(self):
        lot = self._lot(22)
        lot[1, [0, 1]] = lot[1, [1, 0]]  # swap two rungs
        supplies = tuple(np.linspace(0.98, 1.18, 9))
        out = score_lot_grids(lot, supplies, LADDER)
        ref = score_from_thresholds(lot[1], supplies, LADDER)
        assert not out["monotone"][1]
        assert out["bubbled"][1] == ref.bubbled
        assert out["bracketed_cal"][1] == ref.bracketed_cal

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            score_lot_grids(np.ones(5), (1.0,), LADDER)
        with pytest.raises(ConfigurationError):
            score_lot_grids(np.ones((2, 3)), (1.0,), LADDER)

    def test_non_ascending_nominal_raises(self):
        with pytest.raises(DecodingError):
            score_lot_grids(self._lot(23), (1.0,), (1.1, 1.0, 1.2,
                                                    1.3, 1.4))


class TestTripCounts:
    def test_matches_margin_form(self):
        rng = np.random.default_rng(31)
        thresholds = np.asarray(LADDER)
        draws = thresholds[:, None, None] \
            + rng.normal(0, 0.01, (5, 7, 100))
        counts = trip_counts_from_thresholds(draws, thresholds)
        ref = np.sum(draws > thresholds[:, None, None], axis=-1)
        np.testing.assert_array_equal(counts, ref)
        assert counts.dtype == np.int64

    def test_fused_s_curve_matches_unfused(self, design):
        kw = dict(code=3, noise_rms=0.004, n_per_level=60,
                  seeds=spawn_bit_seeds(99, design.n_bits),
                  n_levels=7)
        levels_ref, probs_ref = s_curve_trip_probability(design, **kw)
        levels, probs = s_curve_trip_probability_fused(design, **kw)
        np.testing.assert_array_equal(levels, levels_ref)
        np.testing.assert_array_equal(probs, probs_ref)

    def test_fused_s_curve_validates_inputs(self, design):
        with pytest.raises(ConfigurationError):
            s_curve_trip_probability_fused(
                design, code=3, noise_rms=0.0, n_per_level=60,
                seeds=spawn_bit_seeds(1, design.n_bits))
        with pytest.raises(ConfigurationError):
            s_curve_trip_probability_fused(
                design, code=3, noise_rms=0.004, n_per_level=60,
                seeds=[1, 2])
