"""Scalar oracles shared by the tests and the benches.

The yield study scores dies with the fused lot kernels
(:func:`repro.analysis.yield_study._scores_from_lot_grid`).  Two
references keep the older forms those kernels must equal:

* :func:`score_from_thresholds` — one die's word/bubble/decode pass
  over the supply grid with the tier-1 thermometer kernels, exactly
  equal to the fused reduction (``tests/test_kernels_fused.py``,
  ``bench_speed2``'s ``yield_fused`` gate);
* :func:`score_die_scalar` — the pre-kernel loop: one ``brentq`` per
  bit and one Python decode per supply, equal to the kernels within the
  solver tolerance (``tests/test_kernels.py``, ``bench_kernels``'s
  ``yield_200`` gate).

The repeatability flows (:mod:`repro.analysis.repeatability`) run on
the Monte-Carlo kernels.  Their per-draw loops, which the kernels equal
exactly for the same seed (``tests/test_kernels_montecarlo.py``,
``bench_montecarlo``'s ``s_curve_sweep`` gate), are:

* :func:`word_histogram_scalar` — one ``SensorArray.measure`` per
  noisy draw;
* :func:`measure_s_curve_scalar` — one ``SensorBit.measure`` per draw
  and level;
* :func:`extract_ladder_scalar` — one scalar S-curve fit per stage,
  seeded as the ladder extraction seeds it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.analysis.repeatability import SCurve, SCurveFit
from repro.analysis.thermometer import decode_word
from repro.analysis.yield_study import _DieScore, die_characteristic
from repro.errors import ConfigurationError
from repro.kernels import (
    bracket_grid,
    bubble_grid,
    decode_bounds,
    ones_count_grid,
    spawn_bit_seeds,
    word_grid,
)


def score_from_thresholds(thresholds: np.ndarray,
                          supplies: tuple[float, ...],
                          nominal_ladder: tuple[float, ...]) -> _DieScore:
    """Evaluate one die's solved thresholds across the supply grid."""
    v = np.asarray(supplies, dtype=float)
    words = word_grid(v, thresholds)
    bubbled = int(np.count_nonzero(bubble_grid(words)))
    k = ones_count_grid(words)
    lo, hi = decode_bounds(nominal_ladder, k)
    bracketed = int(np.count_nonzero(bracket_grid(v, lo, hi)))
    bounded = np.isfinite(lo) & np.isfinite(hi)
    mids = 0.5 * (lo[bounded] + hi[bounded])
    errors = tuple(float(e) for e in np.abs(mids - v[bounded]))
    die_ladder = np.sort(thresholds)
    lo_c, hi_c = decode_bounds(die_ladder, k)
    bracketed_cal = int(np.count_nonzero(bracket_grid(v, lo_c, hi_c)))
    return _DieScore(
        thresholds=tuple(float(t) for t in thresholds),
        monotone=bool(np.all(np.diff(thresholds) > 0)),
        bubbled=bubbled,
        bracketed=bracketed,
        bracketed_cal=bracketed_cal,
        errors=errors,
    )


def score_die_scalar(design, sample, code: int,
                     supplies: tuple[float, ...],
                     nominal_ladder: tuple[float, ...]) -> _DieScore:
    """The pre-kernel scalar scoring loop: one ``brentq`` per bit, one
    Python decode per supply."""
    die = die_characteristic(design, sample, code=code)
    die_ladder = tuple(sorted(die.thresholds))
    bubbled = bracketed = bracketed_cal = 0
    errors: list[float] = []
    for v in supplies:
        word = die.word_at(v)
        if not word.is_valid_thermometer:
            bubbled += 1
        rng = decode_word(word, nominal_ladder, strict=False)
        if rng.contains(v):
            bracketed += 1
        if rng.bounded:
            errors.append(abs(rng.midpoint - v))
        rng_cal = decode_word(word, die_ladder, strict=False)
        if rng_cal.contains(v):
            bracketed_cal += 1
    return _DieScore(
        thresholds=die.thresholds,
        monotone=die.monotone,
        bubbled=bubbled,
        bracketed=bracketed,
        bracketed_cal=bracketed_cal,
        errors=tuple(errors),
    )


def word_histogram_scalar(design, *, level: float, noise_rms: float,
                          n_measures: int = 200, code: int = 3,
                          seed: int = 7, rail=None) -> dict[str, int]:
    """The per-measure loop of
    :func:`repro.analysis.repeatability.word_histogram`."""
    from repro.core.array import SensorArray
    from repro.core.sensor import SenseRail

    if rail is None:
        rail = SenseRail.VDD
    rng = np.random.default_rng(seed)
    array = SensorArray(design, rail)
    counts: Counter[str] = Counter()
    for _ in range(n_measures):
        v = level + rng.normal(0.0, noise_rms)
        kwargs = {"vdd_n": v} if rail is SenseRail.VDD else {"gnd_n": v}
        counts[array.measure(code, **kwargs).word.to_string()] += 1
    return dict(counts)


def measure_s_curve_scalar(design, bit: int, *, noise_rms: float,
                           code: int = 3, span_sigmas: float = 4.0,
                           n_levels: int = 15, n_per_level: int = 200,
                           seed=11) -> SCurve:
    """The per-draw loop of
    :func:`repro.analysis.repeatability.measure_s_curve`."""
    from repro.core.array import SensorArray

    if noise_rms <= 0:
        raise ConfigurationError(
            "noise_rms must be positive (an S-curve needs noise)"
        )
    if n_levels < 5 or n_per_level < 10:
        raise ConfigurationError("need >= 5 levels and >= 10 measures")
    center = design.bit_threshold(bit, code)
    half = span_sigmas * noise_rms
    levels = np.linspace(center - half, center + half, n_levels)
    rng = np.random.default_rng(seed)
    stage = SensorArray(design).bits[bit - 1]
    probs = []
    for level in levels:
        draws = level + rng.normal(0.0, noise_rms, size=n_per_level)
        passes = sum(1 for v in draws
                     if stage.measure(code, vdd_n=float(v)).passed)
        probs.append(passes / n_per_level)
    return SCurve(
        bit=bit,
        levels=tuple(float(v) for v in levels),
        pass_probability=tuple(probs),
        n_per_level=n_per_level,
    )


def extract_ladder_scalar(design, *, noise_rms: float = 5e-3,
                          code: int = 3, seed: int = 13,
                          n_per_level: int = 150) -> list[SCurveFit]:
    """:func:`repro.analysis.repeatability.extract_ladder_via_s_curves`
    from scalar S-curves, one per stage under its spawned seed."""
    bit_seeds = spawn_bit_seeds(seed, design.n_bits)
    return [
        measure_s_curve_scalar(design, bit, noise_rms=noise_rms,
                               code=code, seed=bit_seeds[bit - 1],
                               n_per_level=n_per_level).fit()
        for bit in range(1, design.n_bits + 1)
    ]
