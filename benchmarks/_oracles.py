"""Scalar yield-scoring oracles shared by the tests and the benches.

The yield study scores dies with the fused lot kernels
(:func:`repro.analysis.yield_study._scores_from_lot_grid`).  The two
references below keep the older forms those kernels must equal:

* :func:`score_from_thresholds` — one die's word/bubble/decode pass
  over the supply grid with the tier-1 thermometer kernels, exactly
  equal to the fused reduction (``tests/test_kernels_fused.py``,
  ``bench_speed2``'s ``yield_fused`` gate);
* :func:`score_die_scalar` — the pre-kernel loop: one ``brentq`` per
  bit and one Python decode per supply, equal to the kernels within the
  solver tolerance (``tests/test_kernels.py``, ``bench_kernels``'s
  ``yield_200`` gate).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.thermometer import decode_word
from repro.analysis.yield_study import _DieScore, die_characteristic
from repro.kernels import (
    bracket_grid,
    bubble_grid,
    decode_bounds,
    ones_count_grid,
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
