"""Fused solve+decode kernels: supply levels to decoded outputs
without materializing the intermediate grids.

The tier-1 kernels compose like the hardware does: ``word_grid`` (a
uint8 word cube), then ``bubble_grid`` (a diff pass over it), then
``ones_count_grid`` (a sum over it), then ``decode_bounds``.  Correct
and bit-identical to the scalar oracles — but for the pool-bound
campaigns (yield studies, MC s-curve cubes, telemetry chunk decode)
the word cube itself is pure overhead: every consumer reduces it
straight back down to a count.  These kernels skip it:

* :func:`decode_counts` — ones counts and bubble flags from the
  threshold compare in one pass (no word/diff grids), for *physical*
  (possibly non-monotone) ladders;
* :func:`fused_decode` — counts + decode bounds + midpoints for a
  strictly ascending ladder via ``searchsorted`` (no compare cube at
  all): the telemetry chunk-decode fast path;
* :func:`score_lot_grids` — the whole yield-study per-die reduction
  (bubbles, brackets, calibrated brackets, decode errors) vectorized
  across the lot in one shot;
* :func:`trip_counts_from_thresholds` /
  :func:`s_curve_trip_probability_fused` — the MC s-curve collapsed to
  a single threshold compare: ``margin > 0`` is equivalent to
  ``V > V*`` (``g`` is strictly decreasing above ``vth``), so one
  tiny per-bit root solve replaces the per-draw delay-law evaluation
  of the whole cube.

Every fused kernel is bit-identical to the chain it replaces on the
same inputs (same compares, same gathers — proven case-by-case in the
docstrings below and enforced by ``tests/test_kernels_fused.py``);
the MC compare form is exact except for draws within float rounding
of the solved root, which the bench gates on explicitly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, DecodingError
from repro.kernels.montecarlo import _bits_array, s_curve_levels
from repro.kernels.thermometer import midpoint_grid
from repro.kernels.thresholds import threshold_grid
from repro.runtime.profiling import phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.calibration import SensorDesign
    from repro.devices.technology import Technology


def decode_counts(v: np.ndarray, thresholds: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Ones counts and bubble flags in one pass over the compare cube.

    Replaces ``word_grid`` -> ``ones_count_grid`` + ``bubble_grid``
    without materializing the uint8 word grid or the int8 diff grid:

    * ``counts[...] == ones_count_grid(word_grid(v, thresholds))``
      exactly (same strict ``v > t`` compares, same sum);
    * ``bubbled[...] == bubble_grid(word_grid(v, thresholds))``
      exactly: a bubble is a 0->1 rise along the bit axis, i.e. a
      position where ``v <= t_i`` but ``v > t_{i+1}``.

    Args:
        v: Supplies, any shape; broadcast against the bit axis
            (``v[..., None] > thresholds``, the ``word_grid`` layout).
        thresholds: Per-stage thresholds, bit 1 first, *physical*
            order (need not be sorted).

    Returns:
        ``(counts, bubbled)`` — int64 counts and bool flags, both
        shaped like the broadcast of ``v`` against the leading axes of
        ``thresholds``.
    """
    with phase("kernel.decode"):
        v = np.asarray(v, dtype=float)
        t = np.asarray(thresholds, dtype=float)
        passing = v[..., None] > t
        counts = np.sum(passing, axis=-1, dtype=np.int64)
        if passing.shape[-1] < 2:
            bubbled = np.zeros(counts.shape, dtype=bool)
        else:
            rising = ~passing[..., :-1] & passing[..., 1:]
            bubbled = np.any(rising, axis=-1)
        return counts, bubbled


def fused_decode(ladder: Sequence[float], v: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                            np.ndarray]:
    """Supplies -> (counts, lo, hi, mid) for an ascending ladder.

    The telemetry chunk-decode fast path: for a strictly ascending
    ladder the ones count is ``#{t_i < v}``, which is exactly
    ``searchsorted(ladder, v, side="left")`` — no compare cube, no
    word grid, and bubbles are impossible by construction.  The
    bounds are the same padded gathers as
    :func:`~repro.kernels.thermometer.decode_bounds` and the midpoints
    the same :func:`~repro.kernels.thermometer.midpoint_grid`
    arithmetic, so all four outputs are bit-identical to the unfused
    ``word_grid`` -> ``ones_count_grid`` -> ``decode_bounds`` ->
    ``midpoint_grid`` chain.

    Raises:
        DecodingError: empty or non-ascending ladder.
    """
    with phase("kernel.decode"):
        lad = np.asarray(ladder, dtype=float)
        if lad.ndim != 1 or lad.size < 1:
            raise DecodingError("ladder must be a non-empty 1-D array")
        if lad.size > 1 and not np.all(np.diff(lad) > 0):
            raise DecodingError("thresholds must be strictly ascending")
        v = np.asarray(v, dtype=float)
        k = np.searchsorted(lad, v, side="left").astype(np.int64)
        padded = np.concatenate(([-np.inf], lad, [np.inf]))
        lo = padded[k]
        hi = padded[k + 1]
        mid = midpoint_grid(lo, hi)
        return k, lo, hi, mid


def decode_word_rows(ladder: Sequence[float], words: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Word rows -> (counts, lo, hi) against an ascending ladder.

    The service ``measure`` fast path: a ``(n, bits)`` batch of output
    words (bit 1 first) decodes in one gather instead of one
    ``ThermometerWord`` + ``decode_word`` round trip per row.  Each
    row's ones count selects the same ``(T_k, T_{k+1}]`` interval as
    :func:`~repro.analysis.thermometer.decode_word` with
    ``strict=False`` — bubble correction preserves the ones count, so
    counting set bits *is* the corrected decode.

    Raises:
        DecodingError: empty/non-ascending ladder or width mismatch.
    """
    with phase("kernel.decode"):
        lad = np.asarray(ladder, dtype=float)
        if lad.ndim != 1 or lad.size < 1:
            raise DecodingError("ladder must be a non-empty 1-D array")
        if lad.size > 1 and not np.all(np.diff(lad) > 0):
            raise DecodingError("thresholds must be strictly ascending")
        rows = np.atleast_2d(np.asarray(words))
        if rows.shape[-1] != lad.size:
            raise DecodingError(
                f"words have {rows.shape[-1]} bits but {lad.size} "
                f"thresholds given"
            )
        ks = np.sum(rows != 0, axis=-1, dtype=np.int64)
        padded = np.concatenate(([-np.inf], lad, [np.inf]))
        return ks, padded[ks], padded[ks + 1]


def score_lot_grids(lot_grid: np.ndarray,
                    supplies: Sequence[float],
                    nominal_ladder: Sequence[float]
                    ) -> dict[str, np.ndarray]:
    """The yield-study per-die reduction, vectorized across the lot.

    One call scores every die of a
    :func:`repro.analysis.yield_study.run_yield_study` chunk: each
    output row equals a per-die word/bubble/decode pass on
    ``lot_grid[d]`` exactly (same compares and gathers over the same
    float64 inputs), and depends on no other row, so any chunking of
    the lot scores identically.

    Args:
        lot_grid: ``(dies, bits)`` solved thresholds, physical bit
            order (:func:`~repro.kernels.thresholds.
            lot_threshold_grid` output).
        supplies: Evaluation supply grid, volts.
        nominal_ladder: Ascending design ladder, volts.

    Returns:
        Dict of per-die arrays: ``counts`` (dies x supplies, int64),
        ``bubbled``/``monotone``/``bracketed``/``bracketed_cal``
        (per-die totals), ``bounded`` mask and ``abs_errors`` grid
        (dies x supplies; errors only valid where ``bounded``).

    Raises:
        DecodingError: non-ascending nominal ladder, or a die whose
            *sorted* ladder has tied thresholds (mirroring the
            unfused ``decode_bounds`` check on that die).
    """
    with phase("kernel.decode"):
        grid = np.asarray(lot_grid, dtype=float)
        if grid.ndim != 2:
            raise ConfigurationError(
                f"expected a (dies, bits) lot grid, got {grid.shape}"
            )
        v = np.asarray(supplies, dtype=float)
        lad = np.asarray(nominal_ladder, dtype=float)
        if lad.size > 1 and not np.all(np.diff(lad) > 0):
            raise DecodingError("thresholds must be strictly ascending")
        if lad.size != grid.shape[1]:
            raise ConfigurationError(
                f"nominal ladder has {lad.size} rungs for "
                f"{grid.shape[1]} bits"
            )

        # Physical-order compare: counts + bubbles, (dies, supplies).
        counts, bubbled = decode_counts(v[None, :], grid[:, None, :])

        # Nominal-ladder decode: one padded gather for every die.
        padded = np.concatenate(([-np.inf], lad, [np.inf]))
        lo = padded[counts]
        hi = padded[counts + 1]
        bracketed = (lo < v) & (v <= hi)
        bounded = np.isfinite(lo) & np.isfinite(hi)
        with np.errstate(invalid="ignore"):
            abs_errors = np.abs(0.5 * (lo + hi) - v)

        # Calibrated decode: per-die sorted ladders, padded columns,
        # gathered with take_along_axis.
        die_ladders = np.sort(grid, axis=-1)
        if die_ladders.shape[1] > 1 \
                and not np.all(np.diff(die_ladders, axis=-1) > 0):
            raise DecodingError("thresholds must be strictly ascending")
        n_dies = grid.shape[0]
        inf_col = np.full((n_dies, 1), np.inf)
        pad_die = np.concatenate((-inf_col, die_ladders, inf_col),
                                 axis=1)
        lo_c = np.take_along_axis(pad_die, counts, axis=1)
        hi_c = np.take_along_axis(pad_die, counts + 1, axis=1)
        bracketed_cal = (lo_c < v) & (v <= hi_c)

        return {
            "counts": counts,
            "bubbled": np.sum(bubbled, axis=1, dtype=np.int64),
            "monotone": np.all(np.diff(grid, axis=-1) > 0, axis=-1),
            "bracketed": np.sum(bracketed, axis=1, dtype=np.int64),
            "bracketed_cal": np.sum(bracketed_cal, axis=1,
                                    dtype=np.int64),
            "bounded": bounded,
            "abs_errors": abs_errors,
        }


def trip_counts_from_thresholds(draws: np.ndarray,
                                thresholds: np.ndarray) -> np.ndarray:
    """Trip counts per level from solved thresholds: ``#{draw > V*}``.

    The fused form of the MC margin evaluation: for a supply ``V``
    above ``vth``, ``margin > 0`` is ``g(V) < g_target``, and since
    ``g`` is strictly decreasing on ``(vth, inf)`` that is ``V > V*``
    where ``V*`` solves ``g(V*) = g_target`` — exactly the threshold
    :func:`~repro.kernels.thresholds.threshold_grid` returns.  (At or
    below ``vth`` the margin is ``-inf`` and ``V < V*`` holds too, so
    the equivalence covers the whole real line.)  One compare per draw
    replaces a power/divide per draw; the equivalence is exact in real
    arithmetic and can only flip for draws within float rounding of
    the solved root — which the speed bench gates on (exact count
    parity plus a minimum draw-to-root ulp distance).

    Args:
        draws: ``(bits, levels, trials)`` supply draw cube, volts.
        thresholds: ``(bits,)`` solved per-bit thresholds ``V*``.

    Returns:
        ``(bits, levels)`` int64 trip counts.
    """
    with phase("kernel.mc"):
        draws = np.asarray(draws, dtype=float)
        t = np.asarray(thresholds, dtype=float)
        return np.sum(draws > t[:, None, None], axis=-1,
                      dtype=np.int64)


def s_curve_trip_probability_fused(
    design: "SensorDesign", *, code: int, noise_rms: float,
    n_per_level: int, seeds: Sequence[int | np.random.SeedSequence],
    span_sigmas: float = 4.0, n_levels: int = 15,
    bits: Iterable[int] | None = None,
    tech: "Technology | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The fused :func:`~repro.kernels.montecarlo.
    s_curve_trip_probability`: same seeded draw cube, but pass/fail by
    threshold compare instead of per-draw delay-law evaluation.

    Draw generation is identical to the unfused kernel (same
    ``MC_SEED_SCHEME`` Generator streams, same level grid), so the
    probabilities agree with it — and with the scalar per-draw loop —
    exactly, except for draws within float rounding of the solved
    root (see :func:`trip_counts_from_thresholds`).
    """
    if noise_rms <= 0:
        raise ConfigurationError(
            "noise_rms must be positive (an S-curve needs noise)"
        )
    if n_levels < 5 or n_per_level < 10:
        raise ConfigurationError("need >= 5 levels and >= 10 measures")
    idx = _bits_array(design, bits)
    if len(seeds) != idx.size:
        raise ConfigurationError(
            f"got {len(seeds)} seeds for {idx.size} bits"
        )
    levels = s_curve_levels(design, code=code, noise_rms=noise_rms,
                            span_sigmas=span_sigmas, n_levels=n_levels,
                            bits=idx)
    draws = np.empty((idx.size, n_levels, n_per_level))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        draws[i] = levels[i][:, None] + rng.normal(
            0.0, noise_rms, size=(n_levels, n_per_level)
        )
    thresholds = threshold_grid(design, (code,), tech, bits=idx)[:, 0]
    counts = trip_counts_from_thresholds(draws, thresholds)
    return levels, counts / n_per_level
