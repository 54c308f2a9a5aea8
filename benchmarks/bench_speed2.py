"""Raw-speed tier 2 perf regression: the tracked BENCH_speed2.json.

Two workloads, each comparing the tier-1 kernel path against the
tier-2 fused solve+decode kernels, each gated on agreement *before*
any timing claim:

* ``yield_fused`` — the yield-study lot reduction.  Tier 1: the
  per-die :func:`benchmarks._oracles.score_from_thresholds`
  loop (one word/diff/decode pass per die).  Tier 2: one
  :func:`~repro.kernels.score_lot_grids` call across the whole lot.
  Gate: every :class:`~repro.analysis.yield_study._DieScore` field is
  *exactly* equal.
* ``mc_fused`` — Monte-Carlo trip counting over a fixed draw cube.
  Tier 1: the per-draw delay-law margin evaluation (the
  :func:`~repro.kernels.s_curve_trip_probability` core — one
  ``voltage_factor_grid`` power per draw).  Tier 2: solve the per-bit
  thresholds once and count by compare
  (:func:`~repro.kernels.trip_counts_from_thresholds`; the solve is
  *inside* the timed region).  Gates: counts exactly equal — both over
  the cube and through the full fused-vs-unfused s-curve kernels with
  their seeded draws — plus a minimum draw-to-root distance (in ulps)
  so the compare-form equivalence cannot be decided by float rounding.

Run standalone (``python -m benchmarks.bench_speed2`` or ``repro bench
speed2``) with ``--smoke`` for CI-sized grids and ``--assert-speedup
N`` to enforce a floor; the JSON lands in
``benchmarks/reports/BENCH_speed2.json`` and, with ``--out``, at a
tracked path (the repo commits ``BENCH_speed2.json`` at the root).
"""

from __future__ import annotations

import argparse
import math
from typing import Any

import numpy as np

from benchmarks._perf import time_workload, write_bench_json
from benchmarks._report import emit, fmt_rows

CODES = tuple(range(8))


# -- yield_fused ----------------------------------------------------------


def _yield_tier1(grid, supplies, ladder):
    from benchmarks._oracles import score_from_thresholds

    return [score_from_thresholds(grid[i], supplies, ladder)
            for i in range(grid.shape[0])]


def _yield_tier2(grid, supplies, ladder):
    from repro.analysis.yield_study import _scores_from_lot_grid

    return _scores_from_lot_grid(grid, supplies, ladder)


def _check_yield(grid, supplies, ladder) -> None:
    """Every _DieScore field must be exactly equal, tier 1 vs tier 2."""
    tier1 = _yield_tier1(grid, supplies, ladder)
    tier2 = _yield_tier2(grid, supplies, ladder)
    assert len(tier1) == len(tier2)
    for a, b in zip(tier1, tier2):
        assert a == b, f"die score diverged: {a} != {b}"


# -- mc_fused -------------------------------------------------------------


def _mc_kwargs(design, seeds, *, n_per_level):
    return dict(code=3, noise_rms=0.01, n_per_level=n_per_level,
                seeds=seeds, n_levels=15)


def _mc_tier1(design, cube, code):
    """Tier-1 counting: per-draw delay-law margin evaluation (the
    ``s_curve_trip_probability`` core on a fixed cube)."""
    from repro.kernels.delay_law import voltage_factor_grid
    from repro.kernels.montecarlo import _bits_array, _delay_law_terms

    idx = _bits_array(design, None)
    window = design.effective_window(code, None)
    c_total, k_eff, vth, alpha = _delay_law_terms(design, idx, None)
    g = voltage_factor_grid(cube, vth, alpha)
    scale = k_eff * c_total
    with np.errstate(invalid="ignore"):
        margins = window - scale[:, None, None] * g
    return np.count_nonzero(margins > 0.0, axis=-1)


def _mc_tier2(design, cube, code):
    """Tier-2 counting: solve the roots once, then one compare per
    draw (the solve is deliberately inside the timed region)."""
    from repro.kernels import threshold_grid, trip_counts_from_thresholds

    thresholds = threshold_grid(design, (code,))[:, 0]
    return trip_counts_from_thresholds(cube, thresholds)


def _check_mc(design, seeds, cube, code, *, n_per_level) -> float:
    """Exact count parity; returns the min draw-to-root ulps."""
    from repro.kernels import (
        s_curve_trip_probability,
        s_curve_trip_probability_fused,
        threshold_grid,
    )

    assert np.array_equal(_mc_tier1(design, cube, code),
                          _mc_tier2(design, cube, code)), \
        "margin-form and compare-form counts diverged on the cube"
    kw = _mc_kwargs(design, seeds, n_per_level=n_per_level)
    lv1, p1 = s_curve_trip_probability(design, **kw)
    lv2, p2 = s_curve_trip_probability_fused(design, **kw)
    assert np.array_equal(lv1, lv2), "level grids diverged"
    assert np.array_equal(p1, p2), (
        f"trip probabilities diverged: max |dp| = "
        f"{np.max(np.abs(p1 - p2)):.3e}"
    )
    # The compare form flips only for draws within float rounding of
    # the solved root: check the closest draw in the cube sits
    # comfortably many ulps away from its bit's threshold.
    thresholds = threshold_grid(design, (code,))[:, 0]
    min_ulps = math.inf
    for i, t in enumerate(thresholds):
        gap = np.min(np.abs(cube[i] - t))
        min_ulps = min(min_ulps, gap / np.spacing(t))
    assert min_ulps > 4, f"a draw sits {min_ulps:.1f} ulps from a root"
    return float(min_ulps)


# -- the bench ------------------------------------------------------------


def run(*, smoke: bool = False, repeats: int = 3,
        out: str | None = None) -> dict[str, Any]:
    """Gate agreement, then time tier 1 vs tier 2; persist the report."""
    from repro.core.calibration import paper_design
    from repro.devices.variation import VariationModel
    from repro.kernels import (
        KERNEL_LAYOUT_VERSION,
        lot_threshold_grid,
        spawn_bit_seeds,
        threshold_grid,
    )

    design = paper_design()
    code = 3
    n_dies = 60 if smoke else 400
    n_supplies = 25 if smoke else 65
    n_per_level = 400 if smoke else 2000
    n_trials = 20_000 if smoke else 60_000

    grid = np.asarray(lot_threshold_grid(
        design,
        VariationModel().sample_lot(n_dies, design.n_bits, seed=2024),
        code,
    ))
    full = threshold_grid(design, CODES)
    ladder = tuple(float(v) for v in full[:, code])
    supplies = tuple(
        float(v) for v in np.linspace(ladder[0] - 0.01,
                                      ladder[-1] + 0.01, n_supplies)
    )
    seeds = spawn_bit_seeds(2024, design.n_bits)
    rng = np.random.default_rng(2024)
    thresholds = full[:, code]
    cube = thresholds[:, None, None] + rng.normal(
        0.0, 0.01, size=(design.n_bits, 15, n_trials)
    )

    # Agreement gates first: no timing claim without exact parity.
    _check_yield(grid, supplies, ladder)
    min_ulps = _check_mc(design, seeds, cube, code,
                         n_per_level=n_per_level)

    yield_points = n_dies * (design.n_bits + n_supplies)
    mc_points = cube.size
    workloads = {
        "yield_fused": {
            "tier1": time_workload(
                lambda: _yield_tier1(grid, supplies, ladder),
                repeats=repeats, points=yield_points,
            ),
            "tier2": time_workload(
                lambda: _yield_tier2(grid, supplies, ladder),
                repeats=repeats, points=yield_points,
            ),
            "grid": {"dies": n_dies, "bits": design.n_bits,
                     "supplies": n_supplies},
        },
        "mc_fused": {
            "tier1": time_workload(
                lambda: _mc_tier1(design, cube, code),
                repeats=repeats, points=mc_points,
            ),
            "tier2": time_workload(
                lambda: _mc_tier2(design, cube, code),
                repeats=repeats, points=mc_points,
            ),
            "grid": {"bits": design.n_bits, "levels": 15,
                     "trials": n_trials},
            "min_draw_to_root_ulps": min_ulps,
        },
    }
    for w in workloads.values():
        w["speedup"] = w["tier1"]["best_s"] / w["tier2"]["best_s"]

    payload: dict[str, Any] = {
        "bench": "speed2",
        "kernel_layout": KERNEL_LAYOUT_VERSION,
        "mode": "smoke" if smoke else "full",
        "workloads": workloads,
    }
    write_bench_json("BENCH_speed2", payload, out=out)

    rows = [
        [name,
         f"{w['tier1']['best_s'] * 1e3:.1f}",
         f"{w['tier2']['best_s'] * 1e3:.1f}",
         f"{w['speedup']:.1f}x",
         f"{w['tier2']['points_per_s']:.3g}"]
        for name, w in workloads.items()
    ]
    emit("speed2_perf", fmt_rows(
        ["workload", "tier1 ms", "tier2 ms", "speedup", "tier2 pts/s"],
        rows,
    ))
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="raw-speed tier 2: fused kernels"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized grids (fast)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless every workload beats X times "
                             "the tier-1 path")
    parser.add_argument("--out", default=None,
                        help="extra path to mirror BENCH_speed2.json "
                             "to (e.g. the tracked repo-root copy)")
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke, repeats=args.repeats, out=args.out)
    if args.assert_speedup is not None:
        slow = {
            name: w["speedup"]
            for name, w in payload["workloads"].items()
            if w["speedup"] < args.assert_speedup
        }
        if slow:
            print(f"FAIL: speedup floor {args.assert_speedup}x not met: "
                  + ", ".join(f"{n}={s:.1f}x" for n, s in slow.items()))
            return 1
    return 0


# -- pytest wrapper (runs with `pytest benchmarks`) -----------------------


def test_speed2_bench(benchmark, design):
    payload = benchmark.pedantic(
        lambda: run(smoke=True, repeats=1), rounds=1, iterations=1,
    )
    assert payload["workloads"]["mc_fused"]["min_draw_to_root_ulps"] > 4
    for name, w in payload["workloads"].items():
        assert w["speedup"] > 0, name  # parity gated; timing informative


if __name__ == "__main__":
    raise SystemExit(main())
