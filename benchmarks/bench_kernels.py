"""Kernel-vs-scalar perf regression: the tracked BENCH_kernels.json.

Two workloads, each timed both ways and cross-checked for agreement:

* ``fig5_grid`` — the full analytic Fig. 5 characterization: every
  (bit x delay-code) threshold plus a dense word/decode sweep across
  the dynamic.  Kernel path: one
  :func:`~repro.kernels.threshold_grid` solve + grid decode.  Scalar
  oracle: per-point ``brentq`` (``SensorDesign.bit_threshold``) +
  per-word Python decode.
* ``yield_200`` — the 200-die Monte-Carlo yield study at code 011.
  Kernel path: the batched :func:`~repro.analysis.yield_study.
  run_yield_study` lot solve.  Scalar oracle: the pre-kernel per-die
  loop (``benchmarks._oracles.score_die_scalar``).

Agreement gates the timing claim: thresholds must match the oracle to
within 2e-9 V (its own ``xtol``) and every word/decode/score output
must be identical, else the bench fails regardless of speedup.

Run standalone (``python -m benchmarks.bench_kernels`` or
``repro bench kernels``) with ``--smoke`` for the CI-sized grids and
``--assert-speedup N`` to enforce a floor; the JSON lands in
``benchmarks/reports/BENCH_kernels.json`` and, with ``--out``, at a
tracked path (the repo commits ``BENCH_kernels.json`` at the root).
"""

from __future__ import annotations

import argparse
import math
from typing import Any

import numpy as np

from benchmarks._perf import time_workload, write_bench_json
from benchmarks._report import emit, fmt_rows

CODES = tuple(range(8))


def _fig5_scalar(design, supplies):
    """Scalar oracle: per-point brentq + per-word Python decode."""
    from repro.analysis.thermometer import ThermometerWord, decode_word

    thresholds = {
        code: tuple(design.bit_threshold(b, code)
                    for b in range(1, design.n_bits + 1))
        for code in CODES
    }
    decoded = []
    for code in CODES:
        ladder = thresholds[code]
        for v in supplies:
            word = ThermometerWord(
                tuple(1 if v > t else 0 for t in ladder)
            )
            rng = decode_word(word, ladder, strict=False)
            decoded.append((word.bits, rng.lo, rng.hi))
    return thresholds, decoded


def _fig5_kernel(design, supplies):
    """Kernel path: one grid solve + grid decode."""
    from repro.kernels import (
        decode_bounds,
        ones_count_grid,
        threshold_grid,
        word_grid,
    )

    grid = threshold_grid(design, CODES)          # (bits, codes)
    v = np.asarray(supplies, dtype=float)
    # word_grid broadcasts the bit axis last; build (codes, supplies,
    # bits) explicitly since each code has its own ladder.
    words = np.stack([word_grid(v, grid[:, j]) for j in range(len(CODES))])
    ks = ones_count_grid(words)
    bounds = [decode_bounds(grid[:, j], ks[j]) for j in range(len(CODES))]
    return grid, words, ks, bounds


def _yield_scalar(design, lot, supplies, ladder, code):
    from benchmarks._oracles import score_die_scalar

    return [
        score_die_scalar(design, s, code, supplies, ladder)
        for s in lot
    ]


def _yield_kernel(design, lot, supplies, ladder, code):
    from benchmarks._oracles import score_from_thresholds
    from repro.kernels import lot_threshold_grid

    grid = lot_threshold_grid(design, lot, code)
    return [
        score_from_thresholds(grid[i], supplies, ladder)
        for i in range(len(lot))
    ]


def _check_fig5(design, supplies) -> float:
    """Max |kernel - oracle| threshold delta; word/decode must match."""
    thresholds, decoded = _fig5_scalar(design, supplies)
    grid, words, ks, bounds = _fig5_kernel(design, supplies)
    delta = max(
        abs(grid[b - 1, j] - thresholds[code][b - 1])
        for j, code in enumerate(CODES)
        for b in range(1, design.n_bits + 1)
    )
    # Words/decodes computed from the *kernel* ladder must equal the
    # scalar decode of the same ladder exactly — compare kernel decode
    # against a scalar decode run on the kernel thresholds.
    from repro.analysis.thermometer import ThermometerWord, decode_word

    for j in range(len(CODES)):
        ladder = tuple(float(t) for t in grid[:, j])
        lo, hi = bounds[j]
        for i, v in enumerate(supplies):
            word = ThermometerWord(
                tuple(1 if v > t else 0 for t in ladder)
            )
            assert tuple(int(b) for b in words[j, i]) == word.bits
            rng = decode_word(word, ladder, strict=False)
            assert rng.lo == lo[i] and rng.hi == hi[i]
    return float(delta)


def _check_yield(design, lot, supplies, ladder, code) -> float:
    """Max per-bit threshold delta; every other score field must match."""
    scalar = _yield_scalar(design, lot, supplies, ladder, code)
    kernel = _yield_kernel(design, lot, supplies, ladder, code)
    delta = 0.0
    for s, k in zip(scalar, kernel):
        delta = max(delta, max(
            abs(a - b) for a, b in zip(s.thresholds, k.thresholds)
        ))
        assert s.monotone == k.monotone
        assert s.bubbled == k.bubbled
    return float(delta)


def run(*, smoke: bool = False, repeats: int = 3,
        out: str | None = None) -> dict[str, Any]:
    """Time both workloads both ways; return (and persist) the report."""
    from repro.core.calibration import paper_design
    from repro.devices.variation import VariationModel
    from repro.kernels import KERNEL_LAYOUT_VERSION, threshold_grid

    design = paper_design()
    n_supplies = 200 if smoke else 2000
    n_dies = 20 if smoke else 200
    code = 3

    grid = threshold_grid(design, CODES)
    supplies = tuple(
        float(v) for v in np.linspace(float(grid.min()) - 0.02,
                                      float(grid.max()) + 0.02,
                                      n_supplies)
    )
    ladder = tuple(float(v) for v in grid[:, code])
    lot = VariationModel().sample_lot(n_dies, design.n_bits, seed=2024)
    yield_supplies = tuple(
        float(v) for v in np.linspace(ladder[0] + 0.005,
                                      ladder[-1] - 0.005, 17)
    )

    fig5_delta = _check_fig5(design, supplies)
    yield_delta = _check_yield(design, lot, yield_supplies, ladder, code)
    assert fig5_delta <= 2e-9, f"fig5 kernel drifted: {fig5_delta:.3e} V"
    assert yield_delta <= 2e-9, f"yield kernel drifted: {yield_delta:.3e} V"

    fig5_points = design.n_bits * len(CODES) + len(CODES) * n_supplies
    yield_points = n_dies * (design.n_bits + len(yield_supplies))
    workloads = {
        "fig5_grid": {
            "scalar": time_workload(
                lambda: _fig5_scalar(design, supplies),
                repeats=repeats, points=fig5_points,
            ),
            "kernel": time_workload(
                lambda: _fig5_kernel(design, supplies),
                repeats=repeats, points=fig5_points,
            ),
            "grid": {"bits": design.n_bits, "codes": len(CODES),
                     "supplies": n_supplies},
            "max_abs_delta_v": fig5_delta,
        },
        "yield_200": {
            "scalar": time_workload(
                lambda: _yield_scalar(design, lot, yield_supplies,
                                      ladder, code),
                repeats=repeats, points=yield_points,
            ),
            "kernel": time_workload(
                lambda: _yield_kernel(design, lot, yield_supplies,
                                      ladder, code),
                repeats=repeats, points=yield_points,
            ),
            "grid": {"dies": n_dies, "bits": design.n_bits,
                     "supplies": len(yield_supplies)},
            "max_abs_delta_v": yield_delta,
        },
    }
    for w in workloads.values():
        w["speedup"] = w["scalar"]["best_s"] / w["kernel"]["best_s"]

    payload: dict[str, Any] = {
        "bench": "kernels",
        "kernel_layout": KERNEL_LAYOUT_VERSION,
        "mode": "smoke" if smoke else "full",
        "tolerance_v": 2e-9,
        "workloads": workloads,
    }
    write_bench_json("BENCH_kernels", payload, out=out)

    rows = [
        [name,
         f"{w['scalar']['best_s'] * 1e3:.1f}",
         f"{w['kernel']['best_s'] * 1e3:.1f}",
         f"{w['speedup']:.1f}x",
         f"{w['kernel']['points_per_s']:.3g}",
         f"{w['max_abs_delta_v']:.2e}"]
        for name, w in workloads.items()
    ]
    emit("kernels_perf", fmt_rows(
        ["workload", "scalar ms", "kernel ms", "speedup",
         "kernel pts/s", "max |dV|"], rows,
    ))
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="kernel vs scalar-oracle perf bench"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized grids (fast)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless every workload beats X times "
                             "the scalar oracle")
    parser.add_argument("--out", default=None,
                        help="extra path to mirror BENCH_kernels.json "
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


def test_kernel_perf_bench(benchmark, design):
    payload = benchmark.pedantic(
        lambda: run(smoke=True, repeats=1), rounds=1, iterations=1,
    )
    for name, w in payload["workloads"].items():
        assert w["max_abs_delta_v"] <= 2e-9, name
        assert w["speedup"] > 1.0, (name, w["speedup"])
    assert not math.isnan(payload["workloads"]["fig5_grid"]["speedup"])


if __name__ == "__main__":
    raise SystemExit(main())
