"""Monte-Carlo/transient kernel perf regression: BENCH_montecarlo.json.

Two workloads, each timed kernel-vs-scalar and cross-checked for
agreement *before* any timing (same gate-then-time pattern as
``bench_kernels.py``):

* ``s_curve_sweep`` — the Fig. 4/Fig. 5 statistical ladder sweep: an
  S-curve per stage, ``n_levels x n_per_level`` seeded noisy measures
  each.  Kernel path: one
  :func:`~repro.kernels.montecarlo.s_curve_trip_probability` call for
  the whole (bit x level x trial) draw cube.  Scalar oracle: the
  original per-draw loop
  (:func:`benchmarks._oracles.measure_s_curve_scalar`).  The
  two must agree *exactly* — same Generator streams under the
  ``MC_SEED_SCHEME`` spawn scheme, same elementwise pass/fail
  arithmetic — so the gate is float-for-float equality, not a
  tolerance.
* ``pdn_transient`` — a long droop trace through the lumped RLC PDN.
  Kernel path: exact-ZOH stepping
  (:func:`~repro.kernels.transient.step_rail`).  Scalar oracle: the
  trapezoidal Python loop (``PDNModel.simulate(method="trapezoid")``).
  Both discretize the same continuous system, so they differ by the
  input-hold skew, bounded by ``0.5 * omega * dt`` of the rail swing
  per step; the gate asserts that documented tolerance.

Run standalone (``python -m benchmarks.bench_montecarlo`` or
``repro bench montecarlo``) with ``--smoke`` for CI-sized workloads
and ``--assert-speedup N`` to enforce a floor; the JSON lands in
``benchmarks/reports/BENCH_montecarlo.json`` and, with ``--out``, at a
tracked path (the repo commits ``BENCH_montecarlo.json`` at the root).
"""

from __future__ import annotations

import argparse
import math
from typing import Any

import numpy as np

from benchmarks._perf import time_workload, write_bench_json
from benchmarks._report import emit, fmt_rows


def _s_curve_scalar(design, seeds, *, noise_rms, code, n_levels,
                    n_per_level):
    from benchmarks._oracles import measure_s_curve_scalar

    return [
        measure_s_curve_scalar(design, bit, noise_rms=noise_rms,
                               code=code, n_levels=n_levels,
                               n_per_level=n_per_level,
                               seed=seeds[bit - 1])
        for bit in range(1, design.n_bits + 1)
    ]


def _s_curve_kernel(design, seeds, *, noise_rms, code, n_levels,
                    n_per_level):
    from repro.kernels.montecarlo import s_curve_trip_probability

    return s_curve_trip_probability(
        design, code=code, noise_rms=noise_rms,
        n_per_level=n_per_level, seeds=seeds, n_levels=n_levels,
    )


def _check_s_curves(design, seeds, **kw) -> None:
    """Kernel probabilities must equal the scalar oracle exactly."""
    curves = _s_curve_scalar(design, seeds, **kw)
    levels, probs = _s_curve_kernel(design, seeds, **kw)
    for bit, curve in enumerate(curves, start=1):
        assert tuple(float(v) for v in levels[bit - 1]) == curve.levels
        assert tuple(float(p) for p in probs[bit - 1]) \
            == curve.pass_probability, f"bit {bit} probs drifted"


def _pdn_load(n: int, dt: float) -> np.ndarray:
    """A busy synthetic CUT draw: step bursts riding on a tone."""
    t = np.arange(n + 1) * dt
    burst = ((t * 7e6) % 1.0 < 0.4).astype(float) * 2.0
    return burst + 1.0 + 0.5 * np.sin(2.0 * np.pi * 31e6 * t)


def _pdn_scalar(model, i_samples, *, t_end, dt):
    return model.simulate(i_samples, t_end=t_end, dt=dt,
                          method="trapezoid")


def _pdn_kernel(model, i_samples, *, t_end, dt):
    return model.simulate(i_samples, t_end=t_end, dt=dt, method="lti")


def _check_pdn(model, i_samples, *, t_end, dt) -> tuple[float, float]:
    """LTI-vs-trapezoid skew must stay under the documented bound.

    Returns ``(max_abs_delta, tolerance)`` — both in volts.
    """
    trap = _pdn_scalar(model, i_samples, t_end=t_end, dt=dt)
    lti = _pdn_kernel(model, i_samples, t_end=t_end, dt=dt)
    delta = float(np.max(np.abs(trap.values - lti.values)))
    swing = float(trap.values.max() - trap.values.min())
    omega = 2.0 * math.pi * model.params.resonant_frequency
    tol = 0.5 * omega * dt * max(swing, 1e-6)
    assert delta <= tol, (
        f"LTI drifted from trapezoid oracle: {delta:.3e} V > "
        f"bound {tol:.3e} V"
    )
    return delta, tol


def run(*, smoke: bool = False, repeats: int = 3,
        out: str | None = None) -> dict[str, Any]:
    """Time both workloads both ways; return (and persist) the report."""
    from repro.core.calibration import paper_design
    from repro.kernels import KERNEL_LAYOUT_VERSION
    from repro.kernels.montecarlo import MC_SEED_SCHEME, spawn_bit_seeds
    from repro.psn.pdn import PDNModel, PDNParameters

    design = paper_design()
    sweep = {
        "noise_rms": 5e-3,
        "code": 3,
        "n_levels": 9 if smoke else 17,
        "n_per_level": 40 if smoke else 250,
    }
    seeds = spawn_bit_seeds(2024, design.n_bits)

    params = PDNParameters()
    model = PDNModel(params)
    n_steps = 50_000 if smoke else 1_000_000
    dt = 0.04 / params.resonant_frequency
    t_end = n_steps * dt
    i_samples = _pdn_load(n_steps, dt)

    _check_s_curves(design, seeds, **sweep)
    pdn_delta, pdn_tol = _check_pdn(model, i_samples, t_end=t_end, dt=dt)

    sweep_points = design.n_bits * sweep["n_levels"] * sweep["n_per_level"]
    workloads = {
        "s_curve_sweep": {
            "scalar": time_workload(
                lambda: _s_curve_scalar(design, seeds, **sweep),
                repeats=repeats, points=sweep_points,
            ),
            "kernel": time_workload(
                lambda: _s_curve_kernel(design, seeds, **sweep),
                repeats=repeats, points=sweep_points,
            ),
            "grid": {"bits": design.n_bits,
                     "levels": sweep["n_levels"],
                     "trials": sweep["n_per_level"]},
            "agreement": "exact",
        },
        "pdn_transient": {
            "scalar": time_workload(
                lambda: _pdn_scalar(model, i_samples,
                                    t_end=t_end, dt=dt),
                repeats=repeats, points=n_steps,
            ),
            "kernel": time_workload(
                lambda: _pdn_kernel(model, i_samples,
                                    t_end=t_end, dt=dt),
                repeats=repeats, points=n_steps,
            ),
            "grid": {"steps": n_steps, "dt_s": dt},
            "agreement": "zoh-vs-trapezoid skew",
            "max_abs_delta_v": pdn_delta,
            "tolerance_v": pdn_tol,
        },
    }
    for w in workloads.values():
        w["speedup"] = w["scalar"]["best_s"] / w["kernel"]["best_s"]

    payload: dict[str, Any] = {
        "bench": "montecarlo",
        "kernel_layout": KERNEL_LAYOUT_VERSION,
        "seed_scheme": MC_SEED_SCHEME,
        "mode": "smoke" if smoke else "full",
        "workloads": workloads,
    }
    write_bench_json("BENCH_montecarlo", payload, out=out)

    rows = [
        [name,
         f"{w['scalar']['best_s'] * 1e3:.1f}",
         f"{w['kernel']['best_s'] * 1e3:.1f}",
         f"{w['speedup']:.1f}x",
         f"{w['kernel']['points_per_s']:.3g}",
         w["agreement"]]
        for name, w in workloads.items()
    ]
    emit("montecarlo_perf", fmt_rows(
        ["workload", "scalar ms", "kernel ms", "speedup",
         "kernel pts/s", "agreement"], rows,
    ))
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Monte-Carlo/transient kernel vs scalar-oracle bench"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized workloads (fast)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless every workload beats X times "
                             "the scalar oracle")
    parser.add_argument("--out", default=None,
                        help="extra path to mirror BENCH_montecarlo.json "
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


def test_montecarlo_perf_bench(benchmark, design):
    payload = benchmark.pedantic(
        lambda: run(smoke=True, repeats=1), rounds=1, iterations=1,
    )
    for name, w in payload["workloads"].items():
        assert w["speedup"] > 1.0, (name, w["speedup"])
    pdn = payload["workloads"]["pdn_transient"]
    assert pdn["max_abs_delta_v"] <= pdn["tolerance_v"]


if __name__ == "__main__":
    raise SystemExit(main())
