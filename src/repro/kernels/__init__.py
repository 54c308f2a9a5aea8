"""repro.kernels — vectorized analytic kernels for sweep hot paths.

Every analytic sweep in the repo reduces to three array-shaped
operations over (samples x bits x codes x supplies) grids:

* **delay-law evaluation / inversion** (:mod:`repro.kernels.delay_law`)
  — ``d = (k/strength) * C_total * g(V)`` and its inverse
  ``V* = g^{-1}(window / (k_eff * C_total))``, solved elementwise with
  a safeguarded Newton-bisection iteration converged to a few ulps;
* **threshold grids** (:mod:`repro.kernels.thresholds`) — per-bit
  failure thresholds over (bit x code) and (die x bit) grids, replacing
  per-point Brent-solver loops;
* **thermometer evaluation** (:mod:`repro.kernels.thermometer`) —
  words, bubble flags, ones counts and decode bounds over
  (sample x supply) grids, replacing per-word Python loops.

A second, stochastic/transient tier batches the repo's Monte-Carlo
and time-stepping flows:

* **Monte-Carlo s-curves** (:mod:`repro.kernels.montecarlo`) — whole
  (bit x level x trial) mismatch-draw cubes from one Generator call,
  pass/fail and trip-probability grids bit-identical to the scalar
  per-draw measures under the documented seed-threading scheme
  (``MC_SEED_SCHEME``);
* **exact LTI transients** (:mod:`repro.kernels.transient`) —
  zero-order-hold discretization of the RLC PDN (matrix exponential
  ``A_d``/``B_d``), chunk-invariant streaming stepping and batched
  corner lots, with the trapezoidal loop retained as the convergence
  oracle.

Contract with the scalar layer: the scalar paths
(:meth:`~repro.core.calibration.SensorDesign.bit_threshold`,
:func:`~repro.analysis.thermometer.decode_word`, ...) stay in place as
the *oracle*; the kernels must agree with them bit-identically where
the arithmetic is the same elementwise computation, and within the
oracle's own root-finding tolerance (``xtol=1e-9`` in the in-tree
Brent solver :func:`repro.devices.brent.brentq`, ``==`` to scipy's
``brentq``; so |kernel - oracle| <= 2e-9 V) where the kernels solve to
higher precision.  ``tests/test_kernels.py`` enforces both on randomized
designs.

Kernels are also **batch-invariant**: evaluating one grid row at a time
produces bit-identical floats to evaluating the whole grid in one call
(elementwise ops only; converged lanes of the root solver are frozen by
masking).  This is what lets the process-pool path (one die per task)
and the batched serial path share results exactly.

Fixed ladders are memoized in exactly one place, the ladder store
(:mod:`repro.kernels.ladders`): each (design, code, corner)
ladder, per-die lot row and scalar oracle threshold is solved once
per process and returned as the solver's own floats.  The kernels
above and the scalar oracles stay plain solvers that solve on every
call.

A third, raw-speed tier removes redundant work without touching the
contract:

* **fused solve+decode** (:mod:`repro.kernels.fused`) — supply levels
  to counts/bounds/scores without materializing the intermediate word
  and diff grids (yield scoring, telemetry decode, MC trip counting
  collapsed to a threshold compare).

Every kernel computes in IEEE-754 float64, the precision of the scalar
oracles; there is no precision option.
"""

from repro._lazy import lazy_exports

#: Bump whenever kernel numerics or grid layouts change meaning:
#: participates in :func:`repro.runtime.cache.design_fingerprint`, so
#: vectorized results can never alias cache entries written by a
#: different kernel generation (or by the scalar-only era, which had no
#: version token at all).  v2: stochastic/transient tier (Monte-Carlo
#: draw cubes under ``MC_SEED_SCHEME``, exact-ZOH PDN stepping).
#: v3: raw-speed tier (fused solve+decode kernels) — fingerprints
#: additionally fold :data:`KERNEL_DTYPE_TOKEN` and
#: :data:`KERNEL_BACKEND_TOKEN`.
KERNEL_LAYOUT_VERSION = "kernels/v3"

#: The kernel backend's token in cache fingerprints and run manifests.
#: The kernels have one (NumPy) implementation; the token stays so that
#: every existing cache key and golden manifest keeps its bytes.
KERNEL_BACKEND_TOKEN = "backend/numpy"

#: The kernel precision's token in cache fingerprints and run
#: manifests.  The kernels compute in float64 only; the token stays so
#: that every existing cache key and golden manifest keeps its bytes.
KERNEL_DTYPE_TOKEN = "dtype/float64"

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "KERNEL_BACKEND_TOKEN": ".",
    "KERNEL_DTYPE_TOKEN": ".",
    "KERNEL_LAYOUT_VERSION": ".",
    "MC_SEED_SCHEME": ".montecarlo",
    "decode_counts": ".fused",
    "decode_word_rows": ".fused",
    "fused_decode": ".fused",
    "s_curve_trip_probability_fused": ".fused",
    "score_lot_grids": ".fused",
    "trip_counts_from_thresholds": ".fused",
    "TransientStepper": ".transient",
    "bracket_grid": ".thermometer",
    "bubble_grid": ".thermometer",
    "decode_bounds": ".thermometer",
    "delay_grid": ".delay_law",
    "discretize": ".transient",
    "effective_supply_grid": ".montecarlo",
    "lot_threshold_grid": ".thresholds",
    "midpoint_grid": ".thermometer",
    "ones_count_grid": ".thermometer",
    "s_curve_trip_probability": ".montecarlo",
    "simulate_corner_lot": ".transient",
    "solve_supply_for_delay": ".delay_law",
    "solve_voltage_factor": ".delay_law",
    "spawn_bit_seeds": ".montecarlo",
    "step_rail": ".transient",
    "threshold_grid": ".thresholds",
    "trip_grid": ".montecarlo",
    "trip_margin_grid": ".montecarlo",
    "window_grid": ".thresholds",
    "word_grid": ".thermometer",
    "word_grid_mc": ".montecarlo",
    "word_histogram_grid": ".montecarlo",
}

__all__ = list(_EXPORTS)
# ``voltage_factor_grid`` is importable from here but not starred.
__getattr__, __dir__ = lazy_exports(
    __name__, {**_EXPORTS, "voltage_factor_grid": ".delay_law"})
