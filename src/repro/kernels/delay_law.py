"""Vectorized alpha-power delay law and its inverse.

The scalar model (:mod:`repro.devices.mosfet`) evaluates

    d(V) = (k / strength) * (C_int + C) * g(V),
    g(V) = V / (V - vth)**alpha,

one point at a time and inverts it with the in-tree Brent solver
(:func:`repro.devices.brent.brentq`, ``==`` to scipy's).  This
module evaluates and inverts the same law over whole NumPy grids:

* :func:`voltage_factor_grid` / :func:`delay_grid` are elementwise and
  **bit-identical** to the scalar path: both run the one array core
  :func:`repro.devices.mosfet.voltage_factor_array`, whose float64
  result the scalar model's Python-float branch reproduces bit for bit
  (it too uses ``np.power``, never ``**``);
* :func:`solve_voltage_factor` inverts ``g(V) = G`` with a safeguarded
  Newton-bisection iteration run in log space, converged until the
  per-lane bracket collapses to a few ulps — *more* accurate than the
  scalar oracle's Brent solve (``xtol=1e-9``), hence within ``2e-9`` V of it
  (see :mod:`repro.kernels`).

Batch invariance: every update is elementwise and converged lanes are
frozen by masks, so solving lanes one at a time returns bit-identical
floats to solving the whole grid at once.
"""

from __future__ import annotations

import numpy as np

from repro.devices.mosfet import voltage_factor_array
from repro.errors import ConfigurationError
from repro.runtime.profiling import phase

#: Iteration ceiling for the safeguarded solver.  Pure bisection needs
#: ~60 iterations to collapse a [vth, v_hi] bracket to ulps; Newton
#: typically finishes in < 10.  Hitting the ceiling raises.
_MAX_ITER = 128


def voltage_factor_grid(v: np.ndarray, vth: np.ndarray | float,
                        alpha: np.ndarray | float) -> np.ndarray:
    """``g(V) = V / (V - vth)**alpha`` elementwise; ``+inf`` at or
    below threshold (the gate never switches).

    The arithmetic is the scalar model's own array core,
    :func:`repro.devices.mosfet.voltage_factor_array`, so the result is
    bit-identical to the scalar path.
    """
    return voltage_factor_array(v, vth, alpha)


def delay_grid(v: np.ndarray, c_total: np.ndarray | float,
               k_eff: np.ndarray | float, vth: np.ndarray | float,
               alpha: np.ndarray | float) -> np.ndarray:
    """Propagation delay ``k_eff * c_total * g(V)`` elementwise, s.

    ``k_eff`` is the strength-scaled drive constant
    ``drive_constant / strength`` and ``c_total`` the *total* load
    (intrinsic + external), matching
    :meth:`repro.devices.mosfet.AlphaPowerModel.delay` at zero input
    slew operation for operation.
    """
    return k_eff * c_total * voltage_factor_grid(v, vth, alpha)


def _iterate_numpy(lo: np.ndarray, hi: np.ndarray, vth_f: np.ndarray,
                   alpha_f: np.ndarray, log_g: np.ndarray) -> np.ndarray:
    """The vectorized safeguarded Newton-bisection core.

    Masked full-grid iteration: converged lanes are frozen, so lane
    results are independent of which other lanes are in the batch
    (batch invariance).
    """
    x = 0.5 * (lo + hi)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_MAX_ITER):
        # f(x) = ln g(x) - ln G, strictly decreasing in x.
        headroom = np.where(active, x - vth_f, 1.0)
        f = np.log(x) - alpha_f * np.log(headroom) - log_g
        above = f > 0.0  # root is above x
        lo = np.where(active & above, x, lo)
        hi = np.where(active & ~above, x, hi)
        # Newton proposal on the log form.
        fprime = 1.0 / x - alpha_f / headroom
        step = f / fprime
        cand = x - step
        inside = np.isfinite(cand) & (cand > lo) & (cand < hi)
        cand = np.where(inside, cand, 0.5 * (lo + hi))
        x = np.where(active, cand, x)
        # A lane converges when its bracket spans <= 2 ulps.
        done = (hi - lo) <= 2.0 * np.spacing(hi)
        newly = active & done
        if np.any(newly):
            x = np.where(newly, 0.5 * (lo + hi), x)
            active &= ~done
        if not np.any(active):
            break
    else:  # pragma: no cover - defensive
        raise ConfigurationError(
            "voltage-factor solve failed to converge"
        )
    return x


def solve_voltage_factor(g_target: np.ndarray,
                         vth: np.ndarray | float,
                         alpha: np.ndarray | float, *,
                         v_hi: float = 3.0) -> np.ndarray:
    """Invert ``g(V) = g_target`` elementwise for ``V`` in (vth, v_hi].

    ``g`` is strictly decreasing on ``(vth, inf)`` for ``alpha >= 1``,
    so the root is unique when it exists.  The iteration maintains a
    per-lane bracket ``[lo, hi]`` and proposes Newton steps on
    ``f(V) = ln(V) - alpha * ln(V - vth) - ln(G)`` (smooth, no
    overflow near the pole); a step outside the open bracket falls
    back to bisection.  Lanes terminate — and are *frozen*, for batch
    invariance — once their bracket spans <= 2 ulps.

    Args:
        g_target: Target voltage factors, any broadcastable shape.
        vth: Threshold voltage(s), broadcastable to ``g_target``.
        alpha: Velocity-saturation index(es), broadcastable.
        v_hi: Upper bracket, volts (the scalar oracle's
            ``supply_for_delay(..., v_hi=...)``).

    Returns:
        Array of solved supplies, shaped like the broadcast inputs.

    Raises:
        ConfigurationError: a lane has no root in ``(vth, v_hi]`` —
            mirroring the scalar oracle's bracket errors — or the
            iteration ceiling is hit (never observed; defensive).
    """
    with phase("kernel.solve"):
        g_target, vth, alpha = np.broadcast_arrays(
            np.asarray(g_target, dtype=float),
            np.asarray(vth, dtype=float),
            np.asarray(alpha, dtype=float),
        )
        shape = g_target.shape
        g_t = g_target.ravel()
        vth_f = np.ascontiguousarray(vth, dtype=float).ravel()
        alpha_f = np.ascontiguousarray(alpha, dtype=float).ravel()

        if not np.all(np.isfinite(g_t) & (g_t > 0.0)):
            raise ConfigurationError(
                "g_target must be positive and finite "
                "(a non-positive target delay has no threshold)"
            )
        lo = vth_f + 1e-6
        hi = np.full_like(lo, float(v_hi))
        if np.any(lo >= hi):
            raise ConfigurationError(
                f"v_hi={v_hi} does not clear the threshold bracket"
            )
        # Root exists iff g(lo) > G (slow enough near the pole; always
        # true for a finite target since g -> inf) and g(hi) < G (the
        # gate beats the target at full rail).
        g_hi = voltage_factor_grid(hi, vth_f, alpha_f)
        if np.any(g_hi >= g_t):
            raise ConfigurationError(
                "gate is slower than the target even at the upper "
                "bracket; no threshold exists in the interval"
            )
        g_lo = voltage_factor_grid(lo, vth_f, alpha_f)
        bad = g_lo <= g_t
        if np.any(bad):
            # Mirror the scalar nudge: step off the pole and re-check.
            lo = np.where(bad, vth_f + 1e-4, lo)
            g_lo = voltage_factor_grid(lo, vth_f, alpha_f)
            if np.any(g_lo < g_t):
                raise ConfigurationError(
                    "gate is faster than the target even at the lower "
                    "bracket; no threshold exists in the interval"
                )

        x = _iterate_numpy(lo, hi, vth_f, alpha_f, np.log(g_t))
        return x.reshape(shape)


def solve_supply_for_delay(target_delay: np.ndarray,
                           c_total: np.ndarray | float,
                           k_eff: np.ndarray | float,
                           vth: np.ndarray | float,
                           alpha: np.ndarray | float, *,
                           v_hi: float = 3.0) -> np.ndarray:
    """Invert the full delay law elementwise: the supply ``V*`` at
    which ``k_eff * c_total * g(V*)`` equals ``target_delay``.

    The vectorized analogue of
    :meth:`repro.devices.mosfet.AlphaPowerModel.supply_for_delay`.

    Raises:
        ConfigurationError: non-positive targets or loads, or a lane
            with no root in the bracket.
    """
    target_delay = np.asarray(target_delay, dtype=float)
    c_total = np.asarray(c_total, dtype=float)
    if np.any(target_delay <= 0.0):
        raise ConfigurationError("target_delay must be positive")
    if np.any(c_total <= 0.0):
        raise ConfigurationError("total load must be positive")
    g_target = target_delay / (np.asarray(k_eff, dtype=float) * c_total)
    return solve_voltage_factor(g_target, vth, alpha, v_hi=v_hi)
