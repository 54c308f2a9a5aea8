"""Sakurai–Newton alpha-power-law timing model.

This is the analytic replacement for the paper's transistor-level (ELDO)
simulations.  The alpha-power law models a short-channel MOSFET's
saturation current as ``I_d ∝ (V_gs - V_th)**alpha`` with
``1 <= alpha <= 2``; the propagation delay of a CMOS gate discharging a
load ``C`` through such a device is

    t_d = k * C * V / (V - V_th)**alpha

where ``V`` is the supply seen by the gate and ``k`` collapses channel
width, mobility and oxide capacitance into a single drive constant.  Two
properties of this model carry the entire paper:

* delay grows monotonically (and, over the 0.9–1.1 V window the paper
  uses, almost linearly) as the supply drops — the sensing mechanism of
  Fig. 2 and the linearity claim of Fig. 4;
* the sensitivity ``d t_d / d V`` grows with the load ``C`` — the
  capacitance-programmed threshold ladder of the multi-bit sensor.

``g(V) = V / (V - V_th)**alpha`` is computed by one array core,
:func:`voltage_factor_array`, which the vectorized kernels
(:func:`repro.kernels.delay_law.voltage_factor_grid`) call too.
:func:`voltage_factor` adds a scalar branch for Python-float supplies,
the innermost call of every event simulation, and returns the same
bits as the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.devices.brent import brentq
from repro.devices.technology import Technology
from repro.errors import ConfigurationError


def voltage_factor_array(v: float | np.ndarray, vth: float | np.ndarray,
                         alpha: float | np.ndarray) -> np.ndarray:
    """The delay law's one array core: ``g(V)`` elementwise in float64.

    ``v``, ``vth`` and ``alpha`` are cast to float64 and broadcast.
    Supplies at or below ``vth`` map to ``+inf`` (the gate never
    switches) and a ``+inf`` supply maps to NaN, both silently: the
    division-by-zero and invalid-value flags are ignored, overflow still
    warns.  :func:`voltage_factor` and
    :func:`repro.kernels.delay_law.voltage_factor_grid` both call this,
    so the scalar model and the kernels share one sequence of
    operations.
    """
    v = np.asarray(v, dtype=float)
    vth = np.asarray(vth, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    headroom = v - vth
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(headroom > 0.0,
                        v / np.power(np.abs(headroom), alpha), np.inf)


def voltage_factor(v: float | np.ndarray, vth: float, alpha: float):
    """The dimensionless supply factor ``g(V) = V / (V - vth)**alpha``.

    ``g`` is strictly decreasing for ``V > vth`` when ``alpha > 1``,
    which is what makes pass/fail thresholds unique: a gate gets
    monotonically slower as its supply droops.

    Accepts scalars or numpy arrays; values at or below ``vth`` map to
    ``+inf`` (the gate never switches).  A Python-float supply, the
    every-event case of the simulator, takes a scalar branch that skips
    the 0-d array and ``np.errstate``.  It still takes the power with
    ``np.power``, not ``**``: NumPy's own ``pow`` differs from the C
    library's in the last bit for some supplies, and the branch must
    return the same bits as :func:`voltage_factor_array`.  Supplies the
    branch cannot divide cleanly (``+inf``, or a power that underflows
    to zero) fall through to the array core, which returns the same
    NaN or ``inf`` without a warning.
    """
    if type(v) is float:
        headroom = v - vth
        if not headroom > 0.0:
            return math.inf
        power = np.power(headroom, alpha)
        if power > 0.0 and v < math.inf:
            return float(v / power)
    g = voltage_factor_array(v, vth, alpha)
    if np.ndim(v) == 0:
        return float(g)
    return g


@dataclass(frozen=True)
class AlphaPowerModel:
    """Gate-delay calculator bound to a :class:`Technology`.

    Attributes:
        tech: The technology parameter set.
        strength: Relative drive strength of the gate (an X4 cell has
            ``strength=4``): delay constant divides by it, intrinsic
            capacitance multiplies by it.
    """

    tech: Technology
    strength: float = 1.0

    def __post_init__(self) -> None:
        if self.strength <= 0:
            raise ConfigurationError("strength must be positive")

    @property
    def intrinsic_cap(self) -> float:
        """Parasitic output capacitance of this gate, farads."""
        return self.tech.intrinsic_cap_unit * self.strength

    @property
    def input_cap(self) -> float:
        """Input (gate) capacitance presented to the driving stage, F."""
        return self.tech.gate_cap_unit * self.strength

    def voltage_factor(self, v: float | np.ndarray):
        """``g(V)`` for this gate's technology (see module docstring)."""
        return voltage_factor(v, self.tech.vth, self.tech.alpha)

    def supply_scale(self, v: float) -> float:
        """``g(v) / g(vdd_nominal)``: the factor by which this gate's
        timing stretches when its supply moves from nominal to ``v``
        (``inf`` at or below threshold)."""
        return self.voltage_factor(v) / self.voltage_factor(
            self.tech.vdd_nominal)

    def delay(self, supply_v: float, load_cap: float, *,
              input_slew: float = 0.0) -> float:
        """Propagation delay in seconds for a single switching event.

        Args:
            supply_v: Supply voltage seen by the gate at the moment it
                switches (the noisy ``VDD-n`` for sensor inverters).
            load_cap: External load capacitance on the output, farads.
                The gate's own intrinsic capacitance is added internally.
            input_slew: Input transition time in seconds; degrades the
                delay by ``slew_fraction`` of itself (first-order NLDM
                slew axis).

        Returns:
            Delay in seconds; ``math.inf`` when the supply is at or
            below threshold (the gate cannot switch).
        """
        coef = self.delay_coefficient(load_cap)
        g = voltage_factor(supply_v, self.tech.vth, self.tech.alpha)
        if g == math.inf:
            return math.inf
        return coef * g + self.tech.slew_fraction * input_slew

    def delay_coefficient(self, load_cap: float) -> float:
        """The load's factor of :meth:`delay`, seconds per unit ``g``:
        ``(drive_constant / strength) * (intrinsic_cap + load_cap)``.

        A delay is this coefficient times ``g(V)``, plus the slew term,
        so a gate whose load is fixed can build it once.

        Raises:
            ConfigurationError: if ``load_cap`` is negative.
        """
        if load_cap < 0:
            raise ConfigurationError("load_cap must be non-negative")
        return ((self.tech.drive_constant / self.strength)
                * (self.intrinsic_cap + load_cap))

    def delays(self, supply_v: float, coefficients: tuple[float, ...], *,
               input_slew: float = 0.0) -> tuple[float, ...]:
        """:meth:`delay` for several loads on one supply, from one
        ``g(V)``.

        Args:
            supply_v: Supply voltage every load's gate switches at.
            coefficients: One :meth:`delay_coefficient` per load.
            input_slew: Input transition time, as for :meth:`delay`.

        Returns:
            One delay per coefficient, each with the bits :meth:`delay`
            returns for that load; all ``math.inf`` at or below
            threshold.
        """
        g = voltage_factor(supply_v, self.tech.vth, self.tech.alpha)
        if g == math.inf:
            return (math.inf,) * len(coefficients)
        slew = self.tech.slew_fraction * input_slew
        return tuple(coef * g + slew for coef in coefficients)

    def output_slew(self, supply_v: float, load_cap: float) -> float:
        """Output transition time, modelled as twice the step delay.

        A crude but standard NLDM-style approximation: the 10–90 %
        transition takes about twice the 50 % propagation delay for a
        single-stage CMOS gate.
        """
        d = self.delay(supply_v, load_cap)
        return 2.0 * d

    def supply_for_delay(self, target_delay: float, load_cap: float,
                         *, v_lo: float | None = None,
                         v_hi: float = 2.0) -> float:
        """Invert the delay law: the supply at which delay equals target.

        This is the analytic form of the sensor threshold: the supply
        ``V*`` below which the delay-sense node arrives too late.

        Args:
            target_delay: Desired propagation delay, seconds.
            load_cap: External load, farads.
            v_lo: Lower bracket; defaults to just above ``vth``.
            v_hi: Upper bracket, volts.

        Raises:
            ConfigurationError: if the target delay is not achievable in
                the bracket (e.g. the gate is faster than the target even
                at ``v_lo``).
        """
        if target_delay <= 0:
            raise ConfigurationError("target_delay must be positive")
        lo = self.tech.vth + 1e-6 if v_lo is None else v_lo

        def f(v: float) -> float:
            return self.delay(v, load_cap) - target_delay

        f_lo, f_hi = f(lo), f(v_hi)
        if np.isinf(f_lo):
            # Nudge up from the threshold until the delay is finite.
            lo = self.tech.vth + 1e-4
            f_lo = f(lo)
        if f_lo < 0:
            raise ConfigurationError(
                "gate is faster than target_delay even at the lower bracket; "
                "no threshold exists in the interval"
            )
        if f_hi > 0:
            raise ConfigurationError(
                "gate is slower than target_delay even at the upper bracket; "
                "no threshold exists in the interval"
            )
        return brentq(f, lo, v_hi, xtol=1e-9)

    def with_strength(self, strength: float) -> "AlphaPowerModel":
        """Return a copy at a different drive strength."""
        return AlphaPowerModel(tech=self.tech, strength=strength)

    def with_tech(self, tech: Technology) -> "AlphaPowerModel":
        """Return a copy bound to a different technology (corner)."""
        return AlphaPowerModel(tech=tech, strength=self.strength)
