"""Synthetic CUT switching-current generators.

A digital CUT draws current in clock-locked bursts: every active edge
fires a spike of charge whose magnitude tracks the fraction of gates
switching that cycle (the activity factor).  The generators here sample
that structure onto a uniform time grid suitable for the PDN integrator:
triangular per-cycle pulses whose peak follows a programmable activity
profile — constant load, an idle→active step (the classic first-droop
stimulus), periodic throttling, or seeded random activity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


class ActivityProfile(enum.Enum):
    """Cycle-by-cycle activity-factor envelopes."""

    #: Constant activity at ``base_activity``.
    CONSTANT = "constant"
    #: Idle at ``idle_activity`` then step to ``base_activity`` at
    #: ``step_cycle`` — the wake-up event that excites the first droop.
    STEP = "step"
    #: Square-wave alternation between idle and active every
    #: ``burst_cycles`` cycles (throttling / clock gating).
    BURST = "burst"
    #: Per-cycle activity drawn uniformly from
    #: [idle_activity, base_activity] with a seeded RNG.
    RANDOM = "random"


@dataclass(frozen=True)
class ClockedActivityGenerator:
    """Generates CUT current traces on a uniform grid.

    Attributes:
        clock_period: CUT clock period, seconds.
        peak_current: Current spike peak at activity factor 1.0, amperes.
        base_activity: Active-phase activity factor in [0, 1].
        idle_activity: Idle-phase activity factor in [0, 1].
        pulse_fraction: Fraction of the cycle occupied by the triangular
            current pulse (charge is delivered early in the cycle).
        profile: Which envelope to apply.
        step_cycle: For ``STEP``: first active cycle.
        burst_cycles: For ``BURST``: half-period, in cycles.
        seed: For ``RANDOM``: RNG seed (deterministic traces).
    """

    clock_period: float
    peak_current: float
    base_activity: float = 0.7
    idle_activity: float = 0.05
    pulse_fraction: float = 0.4
    profile: ActivityProfile = ActivityProfile.CONSTANT
    step_cycle: int = 0
    burst_cycles: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clock_period <= 0:
            raise ConfigurationError("clock_period must be positive")
        if self.peak_current < 0:
            raise ConfigurationError("peak_current must be non-negative")
        for attr in ("base_activity", "idle_activity"):
            val = getattr(self, attr)
            if not 0.0 <= val <= 1.0:
                raise ConfigurationError(f"{attr} must be in [0, 1]")
        if not 0.0 < self.pulse_fraction <= 1.0:
            raise ConfigurationError("pulse_fraction must be in (0, 1]")
        if self.burst_cycles <= 0:
            raise ConfigurationError("burst_cycles must be positive")

    def activity_for_cycle(self, cycle: int,
                           rng: np.random.Generator | None = None
                           ) -> float:
        """Activity factor of one clock cycle under the profile."""
        if self.profile is ActivityProfile.CONSTANT:
            return self.base_activity
        if self.profile is ActivityProfile.STEP:
            return (self.base_activity if cycle >= self.step_cycle
                    else self.idle_activity)
        if self.profile is ActivityProfile.BURST:
            phase = (cycle // self.burst_cycles) % 2
            return self.base_activity if phase == 0 else self.idle_activity
        if self.profile is ActivityProfile.RANDOM:
            if rng is None:
                rng = np.random.default_rng(self.seed + cycle)
            lo, hi = sorted((self.idle_activity, self.base_activity))
            return float(rng.uniform(lo, hi))
        raise ConfigurationError(f"unhandled profile {self.profile}")

    def sample(self, *, t_end: float, dt: float) -> np.ndarray:
        """Current samples on ``t = 0, dt, ..., t_end`` (inclusive).

        Each cycle contributes a triangular pulse of width
        ``pulse_fraction * clock_period`` starting at the cycle
        boundary, peaking at ``activity * peak_current``.

        Raises:
            ConfigurationError: if ``dt`` under-resolves the pulse
                (fewer than 4 samples across it).
        """
        if t_end <= 0 or dt <= 0:
            raise ConfigurationError("t_end and dt must be positive")
        pulse_width = self.pulse_fraction * self.clock_period
        if dt > pulse_width / 4.0:
            raise ConfigurationError(
                f"dt={dt:g}s under-resolves the per-cycle current pulse "
                f"({pulse_width:g}s wide); use dt <= {pulse_width / 4.0:g}s"
            )
        n = int(round(t_end / dt))
        times = np.arange(n + 1) * dt
        current = np.zeros_like(times)
        n_cycles = int(np.floor(t_end / self.clock_period)) + 1
        rng = (np.random.default_rng(self.seed)
               if self.profile is ActivityProfile.RANDOM else None)
        peaks = np.array([self.activity_for_cycle(c, rng) * self.peak_current
                          for c in range(n_cycles)], dtype=float)
        half = pulse_width / 2.0
        # A sample lies in the pulse of its own cycle, floor(t / T), or,
        # at a rounded or shared boundary, of a neighbour.  The
        # neighbours are added in cycle order, as one pass per cycle
        # would add them.
        own = np.floor(times / self.clock_period).astype(np.int64)
        for near in (own - 1, own, own + 1):
            valid = (near >= 0) & (near < n_cycles)
            cycle = np.where(valid, near, 0)
            peak = peaks[cycle]
            t0 = cycle * self.clock_period
            # Triangular pulse rising to `peak` at t0+half, back to 0 at
            # t0+pulse_width.
            in_pulse = (valid & (peak != 0.0) & (times >= t0)
                        & (times <= t0 + pulse_width))
            rel = times[in_pulse] - t0[in_pulse]
            tri = np.where(rel <= half, rel / half,
                           (pulse_width - rel) / half)
            current[in_pulse] += peak[in_pulse] * np.clip(tri, 0.0, 1.0)
        return current

    def average_current(self) -> float:
        """Long-run mean current of the CONSTANT profile (amperes)."""
        # Triangle area = 0.5 * peak * width per period.
        return (0.5 * self.base_activity * self.peak_current
                * self.pulse_fraction)
