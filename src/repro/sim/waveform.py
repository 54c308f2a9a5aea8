"""Voltage/current waveforms for supply nets and stimuli.

A waveform is anything callable as ``w(t) -> float`` (volts or amperes).
The concrete classes here cover what the PSN experiments need: constant
rails, piecewise-linear traces produced by the PDN solver, analytic
droop/resonance shapes, and sums of the above.  All are immutable and
cheap to evaluate at a single time point, which is the access pattern of
the event engine (one supply lookup per switching event).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError


@runtime_checkable
class Waveform(Protocol):
    """Anything evaluable at a time point."""

    def __call__(self, t: float) -> float:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class ConstantWaveform:
    """A flat rail: ``w(t) = value`` for all ``t``."""

    value: float

    def __call__(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class StepWaveform:
    """A step: ``before`` until ``t_step``, ``after`` from then on.

    Models the simplest PSN event — an abrupt supply change between two
    measures, as in the paper's Fig. 3/Fig. 9 experiments where the two
    SENSE phases see 1.00 V and then 0.95 V / 0.90 V.
    """

    before: float
    after: float
    t_step: float

    def __call__(self, t: float) -> float:
        return self.before if t < self.t_step else self.after


class PiecewiseLinearWaveform:
    """Linear interpolation through ``(time, value)`` breakpoints.

    Outside the breakpoint range the waveform holds the first/last
    value.  Times must be strictly increasing.
    """

    def __init__(self, times: Sequence[float],
                 values: Sequence[float]) -> None:
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.size != v.size or t.size < 1:
            raise ConfigurationError(
                "times and values must be equal-length and non-empty"
            )
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ConfigurationError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ConfigurationError("breakpoints must be finite")
        self._times = t
        self._values = v

    @property
    def times(self) -> np.ndarray:
        return self._times.copy()

    @property
    def values(self) -> np.ndarray:
        return self._values.copy()

    def __call__(self, t: float) -> float:
        times = self._times
        values = self._values
        if t <= times[0]:
            return float(values[0])
        if t >= times[-1]:
            return float(values[-1])
        i = bisect.bisect_right(times, t) - 1
        t0, t1 = times[i], times[i + 1]
        v0, v1 = values[i], values[i + 1]
        frac = (t - t0) / (t1 - t0)
        return float(v0 + frac * (v1 - v0))

    def sample(self, ts: Sequence[float]) -> np.ndarray:
        """Vectorized evaluation at many time points."""
        return np.interp(np.asarray(ts, dtype=float),
                         self._times, self._values)

    def min_over(self, t0: float, t1: float) -> float:
        """Minimum value on ``[t0, t1]`` (breakpoints + endpoints)."""
        return self._extreme_over(t0, t1, np.min)

    def max_over(self, t0: float, t1: float) -> float:
        """Maximum value on ``[t0, t1]`` (breakpoints + endpoints)."""
        return self._extreme_over(t0, t1, np.max)

    def _extreme_over(self, t0: float, t1: float, reducer) -> float:
        if t1 < t0:
            raise ConfigurationError("interval must have t1 >= t0")
        inner = self._times[(self._times > t0) & (self._times < t1)]
        candidates = np.concatenate(
            [[self(t0), self(t1)], self.sample(inner)]
        )
        return float(reducer(candidates))


@dataclass(frozen=True)
class DampedSineWaveform:
    """A decaying sinusoid riding on a base level.

    ``w(t) = base + amplitude * exp(-(t - t0)/decay) * sin(2*pi*freq*(t - t0))``
    for ``t >= t0``, else ``base``.  This is the canonical first-droop /
    package-resonance PSN shape (the mid-frequency resonance of an RLC
    power delivery network).
    """

    base: float
    amplitude: float
    freq: float
    decay: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.freq <= 0 or self.decay <= 0:
            raise ConfigurationError("freq and decay must be positive")

    def __call__(self, t: float) -> float:
        if t < self.t0:
            return self.base
        dt = t - self.t0
        return self.base + self.amplitude * math.exp(-dt / self.decay) \
            * math.sin(2.0 * math.pi * self.freq * dt)


class SumWaveform:
    """Pointwise sum of component waveforms (noise superposition)."""

    def __init__(self, components: Sequence[Waveform]) -> None:
        if not components:
            raise ConfigurationError("SumWaveform needs at least one part")
        self._components = tuple(components)

    def __call__(self, t: float) -> float:
        return sum(w(t) for w in self._components)


class ScaledWaveform:
    """``scale * w(t) + offset`` — e.g. flip the sign of ground bounce."""

    def __init__(self, inner: Waveform, *, scale: float = 1.0,
                 offset: float = 0.0) -> None:
        self._inner = inner
        self._scale = scale
        self._offset = offset

    def __call__(self, t: float) -> float:
        return self._scale * self._inner(t) + self._offset
