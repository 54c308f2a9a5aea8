"""Stimulus helpers: clocks and pulses.

These wrap :meth:`SimulationEngine.schedule_stimulus` with the shapes
the experiments use — periodic clocks for the control system and
single pulses for the sensor's P input.
"""

from __future__ import annotations

from repro.cells.base import LogicValue
from repro.errors import ConfigurationError
from repro.sim.engine import SimulationEngine


def clock_edges(period: float, *, start: float = 0.0, n_cycles: int = 1,
                duty: float = 0.5) -> list[tuple[float, LogicValue]]:
    """Generate (time, value) pairs for a periodic clock.

    The clock rises at ``start + k*period`` and falls ``duty*period``
    later, for ``k`` in ``0..n_cycles-1``.

    Raises:
        ConfigurationError: for non-positive period or duty outside (0,1).
    """
    if period <= 0:
        raise ConfigurationError("period must be positive")
    if not 0.0 < duty < 1.0:
        raise ConfigurationError("duty must be in (0, 1)")
    if n_cycles < 0:
        raise ConfigurationError("n_cycles must be non-negative")
    edges: list[tuple[float, LogicValue]] = []
    for k in range(n_cycles):
        t_rise = start + k * period
        edges.append((t_rise, 1))
        edges.append((t_rise + duty * period, 0))
    return edges


def schedule_clock(engine: SimulationEngine, net: str, period: float, *,
                   start: float = 0.0, n_cycles: int = 1,
                   duty: float = 0.5) -> None:
    """Schedule a periodic clock on a net."""
    for t, v in clock_edges(period, start=start, n_cycles=n_cycles,
                            duty=duty):
        engine.schedule_stimulus(net, v, t)


def schedule_pulse(engine: SimulationEngine, net: str, *, t_rise: float,
                   width: float, polarity: int = 1) -> None:
    """Schedule a single pulse: to ``polarity`` at ``t_rise``, back
    ``width`` later.

    Raises:
        ConfigurationError: for non-positive width or invalid polarity.
    """
    if width <= 0:
        raise ConfigurationError("width must be positive")
    if polarity not in (0, 1):
        raise ConfigurationError("polarity must be 0 or 1")
    engine.schedule_stimulus(net, polarity, t_rise)
    engine.schedule_stimulus(net, 1 - polarity, t_rise + width)
