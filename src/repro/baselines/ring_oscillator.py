"""Ring-oscillator PSN sensor (the paper's ref [7] baseline).

A ring of inverters powered by the rail under test oscillates at a
frequency set by the inverter delay, hence by the *effective* supply
``vdd - gnd``; counting its edges over a window digitizes the supply.
Two structural limitations — both stated by the paper and both
reproduced by this model — are:

* the count is an **average** over the window: fast droop events are
  smeared (the thermometer takes an instantaneous sample per measure);
* the ring sees only the supply *difference*: a 50 mV VDD droop and a
  50 mV ground bounce produce the same count — "it cannot distinguish
  between power and ground voltage variations" (§I).
"""

from __future__ import annotations

import numpy as np

from repro.cells.combinational import Inverter, Nand2
from repro.devices.technology import Technology
from repro.errors import ConfigurationError, SimulationError
from repro.kernels.delay_law import delay_grid
from repro.sim.engine import SimulationEngine
from repro.sim.netlist import Netlist
from repro.sim.waveform import Waveform
from repro.units import NS


#: Default sampling step of the counted rail, seconds.
_DT = 10e-12


def _sample_times(window: float, dt: float) -> np.ndarray:
    """The count's sample instants ``0, dt, ...`` below ``window``.

    Raises:
        ConfigurationError: non-positive window or dt.
    """
    if window <= 0 or dt <= 0:
        raise ConfigurationError("window and dt must be positive")
    return np.arange(0.0, window, dt)


def _samples(rail: Waveform | float, ts: np.ndarray) -> np.ndarray:
    """A rail sampled at ``ts``: one fill for a static level, else the
    waveform's scalar ``__call__`` per sample (its vectorized samplers
    may round differently)."""
    if isinstance(rail, (int, float)):
        return np.full(len(ts), float(rail))
    return np.array([rail(t) for t in ts], dtype=float)


class RingOscillatorSensor:
    """Analytic RO sensor model.

    Args:
        tech: Technology of the ring inverters.
        n_stages: Ring length (odd; period = 2 * n * stage delay).
        strength: Inverter drive strength.
    """

    def __init__(self, tech: Technology, *, n_stages: int = 31,
                 strength: float = 1.0) -> None:
        if n_stages < 3 or n_stages % 2 == 0:
            raise ConfigurationError("n_stages must be odd and >= 3")
        self.tech = tech
        self.n_stages = n_stages
        self.inv = Inverter(tech, strength=strength)
        # Each stage drives the next stage's input.
        self._stage_load = self.inv.pin("A").cap

    def _stage_delays(self, v_eff: np.ndarray | float) -> np.ndarray:
        """Stage delays over an effective-supply grid, seconds:
        :func:`~repro.kernels.delay_law.delay_grid`, bit-identical to
        the scalar ``AlphaPowerModel.delay`` at zero input slew
        (``+inf`` at or below threshold)."""
        model = self.inv.model
        return delay_grid(v_eff, model.intrinsic_cap + self._stage_load,
                          self.tech.drive_constant / model.strength,
                          self.tech.vth, self.tech.alpha)

    def _periods(self, v_eff: np.ndarray | float) -> np.ndarray:
        return 2.0 * self.n_stages * self._stage_delays(v_eff)

    def _frequencies(self, v_eff: np.ndarray | float) -> np.ndarray:
        # An infinite period gives exactly 0 Hz (1 / inf).
        return 1.0 / self._periods(v_eff)

    def _counts(self, v_eff: np.ndarray, dt: float) -> np.ndarray:
        """Integrated frequency along the last (time) axis, floored."""
        return np.floor(np.trapezoid(self._frequencies(v_eff), dx=dt,
                                     axis=-1))

    def stage_delay(self, v_eff: float) -> float:
        """One inverter delay at an effective supply, seconds."""
        return float(self._stage_delays(v_eff))

    def period(self, v_eff: float) -> float:
        """Oscillation period at an effective supply, seconds."""
        return float(self._periods(v_eff))

    def frequency(self, v_eff: float) -> float:
        """Oscillation frequency, hertz (0 below threshold)."""
        return float(self._frequencies(v_eff))

    def count(self, window: float, *,
              vdd_n: Waveform | float = 1.0,
              gnd_n: Waveform | float = 0.0,
              dt: float = _DT) -> int:
        """Oscillation count over a window with time-varying rails.

        Integrates the instantaneous frequency — the defining
        *averaging* behaviour of a counted RO — over the effective
        rail ``vdd - gnd`` sampled every ``dt``.

        Raises:
            ConfigurationError: non-positive window or dt.
        """
        ts = _sample_times(window, dt)
        v_eff = _samples(vdd_n, ts) - _samples(gnd_n, ts)
        return int(self._counts(v_eff, dt))

    def calibration_curve(self, v_grid: np.ndarray,
                          window: float) -> list[tuple[float, int]]:
        """(effective supply, count) pairs for static levels.

        Counts every level at once over a (levels x samples) grid;
        each row equals :meth:`count` at that level.
        """
        levels = np.asarray(v_grid, dtype=float)
        n = len(_sample_times(window, _DT))
        counts = self._counts(np.repeat(levels[:, None], n, axis=1), _DT)
        return [(float(v), int(c)) for v, c in zip(levels, counts)]

    def estimate_supply(self, count: int, window: float, *,
                        v_lo: float = 0.5, v_hi: float = 1.5,
                        tol: float = 1e-4) -> float:
        """Invert the count under the *assumption* GND-n is nominal.

        This is the flawed step the paper calls out: the estimate is
        really of ``vdd - gnd``, so ground bounce masquerades as a
        supply droop.  Bisection over static levels.

        Raises:
            ConfigurationError: when the count is outside the bracket's
                count range.
        """
        c_lo = self.count(window, vdd_n=v_lo)
        c_hi = self.count(window, vdd_n=v_hi)
        if not c_lo <= count <= c_hi:
            raise ConfigurationError(
                f"count {count} outside [{c_lo}, {c_hi}] for bracket "
                f"[{v_lo}, {v_hi}]"
            )
        lo, hi = v_lo, v_hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.count(window, vdd_n=mid) < count:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


class RingOscillatorHarness:
    """Structural RO: a NAND-enabled inverter ring in the simulator.

    The ring actually oscillates in the event engine; edges on the tap
    net are counted over the window.  Kept short (default 7 stages) so
    the event count stays reasonable.
    """

    def __init__(self, tech: Technology, *, n_stages: int = 7,
                 strength: float = 1.0) -> None:
        if n_stages < 3 or n_stages % 2 == 0:
            raise ConfigurationError("n_stages must be odd and >= 3")
        self.tech = tech
        self.n_stages = n_stages
        self.strength = strength
        self._build()

    def _build(self) -> None:
        nl = Netlist("ring_oscillator")
        nl.add_supply("VDDN", self.tech.vdd_nominal)
        nl.add_supply("GNDN", 0.0, is_ground=True)
        nl.add_net("EN")
        nl.mark_external_input("EN")
        # Stage 0 is the enable NAND; stages 1..n-1 are inverters.
        for i in range(self.n_stages):
            nl.add_net(f"n{i}")
        nand = Nand2(self.tech, strength=self.strength, name="ring_nand")
        nl.add_instance("ring_nand", nand,
                        {"A": "EN", "B": f"n{self.n_stages - 1}",
                         "Y": "n0"},
                        vdd="VDDN", gnd="GNDN")
        for i in range(1, self.n_stages):
            inv = Inverter(self.tech, strength=self.strength,
                           name=f"ring_inv{i}")
            nl.add_instance(f"ring_inv{i}", inv,
                            {"A": f"n{i - 1}", "Y": f"n{i}"},
                            vdd="VDDN", gnd="GNDN")
        self.netlist = nl

    def count_edges(self, window: float, *,
                    vdd_n: Waveform | float = 1.0,
                    gnd_n: Waveform | float = 0.0,
                    max_events: int = 2_000_000) -> int:
        """Enable the ring for a window; count rising tap edges.

        Raises:
            SimulationError: when the ring fails to oscillate.
        """
        if window <= 0:
            raise ConfigurationError("window must be positive")
        self.netlist.set_supply_waveform("VDDN", vdd_n)
        self.netlist.set_supply_waveform("GNDN", gnd_n)
        engine = SimulationEngine(self.netlist, max_events=max_events)
        engine.set_initial("EN", 0)
        engine.settle()
        t_on = 1.0 * NS
        engine.schedule_stimulus("EN", 1, t_on)
        engine.run(t_on + window)
        tap = f"n{self.n_stages - 1}"
        edges = [t for t in engine.trace.edges(tap, rising=True)
                 if t >= t_on]
        if not edges:
            raise SimulationError("ring did not oscillate")
        return len(edges)
