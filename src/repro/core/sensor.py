"""The single-bit noise sensor (paper Fig. 1 left, Figs. 2-3).

One sensor bit is an inverter powered by the rail under measurement,
driving a capacitively loaded delay-sense node ``DS`` sampled by a
flip-flop on the nominal rail.  Two measurement paths are provided:

* **analytic** (:class:`SensorBit`) — closed-form pass/fail from the
  calibrated delay law; used by the characterization sweeps (Figs. 4-5)
  where tens of thousands of evaluations are needed;
* **event-driven** (:class:`SensorBitHarness`) — a real netlist run
  through the simulator, PREPARE/SENSE phases and metastability
  included; used by the waveform figures (Figs. 2, 3, 9).

The two paths agree at the pass/fail boundary by construction, and the
test suite asserts it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cells.base import HIGH, LOW, LogicValue, UNKNOWN
from repro.cells.combinational import Inverter
from repro.cells.sequential import DFlipFlop
from repro.core import paperdata
from repro.core.calibration import SensorDesign
from repro.devices.technology import Technology
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.netlist import Netlist
from repro.sim.trace import SampleRecord
from repro.sim.waveform import ConstantWaveform, Waveform
from repro.units import NS, PS


class SenseRail(enum.Enum):
    """Which rail a sensor bit measures.

    ``VDD`` is the paper's HIGH-SENSE (noisy supply, nominal ground);
    ``GND`` is LOW-SENSE (nominal supply, noisy ground), with the
    PREPARE/SENSE polarities swapped as §II describes.
    """

    VDD = "vdd"
    GND = "gnd"

    @property
    def prepare_p(self) -> int:
        """P level during PREPARE (forces DS to a known state)."""
        return paperdata.PREPARE_P_VDD if self is SenseRail.VDD else \
            paperdata.SENSE_P_VDD

    @property
    def sense_p(self) -> int:
        """P level during SENSE (launches the measured transition)."""
        return paperdata.SENSE_P_VDD if self is SenseRail.VDD else \
            paperdata.PREPARE_P_VDD

    @property
    def prepare_ds(self) -> int:
        """DS level forced by PREPARE."""
        return 1 - self.prepare_p  # through the inverter

    @property
    def pass_value(self) -> int:
        """FF value meaning 'transition made setup' (no noise error)."""
        return 1 - self.sense_p  # the post-SENSE DS level


@dataclass(frozen=True)
class BitMeasure:
    """Result of one sensor-bit measurement.

    Attributes:
        passed: True when the FF captured the SENSE value — the rail was
            on the good side of this bit's threshold.
        value: Raw captured value (``None`` for an unresolved sample).
        outcome: Sampling outcome name (clean/metastable/miss).
        ds_delay: Observed P→DS propagation delay, seconds (None when
            DS never transitioned).
        out_delay: Observed clock-to-OUT delay, seconds.
        setup_margin: FF setup margin of the sample, seconds.
    """

    passed: bool
    value: LogicValue
    outcome: str
    ds_delay: float | None
    out_delay: float
    setup_margin: float


class SensorBit:
    """Analytic model of one sensor bit.

    Args:
        design: The calibrated sensor design.
        bit: Bit index 1..n_bits (1 = smallest trim cap).
        rail: VDD (HIGH-SENSE) or GND (LOW-SENSE).
    """

    def __init__(self, design: SensorDesign, bit: int,
                 rail: SenseRail = SenseRail.VDD) -> None:
        if not 1 <= bit <= design.n_bits:
            raise ConfigurationError(
                f"bit {bit} outside 1..{design.n_bits}"
            )
        self.design = design
        self.bit = bit
        self.rail = rail

    def effective_supply(self, *, vdd_n: float | None = None,
                         gnd_n: float | None = None) -> float:
        """Supply headroom seen by this bit's inverter.

        HIGH-SENSE inverters sit between noisy VDD-n and nominal ground;
        LOW-SENSE between nominal VDD and noisy GND-n — the separation
        the paper uses to keep the two measures independent.
        """
        if self.rail is SenseRail.VDD:
            v = self.design.tech.vdd_nominal if vdd_n is None else vdd_n
            return v
        g = 0.0 if gnd_n is None else gnd_n
        return self.design.tech.vdd_nominal - g

    def threshold(self, code: int,
                  tech: Technology | None = None) -> float:
        """Failure threshold of this bit under a delay code.

        For the VDD rail: the VDD-n below which the bit fails.  For the
        GND rail: the GND-n rise *above* which the bit fails.
        """
        v_star = self.design.bit_threshold(self.bit, code, tech)
        if self.rail is SenseRail.VDD:
            return v_star
        return self.design.tech.vdd_nominal - v_star

    def ds_delay(self, code: int, *, vdd_n: float | None = None,
                 gnd_n: float | None = None,
                 tech: Technology | None = None) -> float:
        """Inverter P→DS delay at the given rail conditions, seconds."""
        return self._delay_with(
            self.design.sensor_inverter(tech),
            self.design.sense_flipflop(tech),
            vdd_n=vdd_n, gnd_n=gnd_n,
        )

    def _delay_with(self, inv: Inverter, ff: DFlipFlop, *,
                    vdd_n: float | None,
                    gnd_n: float | None) -> float:
        """P→DS delay of ``inv`` driving this bit's trim cap plus the
        D pin of ``ff`` (:meth:`SensorDesign.ds_external_load`)."""
        load = self.design.load_caps[self.bit - 1] + ff.pin("D").cap
        return inv.model.delay(
            self.effective_supply(vdd_n=vdd_n, gnd_n=gnd_n), load
        )

    def measure(self, code: int, *, vdd_n: float | None = None,
                gnd_n: float | None = None,
                tech: Technology | None = None) -> BitMeasure:
        """Analytic measurement: does the DS transition make setup?

        Metastability is flagged when the margin falls inside the FF
        window; the captured value still flips exactly at margin zero,
        matching the event-driven path.
        """
        return self._measure_with(
            self.design.effective_window(code, tech),
            self.design.sensor_inverter(tech),
            self.design.sense_flipflop(tech),
            vdd_n=vdd_n, gnd_n=gnd_n,
        )

    def _measure_with(self, window: float, inv: Inverter, ff: DFlipFlop,
                      *, vdd_n: float | None,
                      gnd_n: float | None) -> BitMeasure:
        """:meth:`measure` against a prebuilt window, inverter and FF —
        the cells a whole array shares (:meth:`SensorArray.measure`)."""
        d = self._delay_with(inv, ff, vdd_n=vdd_n, gnd_n=gnd_n)
        margin = window - d
        passed = margin > 0.0
        if abs(margin) < ff.window:
            outcome = ("metastable_capture" if passed
                       else "metastable_miss")
            out_delay = ff.clk_to_q + ff.tau * _safe_log(
                ff.window, abs(margin)
            )
        else:
            outcome = "clean_capture" if passed else "clean_miss"
            out_delay = ff.clk_to_q
        value = self.rail.pass_value if passed else 1 - self.rail.pass_value
        return BitMeasure(
            passed=passed,
            value=value,
            outcome=outcome,
            ds_delay=d,
            out_delay=out_delay,
            setup_margin=margin,
        )


def _safe_log(window: float, distance: float) -> float:
    """``ln(window/distance)`` guarded against a zero distance."""
    import math

    if distance <= 0.0:
        return 50.0  # effectively 'unbounded' resolution
    return math.log(window / distance)


class SensorBitHarness:
    """Event-driven measurement of one sensor bit.

    Builds the Fig. 1 (left) netlist — sensor inverter on the measured
    rail, trim capacitance on DS, CP-route delay element and sense FF on
    the nominal rail — and runs PREPARE/SENSE sequences through the
    event simulator.

    Args:
        design: Calibrated sensor design.
        bit: Bit index 1..n_bits.
        rail: VDD (HIGH-SENSE) or GND (LOW-SENSE).
        tech: Corner technology override for every cell.
    """

    #: Time allotted to the PREPARE phase before each SENSE instant.
    PREPARE_LEAD = 2.0 * NS
    #: Raw CP pulse width.
    CP_PULSE_WIDTH = 0.4 * NS

    def __init__(self, design: SensorDesign, bit: int,
                 rail: SenseRail = SenseRail.VDD,
                 tech: Technology | None = None) -> None:
        self.design = design
        self.bit = SensorBit(design, bit, rail)
        self.rail = rail
        self.tech = tech if tech is not None else design.tech
        self._build()

    def _build(self) -> None:
        design, tech = self.design, self.tech
        nl = Netlist(f"sensor_bit{self.bit.bit}_{self.rail.value}")
        nominal = design.tech.vdd_nominal
        nl.add_supply("VDD", nominal)
        nl.add_supply("GND", 0.0, is_ground=True)
        nl.add_supply("VDDN", nominal)
        nl.add_supply("GNDN", 0.0, is_ground=True)

        nl.add_net("P")
        nl.add_net("CP")
        nl.add_net("CPD")
        nl.add_net("DS", extra_cap=design.load_caps[self.bit.bit - 1])
        nl.add_net("OUT")
        nl.mark_external_input("P")
        nl.mark_external_input("CP")

        inv = design.sensor_inverter(tech, name=f"INV{self.bit.bit}")
        ff = design.sense_flipflop(tech, name=f"FF{self.bit.bit}")
        route = design.cp_route_element(
            tech, trim_load=ff.pin("CP").cap, name="CProute"
        )
        if self.rail is SenseRail.VDD:
            inv_vdd, inv_gnd = "VDDN", "GND"
        else:
            inv_vdd, inv_gnd = "VDD", "GNDN"
        nl.add_instance("inv", inv, {"A": "P", "Y": "DS"},
                        vdd=inv_vdd, gnd=inv_gnd)
        nl.add_instance("route", route, {"A": "CP", "Y": "CPD"},
                        vdd="VDD", gnd="GND")
        nl.add_instance("ff", ff, {"D": "DS", "CP": "CPD", "Q": "OUT"},
                        vdd="VDD", gnd="GND")
        self.netlist = nl

    def bind_rails(self, *, vdd_n: Waveform | float | None = None,
                   gnd_n: Waveform | float | None = None) -> None:
        """Attach the noisy rail waveforms for the next run."""
        if vdd_n is not None:
            self.netlist.set_supply_waveform("VDDN", vdd_n)
        if gnd_n is not None:
            self.netlist.set_supply_waveform("GNDN", gnd_n)

    def run_measures(self, code: int, measure_times: list[float], *,
                     vdd_n: Waveform | float | None = None,
                     gnd_n: Waveform | float | None = None
                     ) -> list[BitMeasure]:
        """Run a PREPARE/SENSE sequence at each requested instant.

        Args:
            code: PG delay code 0..7 (the harness applies the code's
                skew directly to the raw CP stimulus; the PG netlist
                itself is exercised by the full-system harness).
            measure_times: SENSE instants, seconds; must be spaced by at
                least ``PREPARE_LEAD`` plus the sensing window.
            vdd_n / gnd_n: Noisy rail waveforms for this run.

        Returns:
            One :class:`BitMeasure` per SENSE instant.

        Raises:
            ConfigurationError: unordered / too-dense measure times.
            SimulationError: when a SENSE sample is missing (harness
                misconfiguration).
        """
        if not measure_times:
            raise ConfigurationError("measure_times must be non-empty")
        times = list(measure_times)
        if any(t2 - t1 < self.PREPARE_LEAD + 2 * self.CP_PULSE_WIDTH
               for t1, t2 in zip(times, times[1:])):
            raise ConfigurationError(
                "measure_times too dense for PREPARE/SENSE sequencing"
            )
        if times[0] < self.PREPARE_LEAD:
            raise ConfigurationError(
                f"first measure must be at or after t={self.PREPARE_LEAD}"
            )
        self.bind_rails(vdd_n=vdd_n, gnd_n=gnd_n)
        engine = SimulationEngine(self.netlist)
        rail = self.rail
        engine.set_initial("P", rail.prepare_p)
        engine.set_initial("DS", rail.prepare_ds)
        engine.set_initial("CP", 0)
        engine.set_initial("CPD", 0)
        engine.set_initial("OUT", 0)

        # The harness bypasses the PG netlist but must apply the skew
        # the PG would *realize in this technology* — at a corner the
        # delay elements scale with the devices.
        from repro.core.pulsegen import PulseGenerator

        skew = PulseGenerator(self.design, self.tech).skew(code)
        for t_m in times:
            t_prep = t_m - self.PREPARE_LEAD
            if t_prep > 0:
                engine.schedule_stimulus("P", rail.prepare_p, t_prep)
            # PREPARE sample: CP pulse while DS is forced — captures the
            # prepare level (the paper's '0000000' phase).
            engine.schedule_stimulus("CP", 1, t_prep + skew
                                     + self.PREPARE_LEAD / 2)
            engine.schedule_stimulus("CP", 0, t_prep + skew
                                     + self.PREPARE_LEAD / 2
                                     + self.CP_PULSE_WIDTH)
            # SENSE: release P, clock the FF one skew later.
            engine.schedule_stimulus("P", rail.sense_p, t_m)
            engine.schedule_stimulus("CP", 1, t_m + skew)
            engine.schedule_stimulus("CP", 0,
                                     t_m + skew + self.CP_PULSE_WIDTH)
        t_end = times[-1] + self.PREPARE_LEAD + 4 * self.CP_PULSE_WIDTH
        engine.run(t_end)
        return self._collect(engine, times)

    def _collect(self, engine: SimulationEngine,
                 times: list[float]) -> list[BitMeasure]:
        route_delay_nom = self.design.cp_route_delay
        results: list[BitMeasure] = []
        samples = engine.trace.samples_for("ff")
        for t_m in times:
            # The SENSE sample is the first FF event at/after the SENSE
            # instant (the PREPARE sample of the *next* measure is at
            # least PREPARE_LEAD/2 later).
            window_end = (t_m + route_delay_nom
                          + max(self.design.delay_codes) + 0.5 * NS)
            sense = [s for s in samples if t_m <= s.time <= window_end]
            if not sense:
                raise SimulationError(
                    f"no SENSE sample found for measure at t={t_m}"
                )
            results.append(self._to_measure(engine, sense[0], t_m))
        return results

    def _to_measure(self, engine: SimulationEngine, rec: SampleRecord,
                    t_m: float) -> BitMeasure:
        rail = self.rail
        passed = rec.value == rail.pass_value
        ds_edges = [
            (t, v) for t, v in engine.trace.transitions("DS")
            if t > t_m and v == (1 - rail.prepare_ds)
        ]
        ds_delay = ds_edges[0][0] - t_m if ds_edges else None
        return BitMeasure(
            passed=passed,
            value=rec.value,
            outcome=rec.outcome,
            ds_delay=ds_delay,
            out_delay=rec.clk_to_q,
            setup_margin=rec.setup_margin,
        )

    def measure_once(self, code: int, *,
                     vdd_n: Waveform | float | None = None,
                     gnd_n: Waveform | float | None = None
                     ) -> BitMeasure:
        """One PREPARE/SENSE measurement (convenience wrapper)."""
        return self.run_measures(
            code, [2.0 * self.PREPARE_LEAD], vdd_n=vdd_n, gnd_n=gnd_n
        )[0]
