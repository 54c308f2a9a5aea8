"""The single-bit noise sensor (paper Fig. 1 left, Figs. 2-3).

One sensor bit is an inverter powered by the rail under measurement,
driving a capacitively loaded delay-sense node ``DS`` sampled by a
flip-flop on the nominal rail.  Two measurement paths are provided:

* **analytic** (:class:`SensorBit`) — closed-form pass/fail from the
  calibrated delay law; used by the characterization sweeps (Figs. 4-5)
  where tens of thousands of evaluations are needed;
* **event-driven** (:class:`SensorBitHarness`) — a real netlist run
  through the simulator, PREPARE/SENSE phases and metastability
  included; used by the waveform figures (Figs. 2, 3, 9).  The one
  event-driven PREPARE/SENSE sequencer (``_PrepareSense``) lives here:
  the single bit is it on one stage, and
  :class:`~repro.core.array.SensorArrayHarness` is it on every stage.

The two paths agree at the pass/fail boundary by construction, and the
test suite asserts it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cells.base import LogicValue
from repro.cells.combinational import Inverter
from repro.cells.sequential import DFlipFlop
from repro.core import paperdata
from repro.core.calibration import SensorDesign
from repro.core.pulsegen import PulseGenerator
from repro.devices.technology import Technology
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.netlist import Netlist
from repro.sim.waveform import Waveform
from repro.units import NS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devices.variation import VariationSample


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
        window = self.design.effective_window(code, tech)
        inv = self.design.sensor_inverter(tech)
        ff = self.design.sense_flipflop(tech)
        d = self._delay_with(inv, ff, vdd_n=vdd_n, gnd_n=gnd_n)
        return sample_bit(window, ff, d, self.rail.pass_value)


def sample_bit(window: float, ff: DFlipFlop, d: float,
               pass_value: int) -> BitMeasure:
    """The analytic sample of a DS edge ``d`` seconds after SENSE by
    ``ff`` at the end of ``window``: the bit passes when the edge makes
    setup, and is metastable when it lands inside the FF window.

    :meth:`SensorBit.measure` and :meth:`SensorArray.measure` share it.
    """
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
    value = pass_value if passed else 1 - pass_value
    return BitMeasure(
        passed=passed,
        value=value,
        outcome=outcome,
        ds_delay=d,
        out_delay=out_delay,
        setup_margin=margin,
    )


def bind_noisy_rails(netlist: Netlist,
                     vdd_n: Waveform | float | None,
                     gnd_n: Waveform | float | None) -> None:
    """Bind a sensor netlist's ``VDDN``/``GNDN`` rails for one run.

    An omitted rail is nominal: ``VDDN`` takes the ``VDD`` rail's
    waveform and ``GNDN`` sits at 0 V.  Every run binds both, so a
    reused harness never measures at a previous call's rail.
    """
    netlist.set_supply_waveform(
        "VDDN", netlist.supplies["VDD"].waveform if vdd_n is None else vdd_n
    )
    netlist.set_supply_waveform("GNDN", 0.0 if gnd_n is None else gnd_n)


def _safe_log(window: float, distance: float) -> float:
    """``ln(window/distance)`` guarded against a zero distance."""
    import math

    if distance <= 0.0:
        return 50.0  # effectively 'unbounded' resolution
    return math.log(window / distance)


class _PrepareSense:
    """Event-driven PREPARE/SENSE measurement of N INV+FF stages.

    The thermometer (Fig. 1 right) is N identical stages sharing P and
    the delayed clock; the single bit (Fig. 1 left) is the same circuit
    on one stage.  This builds the netlist (the CP-route delay element,
    trimmed for every stage's FF clock pin, then per stage a sensor
    inverter on the measured rail driving its trim-loaded DS net and a
    sense FF on the nominal rail), schedules the stimulus and collects
    each stage's :class:`BitMeasure`.  :class:`SensorBitHarness` and
    :class:`~repro.core.array.SensorArrayHarness` are its one-stage and
    all-stage views; :meth:`~repro.core.faults.FaultInjector.screen`
    schedules through it.

    Args:
        design: Calibrated sensor design.
        rail: VDD (HIGH-SENSE) or GND (LOW-SENSE).
        tech: Corner technology override for every cell.
        name: Netlist name.
        stages: ``(bit, suffix)`` per stage: the 1-based bit picks the
            trim cap, the suffix names the stage's ``inv``/``ff``
            instances and ``DS``/``OUT`` nets.
        variation: Optional per-die sample; instance ``bit - 1`` varies
            that stage's inverter.
    """

    #: Time allotted to the PREPARE phase before each SENSE instant.
    PREPARE_LEAD = 2.0 * NS
    #: Raw CP pulse width.
    CP_PULSE_WIDTH = 0.4 * NS

    def __init__(self, design: SensorDesign, rail: SenseRail,
                 tech: Technology | None, name: str,
                 stages: tuple[tuple[int, str], ...],
                 variation: VariationSample | None = None) -> None:
        self.design = design
        self.rail = rail
        self.tech = tech = tech if tech is not None else design.tech
        # Built once: run_measures needs the corner-realized CP skew and
        # the sampling window (the CP-route delay builds a flip-flop).
        self.pulse_generator = PulseGenerator(design, tech)
        self._window_pad = (design.cp_route_delay + max(design.delay_codes)
                            + 0.5 * NS)
        self._stages = stages

        nl = Netlist(name)
        nominal = design.tech.vdd_nominal
        nl.add_supply("VDD", nominal)
        nl.add_supply("GND", 0.0, is_ground=True)
        nl.add_supply("VDDN", nominal)
        nl.add_supply("GNDN", 0.0, is_ground=True)
        for net in ("P", "CP", "CPD"):
            nl.add_net(net)
        nl.mark_external_input("P")
        nl.mark_external_input("CP")

        ffs = [design.sense_flipflop(tech, name=f"FF{b}") for b, _ in stages]
        # The route is trimmed for the FF clock pins it drives.
        route = design.cp_route_element(
            tech, trim_load=len(ffs) * ffs[0].pin("CP").cap, name="CProute"
        )
        nl.add_instance("route", route, {"A": "CP", "Y": "CPD"},
                        vdd="VDD", gnd="GND")
        inv_vdd, inv_gnd = (("VDDN", "GND") if rail is SenseRail.VDD
                            else ("VDD", "GNDN"))
        for (b, s), ff in zip(stages, ffs):
            inv_tech = (tech if variation is None
                        else variation.technology_for(tech, b - 1))
            nl.add_net(f"DS{s}", extra_cap=design.load_caps[b - 1])
            nl.add_net(f"OUT{s}")
            nl.add_instance(f"inv{s}",
                            design.sensor_inverter(inv_tech, name=f"INV{b}"),
                            {"A": "P", "Y": f"DS{s}"},
                            vdd=inv_vdd, gnd=inv_gnd)
            nl.add_instance(f"ff{s}", ff,
                            {"D": f"DS{s}", "CP": "CPD", "Q": f"OUT{s}"},
                            vdd="VDD", gnd="GND")
        self.netlist = nl

    def _engine(self, vdd_n: Waveform | float | None,
                gnd_n: Waveform | float | None) -> SimulationEngine:
        """A fresh engine on the bound rails, P at its PREPARE level and
        both clocks low."""
        bind_noisy_rails(self.netlist, vdd_n, gnd_n)
        engine = SimulationEngine(self.netlist)
        engine.set_initial("P", self.rail.prepare_p)
        engine.set_initial("CP", 0)
        engine.set_initial("CPD", 0)
        return engine

    def _schedule_stimulus(self, engine: SimulationEngine, skew: float,
                           times: list[float]) -> None:
        """Schedule the P and CP edges of one PREPARE/SENSE sequence per
        SENSE instant in ``times``, the CP edges ``skew`` late."""
        rail = self.rail
        for t_m in times:
            t_prep = t_m - self.PREPARE_LEAD
            if t_prep > 0:
                engine.schedule_stimulus("P", rail.prepare_p, t_prep)
            # PREPARE sample: CP pulse while DS is forced, capturing the
            # prepare level (the paper's '0000000' phase).
            engine.schedule_stimulus("CP", 1, t_prep + skew
                                     + self.PREPARE_LEAD / 2)
            engine.schedule_stimulus("CP", 0, t_prep + skew
                                     + self.PREPARE_LEAD / 2
                                     + self.CP_PULSE_WIDTH)
            # SENSE: release P, clock the FFs one skew later.
            engine.schedule_stimulus("P", rail.sense_p, t_m)
            engine.schedule_stimulus("CP", 1, t_m + skew)
            engine.schedule_stimulus("CP", 0,
                                     t_m + skew + self.CP_PULSE_WIDTH)

    def _sense(self, code: int, measure_times: list[float],
               vdd_n: Waveform | float | None,
               gnd_n: Waveform | float | None
               ) -> list[tuple[float, tuple[BitMeasure, ...]]]:
        """Run the sequence; each SENSE instant with its stages'
        measures, in stage order."""
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
        engine = self._engine(vdd_n, gnd_n)
        for _, s in self._stages:
            engine.set_initial(f"DS{s}", self.rail.prepare_ds)
            engine.set_initial(f"OUT{s}", 0)
        # The harness bypasses the PG netlist but must apply the skew
        # the PG would *realize in this technology*: at a corner the
        # delay elements scale with the devices.
        self._schedule_stimulus(engine, self.pulse_generator.skew(code),
                                times)
        engine.run(times[-1] + self.PREPARE_LEAD + 4 * self.CP_PULSE_WIDTH)
        return [(t_m, tuple(self._collect(engine, t_m, b, s)
                            for b, s in self._stages))
                for t_m in times]

    def _collect(self, engine: SimulationEngine, t_m: float, bit: int,
                 s: str) -> BitMeasure:
        # The SENSE sample is the first FF event at/after the SENSE
        # instant (the PREPARE sample of the *next* measure is at least
        # PREPARE_LEAD/2 later).
        window_end = t_m + self._window_pad
        sense = [rec for rec in engine.trace.samples_for(f"ff{s}")
                 if t_m <= rec.time <= window_end]
        if not sense:
            raise SimulationError(f"bit {bit}: no SENSE sample at t={t_m}")
        rec = sense[0]
        ds_edges = [
            t for t, v in engine.trace.transitions(f"DS{s}")
            if t > t_m and v == (1 - self.rail.prepare_ds)
        ]
        return BitMeasure(
            passed=rec.value == self.rail.pass_value,
            value=rec.value,
            outcome=rec.outcome,
            ds_delay=ds_edges[0] - t_m if ds_edges else None,
            out_delay=rec.clk_to_q,
            setup_margin=rec.setup_margin,
        )

    def measure_once(self, code: int, *,
                     vdd_n: Waveform | float | None = None,
                     gnd_n: Waveform | float | None = None):
        """One PREPARE/SENSE measurement: the only entry of the view's
        ``run_measures`` at ``2 * PREPARE_LEAD``."""
        return self.run_measures(
            code, [2 * self.PREPARE_LEAD], vdd_n=vdd_n, gnd_n=gnd_n
        )[0]


class SensorBitHarness(_PrepareSense):
    """Event-driven measurement of one sensor bit.

    The Fig. 1 (left) netlist: sensor inverter on the measured rail,
    trim capacitance on ``DS``, CP-route delay element and sense FF on
    the nominal rail, run through PREPARE/SENSE sequences in the event
    simulator.  It is the array harness on one stage, named without a
    stage suffix (instances ``route``/``inv``/``ff``, nets
    ``DS``/``OUT``).

    Args:
        design: Calibrated sensor design.
        bit: Bit index 1..n_bits.
        rail: VDD (HIGH-SENSE) or GND (LOW-SENSE).
        tech: Corner technology override for every cell.
    """

    def __init__(self, design: SensorDesign, bit: int,
                 rail: SenseRail = SenseRail.VDD,
                 tech: Technology | None = None) -> None:
        self.bit = SensorBit(design, bit, rail)
        super().__init__(design, rail, tech, f"sensor_bit{bit}_{rail.value}",
                         ((bit, ""),))

    def bind_rails(self, *, vdd_n: Waveform | float | None = None,
                   gnd_n: Waveform | float | None = None) -> None:
        """Attach the noisy rail waveforms for an engine driven by hand;
        an omitted rail keeps its current waveform."""
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
            vdd_n / gnd_n: Noisy rail waveforms for this run; an
                omitted rail is nominal (:func:`bind_noisy_rails`).

        Returns:
            One :class:`BitMeasure` per SENSE instant.

        Raises:
            ConfigurationError: unordered / too-dense measure times.
            SimulationError: when a SENSE sample is missing (harness
                misconfiguration).
        """
        return [measure for _, (measure,)
                in self._sense(code, measure_times, vdd_n, gnd_n)]
