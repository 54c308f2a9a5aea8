"""The assembled sensor system (paper Fig. 6).

One netlist contains: the HIGH-SENSE pulse generator, CP route and
sensor array (inverters on the noisy ``VDD-n``), optionally the
LOW-SENSE chain (inverters against the noisy ``GND-n``), all sense
flip-flops and digital blocks on the nominal rails.  The behavioural
CNTR FSM produces the timed P/CP stimulus (one PREPARE/SENSE pair per
measure) that enters each PG; everything downstream — PG skew, route
insertion, inverter slow-down under the noisy rail, FF sampling with
metastability — happens inside the event simulator.

This is the harness behind the paper's Fig. 9 trace and behind every
closed-loop experiment (droop capture, scan chains, DVFS guard-banding).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.thermometer import ThermometerWord, VoltageRange
from repro.core.array import SensorArray
from repro.core.calibration import SensorDesign
from repro.core.control import ControlFSM, MeasurementSchedule
from repro.core.encoder import EncodedMeasure, ThermometerEncoder
from repro.core.pulsegen import build_pg_netlist
from repro.core.sensor import SenseRail, bind_noisy_rails
from repro.devices.technology import Technology
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.netlist import Netlist
from repro.sim.waveform import Waveform
from repro.units import NS


@dataclass(frozen=True)
class MeasurementResult:
    """One decoded measurement from one array.

    Attributes:
        time: SENSE tick instant (raw CNTR clock time), seconds.
        launch_time: When the measured DS transition actually launched
            at the sensor inverters — the tick plus the PG/driver
            insertion delay.  This is the instant the reading refers
            to (the sensor's aperture), which matters when the rail
            moves fast relative to the insertion delay.
        rail: Which rail was measured.
        word: The thermometer output word.
        encoded: The ENC noise word (OUTE).
        decoded: The rail voltage range the word implies.
        prepare_word: The word captured during the preceding PREPARE
            phase (the paper's all-'0' check).
        any_metastable: True when any stage resolved metastably.
    """

    time: float
    launch_time: float
    rail: SenseRail
    word: ThermometerWord
    encoded: EncodedMeasure
    decoded: VoltageRange
    prepare_word: str
    any_metastable: bool


@dataclass(frozen=True)
class SystemRun:
    """All results of one measurement burst.

    Attributes:
        hs / ls: Decoded measures per chain.
        schedule: The raw CNTR stimulus schedule.
        events_processed: Simulator events in the run.
        switching_energy: Total dynamic energy of the sensor system
            during the burst, joules (the paper's "very low overhead in
            terms of power", measured).
    """

    hs: tuple[MeasurementResult, ...]
    ls: tuple[MeasurementResult, ...]
    schedule: MeasurementSchedule
    events_processed: int
    switching_energy: float


class SensorSystem:
    """The full sensor system of Fig. 6.

    Args:
        design: Calibrated sensor design.
        tech: Corner technology for every cell.
        clock_period: CNTR clock period, seconds.  Must exceed the
            slowest sensing window; the default 2 ns corresponds to the
            500 MHz-class CUT clocks the paper targets ("it can work
            with most of the typical CUTs system clock").
        include_ls: Build the LOW-SENSE chain as well.
    """

    def __init__(self, design: SensorDesign, *,
                 tech: Technology | None = None,
                 clock_period: float = 2.0 * NS,
                 include_ls: bool = True) -> None:
        if clock_period <= 0:
            raise ConfigurationError("clock_period must be positive")
        min_period = (design.cp_route_delay + max(design.delay_codes)
                      + 4 * design.sense_flipflop().clk_to_q)
        if clock_period < min_period:
            raise ConfigurationError(
                f"clock_period {clock_period:g}s below the minimum "
                f"{min_period:g}s required by the sensing window"
            )
        self.design = design
        self.tech = tech if tech is not None else design.tech
        self.clock_period = clock_period
        self.include_ls = include_ls
        self._build()

    def _build(self) -> None:
        design, t = self.design, self.tech
        nl = Netlist("sensor_system")
        nominal = design.tech.vdd_nominal
        nl.add_supply("VDD", nominal)
        nl.add_supply("GND", 0.0, is_ground=True)
        nl.add_supply("VDDN", nominal)
        nl.add_supply("GNDN", 0.0, is_ground=True)
        self.netlist = nl

        self._ports = {}
        self._decoders = {}
        self._build_chain(SenseRail.VDD, "h")
        if self.include_ls:
            self._build_chain(SenseRail.GND, "l")

    def _build_chain(self, rail: SenseRail, tag: str) -> None:
        """One PG + route + array chain (HS or LS)."""
        design, t, nl = self.design, self.tech, self.netlist
        inv_probe = design.sensor_inverter(t)
        ff_probe = design.sense_flipflop(t)
        p_load = design.n_bits * inv_probe.pin("A").cap
        route = design.cp_route_element(
            t, trim_load=design.n_bits * ff_probe.pin("CP").cap,
            name=f"route_{tag}",
        )
        cp_load = route.pin("A").cap
        _, pg_ports = build_pg_netlist(
            design, tech=t, netlist=nl, prefix=f"pg{tag}",
            p_out_load=p_load, cp_out_load=cp_load,
            vdd="VDD", gnd="GND",
        )
        cpd = f"CPD_{tag}"
        nl.add_net(cpd)
        nl.add_instance(f"route_{tag}", route,
                        {"A": pg_ports.cp_out, "Y": cpd},
                        vdd="VDD", gnd="GND")
        inv_vdd, inv_gnd = (("VDDN", "GND") if rail is SenseRail.VDD
                            else ("VDD", "GNDN"))
        for b in range(1, design.n_bits + 1):
            ds = f"DS{tag}{b}"
            out = f"OUT{tag}{b}"
            nl.add_net(ds, extra_cap=design.load_caps[b - 1])
            nl.add_net(out)
            inv = design.sensor_inverter(t, name=f"inv_{tag}{b}")
            ff = design.sense_flipflop(t, name=f"ff_{tag}{b}")
            nl.add_instance(f"inv_{tag}{b}", inv,
                            {"A": pg_ports.p_out, "Y": ds},
                            vdd=inv_vdd, gnd=inv_gnd)
            nl.add_instance(f"ff_{tag}{b}", ff,
                            {"D": ds, "CP": cpd, "Q": out},
                            vdd="VDD", gnd="GND")
        self._ports[tag] = pg_ports

    # -- running ----------------------------------------------------------

    def run(self, n_measures: int, *, code_hs: int = 3,
            code_ls: int = 3,
            vdd_n: Waveform | float | None = None,
            gnd_n: Waveform | float | None = None,
            start_time: float | None = None,
            max_events: int | None = None) -> SystemRun:
        """Run a burst of PREPARE/SENSE measures through the system.

        Args:
            n_measures: Number of measures in the burst.
            code_hs / code_ls: Delay codes for the HS / LS chains
                (Fig. 7's independent ``delay HS`` / ``delay LS``).
            vdd_n / gnd_n: Noisy rail waveforms (floats become constant
                rails); an omitted rail is nominal
                (:func:`~repro.core.sensor.bind_noisy_rails`).
            start_time: First FSM tick, seconds; defaults to two clock
                periods (leaves room for settling).
            max_events: Watchdog budget on simulator events (forwarded
                to :class:`~repro.sim.engine.SimulationEngine`); a run
                that exceeds it raises
                :class:`~repro.errors.SimulationError` instead of
                spinning forever on an oscillating netlist.  ``None``
                keeps the engine default.

        Returns:
            A :class:`SystemRun` with decoded HS and (if built) LS
            measures.
        """
        if n_measures < 1:
            raise ConfigurationError("n_measures must be positive")
        for code in (code_hs, code_ls):
            if not 0 <= code < 8:
                raise ConfigurationError(f"delay code {code} outside 0..7")
        t_start = (2 * self.clock_period if start_time is None
                   else start_time)
        bind_noisy_rails(self.netlist, vdd_n, gnd_n)

        engine = (SimulationEngine(self.netlist) if max_events is None
                  else SimulationEngine(self.netlist,
                                        max_events=max_events))
        schedules: dict[str, MeasurementSchedule] = {}
        chains = [("h", SenseRail.VDD, code_hs)]
        if self.include_ls:
            chains.append(("l", SenseRail.GND, code_ls))
        for tag, rail, code in chains:
            ports = self._ports[tag]
            bits = [code & 1, (code >> 1) & 1, (code >> 2) & 1]
            for s, b in zip(ports.selects, bits):
                engine.set_initial(s, b)
            fsm = ControlFSM(rail)
            sched = fsm.run_schedule(
                n_measures, clock_period=self.clock_period,
                start_time=t_start,
            )
            schedules[tag] = sched
            engine.set_initial(ports.p_in, rail.prepare_p)
            engine.set_initial(ports.cp_in, 0)
            for t_ev, v in sched.p_events:
                engine.schedule_stimulus(ports.p_in, v, t_ev)
            for t_ev, v in sched.cp_events:
                engine.schedule_stimulus(ports.cp_in, v, t_ev)
        engine.settle()
        for tag, _, _ in chains:
            for b in range(1, self.design.n_bits + 1):
                engine.set_initial(f"OUT{tag}{b}", 0)
        t_end = max(s.end_time for s in schedules.values()) \
            + 2 * self.clock_period
        engine.run(t_end)

        hs = self._collect(engine, "h", SenseRail.VDD, schedules["h"],
                           code_hs)
        ls: tuple[MeasurementResult, ...] = ()
        if self.include_ls:
            ls = self._collect(engine, "l", SenseRail.GND,
                               schedules["l"], code_ls)
        return SystemRun(
            hs=hs, ls=ls, schedule=schedules["h"],
            events_processed=engine.events_processed,
            switching_energy=engine.total_energy,
        )

    def _collect(self, engine: SimulationEngine, tag: str,
                 rail: SenseRail, sched: MeasurementSchedule,
                 code: int) -> tuple[MeasurementResult, ...]:
        design = self.design
        encoder = ThermometerEncoder(design.n_bits)
        # One decoding array per chain, built on the chain's first run.
        decoder = self._decoders.get(tag)
        if decoder is None:
            decoder = self._decoders[tag] = SensorArray(design, rail,
                                                        self.tech)
        p_out = self._ports[tag].p_out
        results = []
        for t_prep, t_sense in zip(sched.prepare_times,
                                   sched.sense_times):
            launch_edges = [
                t for t, v in engine.trace.transitions(p_out)
                if t_sense <= t < t_sense + self.clock_period
                and v == rail.sense_p
            ]
            launch_time = launch_edges[0] if launch_edges else t_sense
            word_bits = []
            prep_bits = []
            metastable = False
            for b in range(1, design.n_bits + 1):
                inst = f"ff_{tag}{b}"
                samples = engine.trace.samples_for(inst)
                sense = [s for s in samples
                         if t_sense <= s.time < t_sense
                         + self.clock_period]
                prep = [s for s in samples
                        if t_prep <= s.time < t_prep + self.clock_period]
                if not sense or not prep:
                    raise SimulationError(
                        f"{inst}: missing sample for measure at "
                        f"t={t_sense}"
                    )
                rec = sense[0]
                if "metastable" in rec.outcome or \
                        rec.outcome == "unresolved":
                    metastable = True
                word_bits.append(
                    1 if rec.value == rail.pass_value else 0
                )
                prep_bits.append(
                    1 if prep[0].value == rail.pass_value else 0
                )
            word = ThermometerWord(word_bits)
            results.append(MeasurementResult(
                time=t_sense,
                launch_time=launch_time,
                rail=rail,
                word=word,
                encoded=encoder.encode(word),
                decoded=decoder.decode(word, code, strict=False),
                prepare_word=ThermometerWord(prep_bits).to_string(),
                any_metastable=metastable,
            ))
        return tuple(results)

    def cell_stats(self) -> dict[str, int]:
        """Cell accounting of the built system (overhead bench)."""
        return self.netlist.stats()
