"""The multi-bit thermometer array (paper Fig. 1 right).

N identical inverter+FF stages share the same P and CP signals; only
the DS trim capacitance differs, giving each stage its own failure
threshold.  The output is a thermometer code proportional to the rail
level — "in principle similar to a flash A/D converter" (§III-A).

Like the single bit, the array has an analytic path
(:class:`SensorArray`) for sweeps and an event-driven path
(:class:`SensorArrayHarness`) for waveform-accurate runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.thermometer import (
    ThermometerWord,
    VoltageRange,
    decode_word,
)
from repro.core.calibration import SensorDesign
from repro.core.sensor import BitMeasure, SenseRail, SensorBit
from repro.devices.technology import Technology
from repro.devices.variation import VariationSample
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.netlist import Netlist
from repro.sim.waveform import Waveform
from repro.units import NS


@dataclass(frozen=True)
class ArrayMeasure:
    """One array measurement: the word plus per-bit detail."""

    time: float
    word: ThermometerWord
    bit_measures: tuple[BitMeasure, ...]

    @property
    def any_metastable(self) -> bool:
        return any("metastable" in m.outcome or m.outcome == "unresolved"
                   for m in self.bit_measures)


class SensorArray:
    """Analytic N-bit thermometer.

    Args:
        design: Calibrated sensor design.
        rail: VDD (HIGH-SENSE array) or GND (LOW-SENSE array).
        tech: Corner technology override.
    """

    def __init__(self, design: SensorDesign,
                 rail: SenseRail = SenseRail.VDD,
                 tech: Technology | None = None) -> None:
        self.design = design
        self.rail = rail
        self.tech = tech
        self.bits = tuple(
            SensorBit(design, b, rail)
            for b in range(1, design.n_bits + 1)
        )
        # code -> solved ladder.  The design and corner are frozen, so a
        # code's rungs never change for the lifetime of the array; two
        # threads racing on a first use store equal tuples.
        self._ladders: dict[int, tuple[float, ...]] = {}

    @property
    def n_bits(self) -> int:
        return self.design.n_bits

    def supply_thresholds(self, code: int) -> tuple[float, ...]:
        """Per-bit thresholds in *effective supply* terms, ascending.

        Like a flash converter's reference ladder, the rungs are fixed
        by the design and the code: each code is solved on first use
        and the stored tuple is returned after that.
        """
        ladder = self._ladders.get(code)
        if ladder is None:
            from repro.kernels import threshold_grid

            ladder = tuple(
                float(v)
                for v in threshold_grid(self.design, (code,), self.tech)[:, 0]
            )
            self._ladders[code] = ladder
        return ladder

    def rail_thresholds(self, code: int) -> tuple[float, ...]:
        """Per-bit thresholds in measured-rail terms.

        VDD rail: ascending VDD-n failure levels (Fig. 5's x-axis).
        GND rail: per-bit GND-n rise levels (descending with bit index:
        the largest-cap stage tolerates the least bounce).
        """
        return tuple(b.threshold(code, self.tech) for b in self.bits)

    def measurable_range(self, code: int) -> tuple[float, float]:
        """(min, max) measurable effective supply under a code —
        the "dynamic" endpoints the paper quotes for Fig. 5."""
        t = self.supply_thresholds(code)
        return t[0], t[-1]

    def measure(self, code: int, *, vdd_n: float | None = None,
                gnd_n: float | None = None) -> ArrayMeasure:
        """Analytic measurement at a static rail level.

        Every bit shares one sensing window, inverter and flip-flop;
        they are built once here and handed to each bit.
        """
        design, tech = self.design, self.tech
        window = design.effective_window(code, tech)
        inv = design.sensor_inverter(tech)
        ff = design.sense_flipflop(tech)
        measures = tuple(
            b._measure_with(window, inv, ff, vdd_n=vdd_n, gnd_n=gnd_n)
            for b in self.bits
        )
        word = ThermometerWord.from_samples(
            tuple(1 if m.passed else 0 for m in measures)
        )
        return ArrayMeasure(time=0.0, word=word, bit_measures=measures)

    def decode(self, word: ThermometerWord, code: int, *,
               strict: bool = True) -> VoltageRange:
        """Decode a word into a measured-rail voltage range.

        For the VDD rail the range is in VDD-n volts (Fig. 9's decoded
        ranges); for the GND rail it is the GND-n rise interval.
        """
        supply_range = decode_word(word, self.supply_thresholds(code),
                                   strict=strict)
        if self.rail is SenseRail.VDD:
            return supply_range
        nominal = self.design.tech.vdd_nominal
        return VoltageRange(lo=nominal - supply_range.hi,
                            hi=nominal - supply_range.lo)

    def word_for(self, code: int, *, vdd_n: float | None = None,
                 gnd_n: float | None = None) -> str:
        """Convenience: the MSB-first word string at a rail level."""
        return self.measure(code, vdd_n=vdd_n, gnd_n=gnd_n).word.to_string()

    def masked(self, masked_bits):
        """A degraded-mode view of this array with stages excluded.

        Args:
            masked_bits: 1-based stages to drop (e.g. the suspects a
                production screen implicated).

        Returns:
            A :class:`~repro.core.degraded.DegradedArray` sharing this
            array's design, rail and corner.
        """
        from repro.core.degraded import DegradedArray

        return DegradedArray(self.design, masked_bits, self.rail,
                             self.tech)


class SensorArrayHarness:
    """Event-driven N-bit array (shared P/CP, per-bit DS and OUT).

    Args:
        design: Calibrated sensor design.
        rail: VDD or GND array.
        tech: Corner technology override for every cell.
        variation: Optional per-die variation sample; instance ``i``
            (0-based) of the sample varies sensor inverter ``i+1`` —
            the source of real thermometer bubbles.
    """

    PREPARE_LEAD = 2.0 * NS
    CP_PULSE_WIDTH = 0.4 * NS

    def __init__(self, design: SensorDesign,
                 rail: SenseRail = SenseRail.VDD,
                 tech: Technology | None = None,
                 variation: VariationSample | None = None) -> None:
        self.design = design
        self.rail = rail
        self.tech = tech if tech is not None else design.tech
        self.variation = variation
        if variation is not None and variation.n_instances < design.n_bits:
            raise ConfigurationError(
                f"variation sample has {variation.n_instances} instances; "
                f"need at least {design.n_bits}"
            )
        self.array = SensorArray(design, rail, tech)
        self._build()

    def _inv_tech(self, bit: int) -> Technology:
        if self.variation is None:
            return self.tech
        return self.variation.technology_for(self.tech, bit - 1)

    def _build(self) -> None:
        design = self.design
        nl = Netlist(f"sensor_array_{self.rail.value}")
        nominal = design.tech.vdd_nominal
        nl.add_supply("VDD", nominal)
        nl.add_supply("GND", 0.0, is_ground=True)
        nl.add_supply("VDDN", nominal)
        nl.add_supply("GNDN", 0.0, is_ground=True)

        nl.add_net("P")
        nl.add_net("CP")
        nl.add_net("CPD")
        nl.mark_external_input("P")
        nl.mark_external_input("CP")

        sample_ff = design.sense_flipflop(self.tech)
        cp_fanout = design.n_bits * sample_ff.pin("CP").cap
        route = design.cp_route_element(self.tech, trim_load=cp_fanout,
                                        name="CProute")
        nl.add_instance("route", route, {"A": "CP", "Y": "CPD"},
                        vdd="VDD", gnd="GND")
        inv_vdd, inv_gnd = (("VDDN", "GND") if self.rail is SenseRail.VDD
                            else ("VDD", "GNDN"))
        for b in range(1, design.n_bits + 1):
            nl.add_net(f"DS{b}", extra_cap=design.load_caps[b - 1])
            nl.add_net(f"OUT{b}")
            inv = design.sensor_inverter(self._inv_tech(b), name=f"INV{b}")
            ff = design.sense_flipflop(self.tech, name=f"FF{b}")
            nl.add_instance(f"inv{b}", inv, {"A": "P", "Y": f"DS{b}"},
                            vdd=inv_vdd, gnd=inv_gnd)
            nl.add_instance(f"ff{b}", ff,
                            {"D": f"DS{b}", "CP": "CPD", "Q": f"OUT{b}"},
                            vdd="VDD", gnd="GND")
        self.netlist = nl

    def run_measures(self, code: int, measure_times: list[float], *,
                     vdd_n: Waveform | float | None = None,
                     gnd_n: Waveform | float | None = None
                     ) -> list[ArrayMeasure]:
        """PREPARE/SENSE the whole array at each instant.

        Returns one :class:`ArrayMeasure` per instant, word bits ordered
        bit 1 first (use ``word.to_string()`` for the paper's MSB-first
        rendering).
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
        if vdd_n is not None:
            self.netlist.set_supply_waveform("VDDN", vdd_n)
        if gnd_n is not None:
            self.netlist.set_supply_waveform("GNDN", gnd_n)
        engine = SimulationEngine(self.netlist)
        rail = self.rail
        engine.set_initial("P", rail.prepare_p)
        engine.set_initial("CP", 0)
        engine.set_initial("CPD", 0)
        for b in range(1, self.design.n_bits + 1):
            engine.set_initial(f"DS{b}", rail.prepare_ds)
            engine.set_initial(f"OUT{b}", 0)

        # Corner-realized PG skew (see SensorBitHarness.run_measures).
        from repro.core.pulsegen import PulseGenerator

        skew = PulseGenerator(self.design, self.tech).skew(code)
        for t_m in times:
            t_prep = t_m - self.PREPARE_LEAD
            if t_prep > 0:
                engine.schedule_stimulus("P", rail.prepare_p, t_prep)
            engine.schedule_stimulus(
                "CP", 1, t_prep + skew + self.PREPARE_LEAD / 2
            )
            engine.schedule_stimulus(
                "CP", 0,
                t_prep + skew + self.PREPARE_LEAD / 2 + self.CP_PULSE_WIDTH,
            )
            engine.schedule_stimulus("P", rail.sense_p, t_m)
            engine.schedule_stimulus("CP", 1, t_m + skew)
            engine.schedule_stimulus("CP", 0,
                                     t_m + skew + self.CP_PULSE_WIDTH)
        engine.run(times[-1] + self.PREPARE_LEAD + 4 * self.CP_PULSE_WIDTH)
        return self._collect(engine, times)

    def _collect(self, engine: SimulationEngine,
                 times: list[float]) -> list[ArrayMeasure]:
        design = self.design
        window_pad = (design.cp_route_delay + max(design.delay_codes)
                      + 0.5 * NS)
        out: list[ArrayMeasure] = []
        for t_m in times:
            measures: list[BitMeasure] = []
            for b in range(1, design.n_bits + 1):
                samples = [
                    s for s in engine.trace.samples_for(f"ff{b}")
                    if t_m <= s.time <= t_m + window_pad
                ]
                if not samples:
                    raise SimulationError(
                        f"bit {b}: no SENSE sample at t={t_m}"
                    )
                rec = samples[0]
                ds_edges = [
                    (t, v) for t, v in engine.trace.transitions(f"DS{b}")
                    if t > t_m and v == (1 - self.rail.prepare_ds)
                ]
                measures.append(BitMeasure(
                    passed=rec.value == self.rail.pass_value,
                    value=rec.value,
                    outcome=rec.outcome,
                    ds_delay=(ds_edges[0][0] - t_m) if ds_edges else None,
                    out_delay=rec.clk_to_q,
                    setup_margin=rec.setup_margin,
                ))
            word = ThermometerWord.from_samples(
                tuple(1 if m.passed else 0 for m in measures)
            )
            out.append(ArrayMeasure(
                time=t_m, word=word, bit_measures=tuple(measures)
            ))
        return out

    def measure_once(self, code: int, *,
                     vdd_n: Waveform | float | None = None,
                     gnd_n: Waveform | float | None = None
                     ) -> ArrayMeasure:
        """One array measurement (convenience wrapper)."""
        return self.run_measures(
            code, [2 * self.PREPARE_LEAD], vdd_n=vdd_n, gnd_n=gnd_n
        )[0]
