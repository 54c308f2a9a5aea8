"""The multi-bit thermometer array (paper Fig. 1 right).

N identical inverter+FF stages share the same P and CP signals; only
the DS trim capacitance differs, giving each stage its own failure
threshold.  The output is a thermometer code proportional to the rail
level — "in principle similar to a flash A/D converter" (§III-A).

Like the single bit, the array has an analytic path
(:class:`SensorArray`) for sweeps and an event-driven path
(:class:`SensorArrayHarness`) for waveform-accurate runs.  The
event-driven path is the single bit's PREPARE/SENSE sequencer
(:mod:`repro.core.sensor`) run over all N stages; this module only
wraps each instant's stage measures as an :class:`ArrayMeasure`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.thermometer import (
    ThermometerWord,
    VoltageRange,
    decode_word,
)
from repro.core.calibration import SensorDesign
from repro.core.sensor import (
    BitMeasure,
    SenseRail,
    SensorBit,
    _PrepareSense,
    sample_bit,
)
from repro.devices.technology import Technology
from repro.devices.variation import VariationSample
from repro.errors import ConfigurationError
# Not called here (the harness's engine is built in repro.core.sensor);
# the engine-oracle test patches this name in every module it lists.
from repro.sim.engine import SimulationEngine  # noqa: F401
from repro.sim.waveform import Waveform


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
        # Every bit of every measure shares one inverter and one FF, so
        # a bit's DS delay is its fixed load's coefficient times the
        # one g(V) of the rail.
        self._inv = design.sensor_inverter(tech)
        self._ff = design.sense_flipflop(tech)
        d_pin = self._ff.pin("D").cap
        self._coefs = tuple(self._inv.model.delay_coefficient(cap + d_pin)
                            for cap in design.load_caps)
        self._windows: dict[int, float] = {}

    @property
    def n_bits(self) -> int:
        return self.design.n_bits

    def supply_thresholds(self, code: int) -> tuple[float, ...]:
        """Per-bit thresholds in *effective supply* terms, ascending.

        Like a flash converter's reference ladder, the rungs are fixed
        by the design, the corner and the code: the process-wide
        :mod:`~repro.kernels.ladders` store solves each on first use
        and returns the stored tuple after that.
        """
        from repro.kernels import ladders

        return ladders.ladder(self.design, code, self.tech)

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

        Every bit sees the same rail, so one ``g(V)`` times each bit's
        delay coefficient gives every DS delay.  The bits share one
        sensing window per code and the array's flip-flop.
        """
        window = self._windows.get(code)
        if window is None:
            window = self._windows[code] = self.design.effective_window(
                code, self.tech)
        supply = self.bits[0].effective_supply(vdd_n=vdd_n, gnd_n=gnd_n)
        ff, pass_value = self._ff, self.rail.pass_value
        measures = tuple(
            sample_bit(window, ff, d, pass_value)
            for d in self._inv.model.delays(supply, self._coefs)
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


class SensorArrayHarness(_PrepareSense):
    """Event-driven N-bit array (shared P/CP, per-bit DS and OUT).

    Every stage of the event-driven sequencer, stage ``b`` named with
    suffix ``b`` (instances ``inv{b}``/``ff{b}``, nets ``DS{b}``/
    ``OUT{b}``).

    Args:
        design: Calibrated sensor design.
        rail: VDD or GND array.
        tech: Corner technology override for every cell.
        variation: Optional per-die variation sample; instance ``i``
            (0-based) of the sample varies sensor inverter ``i+1`` —
            the source of real thermometer bubbles.
    """

    def __init__(self, design: SensorDesign,
                 rail: SenseRail = SenseRail.VDD,
                 tech: Technology | None = None,
                 variation: VariationSample | None = None) -> None:
        self.variation = variation
        if variation is not None and variation.n_instances < design.n_bits:
            raise ConfigurationError(
                f"variation sample has {variation.n_instances} instances; "
                f"need at least {design.n_bits}"
            )
        super().__init__(
            design, rail, tech, f"sensor_array_{rail.value}",
            tuple((b, str(b)) for b in range(1, design.n_bits + 1)),
            variation,
        )

    def run_measures(self, code: int, measure_times: list[float], *,
                     vdd_n: Waveform | float | None = None,
                     gnd_n: Waveform | float | None = None
                     ) -> list[ArrayMeasure]:
        """PREPARE/SENSE the whole array at each instant.

        Returns one :class:`ArrayMeasure` per instant, word bits ordered
        bit 1 first (use ``word.to_string()`` for the paper's MSB-first
        rendering).  An omitted ``vdd_n``/``gnd_n`` is the nominal rail
        (:func:`~repro.core.sensor.bind_noisy_rails`).  The sequencing
        and errors are
        :meth:`~repro.core.sensor.SensorBitHarness.run_measures`'s.
        """
        return [
            ArrayMeasure(
                time=t_m,
                word=ThermometerWord.from_samples(
                    tuple(1 if m.passed else 0 for m in measures)),
                bit_measures=measures,
            )
            for t_m, measures in self._sense(code, measure_times,
                                             vdd_n, gnd_n)
        ]
