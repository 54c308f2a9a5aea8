"""Sensor self-screening via fault injection.

The paper argues the sensor can be deployed "on a systematic basis for
PSN measure as scan chains are for fault verification" — which invites
the reciprocal question: *who tests the tester?*  The measurement
protocol itself carries two built-in checks:

* the **PREPARE word** must read all-fail (Fig. 9's ``0000000``) —
  a stage whose output is stuck at the pass value is caught before any
  measure is trusted;
* the **SENSE word** must be a valid thermometer code — a stage stuck
  at fail below passing stages shows up as a bubble.

A production tester adds a third: screening happens at *known* applied
reference levels, so the whole **expected word** is checkable — which
is what closes coverage on the corner cases the in-field checks cannot
see (a top stage stuck at fail reads as a merely lower, valid code).

:class:`FaultInjector` forces classic stuck-at faults onto a sensor
array netlist (using the simulator's force mechanism);
:meth:`FaultInjector.screen` runs the checks;
:func:`coverage_study` sweeps every (fault, stage) pair through the
two-level tester protocol (one level above the ladder, one below) and
reports detection coverage per check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.array import SensorArrayHarness
from repro.core.calibration import SensorDesign
from repro.core.sensor import SenseRail, bind_noisy_rails
from repro.devices.technology import Technology
from repro.errors import ConfigurationError
from repro.kernels import ladders
from repro.sim.waveform import Waveform


class FaultType(enum.Enum):
    """Injectable stuck-at faults on one sensor stage."""

    #: Sensor FF output stuck at the pass value.
    OUT_STUCK_PASS = "out_stuck_pass"
    #: Sensor FF output stuck at the fail value.
    OUT_STUCK_FAIL = "out_stuck_fail"
    #: Delay-sense node stuck at the PREPARE level (dead inverter —
    #: the measured transition never launches).
    DS_STUCK_PREPARE = "ds_stuck_prepare"
    #: Delay-sense node stuck at the SENSE level (shorted inverter —
    #: the FF always sees the post-transition value).
    DS_STUCK_SENSE = "ds_stuck_sense"


@dataclass(frozen=True)
class ScreenReport:
    """Outcome of one screening run.

    Attributes:
        prepare_word: The PREPARE-phase word (must be all-fail).
        sense_word: The SENSE-phase word.
        prepare_check_failed: True when PREPARE read a passing stage.
        bubble_check_failed: True when SENSE was not a thermometer code.
        reference_check_failed: True when a known screening level was
            applied and the SENSE word differed from the expected one
            (None when no reference level was supplied).
        detected: Any check fired.
        suspect_bits: 1-based stages implicated by the failing checks.
    """

    prepare_word: str
    sense_word: str
    prepare_check_failed: bool
    bubble_check_failed: bool
    reference_check_failed: bool | None
    suspect_bits: tuple[int, ...]

    @property
    def detected(self) -> bool:
        return (self.prepare_check_failed or self.bubble_check_failed
                or bool(self.reference_check_failed))


class FaultInjector:
    """Injects stuck-at faults into an event-driven sensor array.

    Args:
        design: Calibrated design.
        rail: VDD or GND array.
        tech: Corner technology.
    """

    def __init__(self, design: SensorDesign,
                 rail: SenseRail = SenseRail.VDD,
                 tech: Technology | None = None) -> None:
        self.design = design
        self.rail = rail
        self.harness = SensorArrayHarness(design, rail, tech)
        self._fault: tuple[FaultType, int] | None = None

    def inject(self, fault: FaultType, bit: int) -> None:
        """Arm one fault on one stage (replaces any previous fault).

        Raises:
            ConfigurationError: bad bit index.
        """
        if not 1 <= bit <= self.design.n_bits:
            raise ConfigurationError(
                f"bit {bit} outside 1..{self.design.n_bits}"
            )
        self._fault = (fault, bit)

    def clear(self) -> None:
        self._fault = None

    def _apply_fault(self, engine) -> None:
        if self._fault is None:
            return
        fault, bit = self._fault
        rail = self.rail
        if fault is FaultType.OUT_STUCK_PASS:
            engine.force_net(f"OUT{bit}", rail.pass_value)
        elif fault is FaultType.OUT_STUCK_FAIL:
            engine.force_net(f"OUT{bit}", 1 - rail.pass_value)
        elif fault is FaultType.DS_STUCK_PREPARE:
            engine.force_net(f"DS{bit}", rail.prepare_ds)
        elif fault is FaultType.DS_STUCK_SENSE:
            engine.force_net(f"DS{bit}", 1 - rail.prepare_ds)
        else:  # pragma: no cover - enum is closed
            raise ConfigurationError(f"unhandled fault {fault}")

    def screen(self, *, code: int = 3,
               vdd_n: Waveform | float | None = None,
               gnd_n: Waveform | float | None = None,
               reference_level: float | None = None) -> ScreenReport:
        """Run one PREPARE/SENSE measure with the armed fault and apply
        the built-in checks.

        Args:
            code: Delay code for the screen.
            vdd_n / gnd_n: Rail during the screen; an omitted rail is
                nominal (:func:`~repro.core.sensor.bind_noisy_rails`).
            reference_level: When the applied VDD-n is a *known* static
                tester level, pass it here to enable the expected-word
                check (the check that closes coverage on top-stage
                stuck-at-fail faults).
        """
        h = self.harness
        # Patch the harness's engine construction to apply the force:
        # run_measures builds its own engine, so screening replays its
        # scheduling with an injected hook.
        from repro.sim.engine import SimulationEngine

        bind_noisy_rails(h.netlist, vdd_n, gnd_n)
        engine = SimulationEngine(h.netlist)
        rail = self.rail
        engine.set_initial("P", rail.prepare_p)
        engine.set_initial("CP", 0)
        engine.set_initial("CPD", 0)
        engine.settle()
        for b in range(1, self.design.n_bits + 1):
            engine.set_initial(f"OUT{b}", 1 - rail.pass_value)
        self._apply_fault(engine)

        skew = h.pulse_generator.skew(code)
        t_m = 2 * h.PREPARE_LEAD
        t_prep = t_m - h.PREPARE_LEAD
        engine.schedule_stimulus("P", rail.prepare_p, t_prep)
        engine.schedule_stimulus(
            "CP", 1, t_prep + skew + h.PREPARE_LEAD / 2
        )
        engine.schedule_stimulus(
            "CP", 0, t_prep + skew + h.PREPARE_LEAD / 2
            + h.CP_PULSE_WIDTH
        )
        engine.schedule_stimulus("P", rail.sense_p, t_m)
        engine.schedule_stimulus("CP", 1, t_m + skew)
        engine.schedule_stimulus("CP", 0, t_m + skew + h.CP_PULSE_WIDTH)
        engine.run(t_m + h.PREPARE_LEAD)

        def word_at(t_lo: float, t_hi: float) -> list[int]:
            bits = []
            for b in range(1, self.design.n_bits + 1):
                v = engine.trace.value_at(f"OUT{b}",
                                          t_hi)
                bits.append(1 if v == rail.pass_value else 0)
            return bits

        t_prep_done = t_prep + skew + h.PREPARE_LEAD / 2 \
            + h.CP_PULSE_WIDTH
        prep_bits = word_at(t_prep, t_prep_done + 0.4e-9)
        sense_bits = word_at(t_m, t_m + h.PREPARE_LEAD * 0.9)

        from repro.analysis.thermometer import ThermometerWord

        prep_word = ThermometerWord(prep_bits)
        sense_word = ThermometerWord(sense_bits)
        prepare_failed = prep_word.ones != 0
        bubble_failed = not sense_word.is_valid_thermometer
        reference_failed: bool | None = None
        expected_bits: tuple[int, ...] | None = None
        if reference_level is not None:
            expected_bits = tuple(
                1 if reference_level
                > ladders.bit_threshold(self.design, b, code) else 0
                for b in range(1, self.design.n_bits + 1)
            )
            reference_failed = tuple(sense_bits) != expected_bits
        suspects: list[int] = []
        if prepare_failed:
            suspects.extend(
                b for b, bit in enumerate(prep_bits, start=1) if bit
            )
        if bubble_failed:
            corrected = sense_word.corrected()
            suspects.extend(
                b for b, (got, fix) in enumerate(
                    zip(sense_word.bits, corrected.bits), start=1)
                if got != fix
            )
        if reference_failed and expected_bits is not None:
            suspects.extend(
                b for b, (got, want) in enumerate(
                    zip(sense_bits, expected_bits), start=1)
                if got != want
            )
        return ScreenReport(
            prepare_word=prep_word.to_string(),
            sense_word=sense_word.to_string(),
            prepare_check_failed=prepare_failed,
            bubble_check_failed=bubble_failed,
            reference_check_failed=reference_failed,
            suspect_bits=tuple(sorted(set(suspects))),
        )


def screen_suspects(injector: FaultInjector, *, code: int = 3,
                    margin: float = 0.05) -> tuple[int, ...]:
    """Two-level tester screen; returns every implicated stage.

    Runs the same protocol :func:`coverage_study` uses for one
    injector: one screen at a known reference level just *below* the
    whole threshold ladder (every healthy stage must fail) and one
    just *above* it (every healthy stage must pass), both with the
    expected-word check enabled.  The union of the suspect bits is
    exactly the stage set a degraded-mode decoder
    (:class:`~repro.core.degraded.DegradedArray`) should mask.

    Args:
        injector: A :class:`FaultInjector` (with or without an armed
            fault) wrapping the array under test.
        code: Delay code for the screens.
        margin: Reference-level clearance beyond the ladder ends,
            volts.

    Returns:
        Sorted 1-based stage indices implicated by any failing check;
        empty for a healthy array.
    """
    if margin <= 0:
        raise ConfigurationError("margin must be positive")
    design = injector.design
    ts = [ladders.bit_threshold(design, b, code)
          for b in range(1, design.n_bits + 1)]
    suspects: set[int] = set()
    for level in (ts[0] - margin, ts[-1] + margin):
        report = injector.screen(code=code, vdd_n=level,
                                 reference_level=level)
        suspects.update(report.suspect_bits)
    return tuple(sorted(suspects))


def coverage_study(design: SensorDesign, *,
                   code: int = 3) -> dict[str, float]:
    """Inject every (fault, bit) pair; two-level tester screening.

    The protocol: one screen at a reference level *below* the whole
    ladder (every healthy stage fails — exposes stuck-at-pass), one
    *above* it (every healthy stage passes — exposes stuck-at-fail),
    both with the expected-word check enabled.  A fault counts as
    detected when any check fires at either level.

    Returns:
        Coverage fraction per fault type plus ``"overall"``.
    """
    ts = [ladders.bit_threshold(design, b, code)
          for b in range(1, design.n_bits + 1)]
    low_level = ts[0] - 0.05
    high_level = ts[-1] + 0.05
    # One injector re-armed per fault: every screen builds a fresh
    # engine (which resets every net) and binds its own rail.
    injector = FaultInjector(design)
    results: dict[str, float] = {}
    total_detected = 0
    total = 0
    for fault in FaultType:
        detected = 0
        for bit in range(1, design.n_bits + 1):
            injector.inject(fault, bit)
            caught = False
            for level in (low_level, high_level):
                report = injector.screen(code=code, vdd_n=level,
                                         reference_level=level)
                if report.detected:
                    caught = True
                    break
            if caught:
                detected += 1
            total += 1
        results[fault.value] = detected / design.n_bits
        total_detected += detected
    results["overall"] = total_detected / total
    return results
