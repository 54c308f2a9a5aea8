"""Sequential cells: D flip-flops with setup/hold and metastability.

The flip-flop is the *decision element* of the paper's sensor: the noisy
supply modulates the inverter delay, and the FF converts "did DS make
setup?" into a digital bit.  Fig. 2 of the paper shows the canonical
signature of that decision: as the data edge approaches the clock edge,
the FF output delay grows non-linearly (metastability) and finally the
sample fails.  The model here is the standard regenerative-latch one:

* data arriving with at least one metastability-window ``w`` of setup
  margin is captured cleanly with the nominal clock-to-Q delay;
* data arriving inside the window resolves with
  ``t_cq = t_cq0 + tau * ln(w / |margin|)`` — log-divergent at the
  critical point, exactly the "OUT delay increases in a not linear way"
  behaviour of Fig. 2;
* data arriving after the critical point is missed: the FF keeps the
  previous value (for the sensor, the PREPARE-phase ``0``, i.e. an
  error flag).

Resolution beyond a configurable cap is reported as an unresolved
(metastable) sample so callers can treat it as a failure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

from repro.cells.base import (
    Cell,
    HIGH,
    LOW,
    LogicValue,
    Pin,
    UNKNOWN,
    validate_logic,
)
from repro.devices.technology import Technology
from repro.errors import ConfigurationError


class SampleOutcome(enum.Enum):
    """How a flip-flop sampling event resolved."""

    #: Data arrived with full setup margin; clean capture of the new value.
    CLEAN_CAPTURE = "clean_capture"
    #: Data arrived inside the metastability window but before the
    #: critical point; the new value wins after an elongated resolution.
    METASTABLE_CAPTURE = "metastable_capture"
    #: Data arrived inside the window past the critical point; the old
    #: value wins after an elongated resolution.
    METASTABLE_MISS = "metastable_miss"
    #: Data arrived well after the clock edge; clean capture of the old
    #: value.
    CLEAN_MISS = "clean_miss"
    #: Resolution exceeded the cap; the output is indeterminate.
    UNRESOLVED = "unresolved"

    @property
    def captured_new_value(self) -> bool:
        """True when the sampled output reflects the new data value."""
        return self in (SampleOutcome.CLEAN_CAPTURE,
                        SampleOutcome.METASTABLE_CAPTURE)

    @property
    def is_metastable(self) -> bool:
        return self in (SampleOutcome.METASTABLE_CAPTURE,
                        SampleOutcome.METASTABLE_MISS,
                        SampleOutcome.UNRESOLVED)


@dataclass(frozen=True)
class SampleResult:
    """Result of one flip-flop sampling event.

    Attributes:
        value: The captured logic value (``UNKNOWN`` when unresolved).
        outcome: How the sample resolved.
        clk_to_q: Clock-to-output delay of this event, seconds.  For
            unresolved samples this is the resolution cap.
        setup_margin: Data setup margin at the clock edge, seconds;
            positive when data met setup (new value side), negative when
            it arrived past the critical point.
    """

    value: LogicValue
    outcome: SampleOutcome
    clk_to_q: float
    setup_margin: float


class DFlipFlop(Cell):
    """Positive-edge-triggered D flip-flop with metastability model.

    Timing parameters default to multiples of the technology's
    unit-inverter FO4-class delay at nominal supply, so a slower corner
    automatically yields a slower flip-flop.

    Args:
        tech: Technology (the FF is on the *nominal* supply in the
            paper's sensor; pass a corner technology to model variation).
        strength: Drive strength of the output stage.
        setup_time: Setup time, seconds (default derived from tech).
        hold_time: Hold time, seconds (default derived).
        clk_to_q: Nominal clock-to-Q delay, seconds (default derived).
        tau: Metastability resolution time constant, seconds (default
            derived; ~1/3 of a unit delay).
        window: Metastability window half-width ``w``, seconds.
        resolution_cap: Maximum modelled resolution time; samples that
            would take longer are reported ``UNRESOLVED``.
    """

    is_sequential = True
    logical_effort = 1.0

    def __init__(self, tech: Technology, *, strength: float = 1.0,
                 name: str | None = None,
                 setup_time: float | None = None,
                 hold_time: float | None = None,
                 clk_to_q: float | None = None,
                 tau: float | None = None,
                 window: float | None = None,
                 resolution_cap: float | None = None) -> None:
        super().__init__(tech, strength=strength, name=name)
        d_unit = self.model.delay(tech.vdd_nominal,
                                  4.0 * self.model.input_cap)
        self.setup_time = setup_time if setup_time is not None else 1.5 * d_unit
        self.hold_time = hold_time if hold_time is not None else 0.5 * d_unit
        self.clk_to_q = clk_to_q if clk_to_q is not None else 2.0 * d_unit
        self.tau = tau if tau is not None else d_unit / 3.0
        self.window = window if window is not None else d_unit / 4.0
        self.resolution_cap = (resolution_cap if resolution_cap is not None
                               else self.clk_to_q + 12.0 * self.tau)
        for attr in ("setup_time", "hold_time", "clk_to_q", "tau", "window"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive")
        if self.resolution_cap <= self.clk_to_q:
            raise ConfigurationError(
                "resolution_cap must exceed the nominal clk_to_q"
            )

    def _build_pins(self) -> list[Pin]:
        return [
            self._input_pin(name="D"),
            self._input_pin(name="CP", is_clock=True),
            self._output_pin("Q"),
        ]

    def evaluate(self, inputs: Mapping[str, LogicValue]
                 ) -> dict[str, LogicValue]:
        """Combinational view: a DFF output does not follow its inputs.

        The event engine drives Q through :meth:`sample` on clock edges;
        this method exists to satisfy the :class:`Cell` interface and
        reports "no combinational change".
        """
        return {}

    # -- sampling ------------------------------------------------------

    def sample(self, *, new_value: LogicValue, old_value: LogicValue,
               data_arrival: float, clock_edge: float,
               supply_v: float | None = None) -> SampleResult:
        """Resolve one positive-clock-edge sampling event.

        Args:
            new_value: The data value the D input transitions *to*.
            old_value: The value D held before the transition (and hence
                what a missed sample captures).
            data_arrival: Absolute time the D transition reaches the FF
                input, seconds.
            clock_edge: Absolute time of the sampling clock edge, s.
            supply_v: Supply of the FF itself; defaults to nominal.
                Mild FF-supply noise scales setup and clk-to-Q, the
                second-order effect the paper says "should be
                characterized".

        Returns:
            A :class:`SampleResult`.  If the data never transitions
            (``new_value == old_value``) the sample is trivially a clean
            capture of that value.
        """
        validate_logic(new_value)
        validate_logic(old_value)
        v = self.tech.vdd_nominal if supply_v is None else supply_v
        # Supply scaling of the FF's own timing: ratio of voltage factors.
        scale = self.model.supply_scale(v)
        if math.isinf(scale):
            return SampleResult(
                value=UNKNOWN,
                outcome=SampleOutcome.UNRESOLVED,
                clk_to_q=self.resolution_cap,
                setup_margin=float("-inf"),
            )
        setup = self.setup_time * scale
        t_cq0 = self.clk_to_q * scale
        tau = self.tau * scale
        window = self.window * scale
        cap = self.resolution_cap * scale

        if new_value == old_value:
            return SampleResult(
                value=new_value,
                outcome=SampleOutcome.CLEAN_CAPTURE,
                clk_to_q=t_cq0,
                setup_margin=float("inf"),
            )

        margin = (clock_edge - setup) - data_arrival
        if margin >= window:
            return SampleResult(
                value=new_value,
                outcome=SampleOutcome.CLEAN_CAPTURE,
                clk_to_q=t_cq0,
                setup_margin=margin,
            )
        if margin <= -window:
            return SampleResult(
                value=old_value,
                outcome=SampleOutcome.CLEAN_MISS,
                clk_to_q=t_cq0,
                setup_margin=margin,
            )
        # Inside the metastability window: log-divergent resolution.
        distance = abs(margin)
        if distance <= 0.0:
            resolution = cap
        else:
            resolution = t_cq0 + tau * math.log(window / distance)
        if resolution >= cap:
            return SampleResult(
                value=UNKNOWN,
                outcome=SampleOutcome.UNRESOLVED,
                clk_to_q=cap,
                setup_margin=margin,
            )
        if margin > 0:
            outcome = SampleOutcome.METASTABLE_CAPTURE
            value = new_value
        else:
            outcome = SampleOutcome.METASTABLE_MISS
            value = old_value
        return SampleResult(
            value=value,
            outcome=outcome,
            clk_to_q=resolution,
            setup_margin=margin,
        )

    def critical_arrival(self, clock_edge: float,
                         supply_v: float | None = None) -> float:
        """The data-arrival time at which capture flips to miss.

        Data arriving earlier than this (by more than the metastability
        window) is cleanly captured; later is missed.
        """
        v = self.tech.vdd_nominal if supply_v is None else supply_v
        scale = self.model.supply_scale(v)
        return clock_edge - self.setup_time * scale
