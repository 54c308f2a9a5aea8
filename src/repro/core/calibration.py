"""Fit the technology model to the paper's published anchors.

The paper characterizes its 90 nm sensor with post-layout SPICE; we
re-derive the free constants of the alpha-power substrate so that the
*simulated* sensor reproduces the published numbers.  The failure
condition of sensor bit *i* under delay code *c* is

    d_inv(V, C_i) = D(c) + t0                                   (1)

where ``d_inv(V, C) = k_eff * (C_int + C) * g(V)`` with
``g(V) = V / (V - vth)**alpha``, ``D(c)`` the PG skew from the paper's
delay-code table, and ``t0`` the fixed difference between the CP and P
insertion paths minus the flip-flop setup time.  The published anchors
give us:

* **cross-code consistency** — bit 1 and bit 7 have thresholds under
  *two* codes (011: 0.827/1.053 V; 010: 0.951/1.237 V).  Eq. (1) for
  the same bit under two codes forces
  ``g(0.827)/g(0.951) == g(1.053)/g(1.237)``, which pins ``vth`` for a
  chosen ``alpha``;
* the same ratio then yields ``t0`` from the two code delays;
* the **Fig. 4 anchor** (C = 2 pF fails below 0.9360 V) sets the sensor
  inverter's drive strength;
* the remaining published code boundaries of code 011 set the per-bit
  trim capacitances.

Everything downstream (characterization sweeps, the event-driven system
simulation, the corner retrimming) *re-derives* the paper's figures
from this fitted design rather than replaying the anchors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from repro.cells.delay_elements import DelayElement
from repro.cells.combinational import Inverter
from repro.cells.sequential import DFlipFlop
from repro.core import paperdata
from repro.devices.brent import brentq
from repro.devices.mosfet import AlphaPowerModel, voltage_factor
from repro.devices.technology import TECH_90NM, Technology
from repro.errors import CalibrationError, ConfigurationError
from repro.units import PS


@dataclass(frozen=True)
class SensorDesign:
    """The complete, calibrated design of the paper's sensor system.

    Attributes:
        tech: Fitted technology (vth/alpha from calibration).
        sensor_strength: Drive strength of the sensor inverters.
        ff_strength: Drive strength of the sense flip-flops.
        t0: CP-vs-P insertion offset minus FF setup, seconds; the
            effective sensing window under code ``c`` is
            ``D(c) + t0``.
        delay_codes: The eight PG skews ``D(c)``, seconds.
        load_caps: Per-bit explicit DS trim capacitances, ascending, F.
        bit_thresholds_code011: The fitted per-bit failure thresholds
            under code 011, volts (ascending; diagnostic/reference).
    """

    tech: Technology
    sensor_strength: float
    ff_strength: float
    t0: float
    delay_codes: tuple[float, ...]
    load_caps: tuple[float, ...]
    bit_thresholds_code011: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.delay_codes) != 8:
            raise ConfigurationError("expected 8 delay codes")
        if any(d + self.t0 <= 0 for d in self.delay_codes):
            raise ConfigurationError(
                "every effective window D(c) + t0 must be positive"
            )
        caps = np.asarray(self.load_caps)
        if caps.size < 1 or np.any(caps <= 0) or np.any(np.diff(caps) <= 0):
            raise ConfigurationError(
                "load_caps must be positive and strictly ascending"
            )

    # -- component factories -------------------------------------------

    @property
    def n_bits(self) -> int:
        return len(self.load_caps)

    def sensor_inverter(self, tech: Technology | None = None,
                        *, name: str | None = None) -> Inverter:
        """The sensor INV (powered by the rail under measurement)."""
        return Inverter(tech or self.tech, strength=self.sensor_strength,
                        name=name)

    def sense_flipflop(self, tech: Technology | None = None,
                       *, name: str | None = None) -> DFlipFlop:
        """The sense FF (powered by the nominal rail)."""
        return DFlipFlop(tech or self.tech, strength=self.ff_strength,
                         name=name)

    @property
    def ff_setup_time(self) -> float:
        """Setup time of the sense FF at nominal conditions, seconds."""
        return self.sense_flipflop().setup_time

    @property
    def cp_route_delay(self) -> float:
        """Extra CP-path insertion delay realizing ``t0``.

        The netlist inserts this as a delay element in the CP path so
        that (CP route) - (P route) - (FF setup) == t0 at nominal.
        """
        return self.t0 + self.ff_setup_time

    def cp_route_element(self, tech: Technology | None = None,
                         *, trim_load: float = 0.0,
                         name: str | None = None) -> DelayElement:
        """Physical CP-route delay element (trim fixed at design time).

        Args:
            tech: Corner technology; the design-time trim capacitance is
                kept and the delay recomputed (real silicon behaviour).
            trim_load: In-situ fanout load the element is trimmed for
                (e.g. the FF clock pins it drives).
        """
        design_elem = DelayElement(self.tech, self.cp_route_delay,
                                   strength=self.ff_strength,
                                   trim_load=trim_load)
        if tech is None or tech is self.tech:
            design_elem.name = name or design_elem.name
            return design_elem
        return DelayElement.from_internal_cap(
            tech, design_elem.internal_cap, strength=self.ff_strength,
            name=name,
        )

    # -- analytic timing ------------------------------------------------

    def timing_scale(self, tech: Technology | None = None) -> float:
        """Delay scale of a corner technology vs. the design technology.

        All nominal-rail components (PG delay elements, CP route, FF
        setup) are built from the same device model with fixed
        capacitances, so a corner multiplies every one of them by the
        same factor: ``(k'/k) * (g'(Vnom) / g(Vnom))``.
        """
        if tech is None or tech is self.tech:
            return 1.0
        g_design = voltage_factor(self.tech.vdd_nominal, self.tech.vth,
                                  self.tech.alpha)
        g_corner = voltage_factor(tech.vdd_nominal, tech.vth, tech.alpha)
        return (tech.drive_constant / self.tech.drive_constant) \
            * (g_corner / g_design)

    def effective_window(self, code: int,
                         tech: Technology | None = None) -> float:
        """The sensing window ``sigma * (D(code) + t0)``, seconds.

        A sensor bit passes iff its inverter delay fits inside this
        window.

        Raises:
            ConfigurationError: for a code outside 0..7.
        """
        if not 0 <= code < len(self.delay_codes):
            raise ConfigurationError(
                f"delay code {code} outside 0..{len(self.delay_codes) - 1}"
            )
        return self.timing_scale(tech) * (self.delay_codes[code] + self.t0)

    def ds_external_load(self, bit: int,
                         tech: Technology | None = None) -> float:
        """External load on the DS node of one bit: trim cap + FF D pin.

        Bits are numbered 1..n_bits, matching the paper's convention
        (bit 1 = smallest capacitance = lowest threshold).
        """
        if not 1 <= bit <= self.n_bits:
            raise ConfigurationError(
                f"bit {bit} outside 1..{self.n_bits}"
            )
        ff = self.sense_flipflop(tech)
        return self.load_caps[bit - 1] + ff.pin("D").cap

    def bit_threshold(self, bit: int, code: int,
                      tech: Technology | None = None, *,
                      window_tech: Technology | None = None) -> float:
        """Analytic failure threshold V* of one bit under one code.

        The supply below which the bit's FF misses its sample: solves
        ``d_inv(V*, C_bit) == effective_window(code)``.

        Args:
            bit: Bit index 1..n_bits.
            code: Delay code 0..7.
            tech: Technology of the *sensor inverter* (corner).
            window_tech: Technology of the window-defining blocks (PG,
                CP route, FF) — defaults to ``tech``.  Passing the
                design technology here while ``tech`` is a corner models
                an externally referenced timing window (PG not tracking
                the corner), which maximizes the corner shift the
                trimming policy must compensate.
        """
        inv = self.sensor_inverter(tech)
        window = self.effective_window(
            code, tech if window_tech is None else window_tech
        )
        load = self.ds_external_load(bit, tech)
        return inv.model.supply_for_delay(window, load, v_hi=3.0)

    def linearized_load_caps(self) -> tuple[float, ...]:
        """Best linear (arithmetic-progression) fit to the trim caps.

        The paper states the array capacitances "increase linearly"; the
        anchor-fitted caps are close to but not exactly linear.  This
        returns the least-squares linear spacing for the ablation that
        quantifies the difference.
        """
        idx = np.arange(self.n_bits, dtype=float)
        caps = np.asarray(self.load_caps)
        slope, intercept = np.polyfit(idx, caps, 1)
        return tuple(float(intercept + slope * i) for i in idx)

    def with_load_caps(self, load_caps: tuple[float, ...]
                       ) -> "SensorDesign":
        """A copy with different trim capacitances (ablations)."""
        return replace(self, load_caps=tuple(load_caps))


def _solve_vth(alpha: float) -> float:
    """Pin vth from the cross-code consistency of the published ranges."""
    lo1, lo2 = paperdata.FIG5_CODE011_RANGE[0], paperdata.FIG5_CODE010_RANGE[0]
    hi1, hi2 = paperdata.FIG5_CODE011_RANGE[1], paperdata.FIG5_CODE010_RANGE[1]

    def mismatch(vth: float) -> float:
        g = functools.partial(voltage_factor, vth=vth, alpha=alpha)
        return g(lo1) / g(lo2) - g(hi1) / g(hi2)

    v_min, v_max = 0.02, min(lo1, hi1) - 0.05
    f_min, f_max = mismatch(v_min), mismatch(v_max)
    if f_min * f_max > 0:
        raise CalibrationError(
            f"cross-code consistency has no vth solution in "
            f"[{v_min}, {v_max}] for alpha={alpha}; "
            f"f({v_min})={f_min:.3e}, f({v_max})={f_max:.3e}"
        )
    return brentq(mismatch, v_min, v_max, xtol=1e-9)


def _solve_t0(tech: Technology) -> float:
    """Pin t0 from the two published code windows for the same bit."""
    g = functools.partial(voltage_factor, vth=tech.vth, alpha=tech.alpha)
    rho = g(paperdata.FIG5_CODE011_RANGE[0]) \
        / g(paperdata.FIG5_CODE010_RANGE[0])
    d_011 = paperdata.DELAY_CODES_S[3]
    d_010 = paperdata.DELAY_CODES_S[2]
    if abs(rho - 1.0) < 1e-12:
        raise CalibrationError("degenerate code ratio; cannot solve t0")
    t0 = (rho * d_010 - d_011) / (1.0 - rho)
    if d_010 + t0 <= 0 or d_011 + t0 <= 0:
        raise CalibrationError(
            f"fitted t0={t0 / PS:.1f} ps leaves a non-positive window"
        )
    return float(t0)


def _solve_sensor_strength(tech: Technology, t0: float,
                           ff_strength: float) -> float:
    """Pin the sensor INV strength from the Fig. 4 anchor point."""
    window = paperdata.DELAY_CODES_S[3] + t0  # Fig. 4 uses code 011
    ff = DFlipFlop(tech, strength=ff_strength)
    external = paperdata.FIG4_ANCHOR_CAP + ff.pin("D").cap

    def mismatch(strength: float) -> float:
        inv = Inverter(tech, strength=strength)
        return inv.model.delay(paperdata.FIG4_ANCHOR_THRESHOLD,
                               external) - window

    s_min, s_max = 1.0, 2000.0
    f_min, f_max = mismatch(s_min), mismatch(s_max)
    if f_min * f_max > 0:
        raise CalibrationError(
            f"no sensor strength in [{s_min}, {s_max}] hits the Fig. 4 "
            f"anchor (f_min={f_min:.3e}, f_max={f_max:.3e})"
        )
    return brentq(mismatch, s_min, s_max, xtol=1e-6)


def _solve_load_caps(tech: Technology, t0: float, sensor_strength: float,
                     ff_strength: float) -> tuple[tuple[float, ...],
                                                  tuple[float, ...]]:
    """Per-bit trim caps from the published code-011 boundaries.

    Bit 4's boundary is unpublished; its cap is the midpoint of bits 3
    and 5 (linear spacing locally, per the paper's linear-cap claim).

    Returns:
        (load_caps, realized_thresholds) — both ascending, length 7.
    """
    window = paperdata.DELAY_CODES_S[3] + t0
    inv = Inverter(tech, strength=sensor_strength)
    ff = DFlipFlop(tech, strength=ff_strength)
    d_pin_cap = ff.pin("D").cap
    model: AlphaPowerModel = inv.model
    g = functools.partial(voltage_factor, vth=tech.vth, alpha=tech.alpha)
    k_eff = tech.drive_constant / sensor_strength

    caps: dict[int, float] = {}
    for bit, v_star in paperdata.FIG5_CODE011_BOUNDARIES.items():
        c_total = window / (k_eff * g(v_star))
        cap = c_total - model.intrinsic_cap - d_pin_cap
        if cap <= 0:
            raise CalibrationError(
                f"bit {bit}: fitted trim cap is non-positive ({cap:.3e} F)"
            )
        caps[bit] = float(cap)
    caps[4] = 0.5 * (caps[3] + caps[5])
    ordered = tuple(caps[b] for b in range(1, paperdata.N_BITS + 1))
    if np.any(np.diff(ordered) <= 0):
        raise CalibrationError("fitted trim caps are not ascending")
    thresholds = tuple(
        model.supply_for_delay(window, c + d_pin_cap, v_hi=3.0)
        for c in ordered
    )
    return ordered, thresholds


def fit_paper_design(*, alpha: float = 1.3,
                     base_tech: Technology = TECH_90NM,
                     ff_strength: float = 1.0) -> SensorDesign:
    """Run the full anchor calibration and return the fitted design.

    Args:
        alpha: Velocity-saturation index to fit at.  The cross-code
            anchors determine only one of (vth, alpha); 1.3 is the
            conventional 90 nm value.
        base_tech: Technology whose drive constant and capacitances are
            retained; vth is replaced by the fitted value.
        ff_strength: Drive strength of the sense flip-flops.

    Raises:
        CalibrationError: when any anchor cannot be satisfied.
    """
    vth = _solve_vth(alpha)
    tech = Technology(
        name=f"{base_tech.name}-calibrated",
        vdd_nominal=base_tech.vdd_nominal,
        vth=vth,
        alpha=alpha,
        drive_constant=base_tech.drive_constant,
        gate_cap_unit=base_tech.gate_cap_unit,
        intrinsic_cap_unit=base_tech.intrinsic_cap_unit,
        slew_fraction=base_tech.slew_fraction,
    )
    t0 = _solve_t0(tech)
    sensor_strength = _solve_sensor_strength(tech, t0, ff_strength)
    load_caps, thresholds = _solve_load_caps(
        tech, t0, sensor_strength, ff_strength
    )
    return SensorDesign(
        tech=tech,
        sensor_strength=sensor_strength,
        ff_strength=ff_strength,
        t0=t0,
        delay_codes=paperdata.DELAY_CODES_S,
        load_caps=load_caps,
        bit_thresholds_code011=thresholds,
    )


@functools.lru_cache(maxsize=4)
def paper_design(alpha: float = 1.3) -> SensorDesign:
    """The cached default fitted design (see :func:`fit_paper_design`)."""
    return fit_paper_design(alpha=alpha)
