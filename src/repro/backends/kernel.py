"""The analytic + Monte-Carlo kernel driver (fast; the default).

Routes every protocol op to the vectorized kernel tier; thresholds
and mismatch lots are read through the process-wide
:mod:`repro.kernels.ladders` store, which solves each ladder once:

* words — :func:`repro.kernels.montecarlo.word_grid_mc` (bit-identical
  to the scalar :meth:`~repro.core.sensor.SensorBit.measure`);
* thresholds — :func:`repro.kernels.thresholds.threshold_grid`
  (|kernel - scalar Brent oracle| <= 2e-9 V; the oracle is the
  in-tree :func:`repro.devices.brent.brentq`, ``==`` to scipy's);
* trim-cap sweeps — one :func:`repro.kernels.solve_supply_for_delay`
  call over every probe cap;
* mismatch lots — :func:`repro.kernels.thresholds.lot_threshold_grid`;
* S-curves — :func:`repro.kernels.montecarlo.s_curve_trip_probability`
  under the documented seed-threading scheme.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.backends.base import BackendCapabilities, SensorBackend
from repro.core.sensor import SenseRail
from repro.kernels import (
    KERNEL_LAYOUT_VERSION,
    ladders,
    solve_supply_for_delay,
)
from repro.kernels.montecarlo import (
    MC_SEED_SCHEME,
    effective_supply_grid,
    s_curve_trip_probability,
    word_grid_mc,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.calibration import SensorDesign
    from repro.devices.technology import Technology
    from repro.devices.variation import VariationSample


class KernelBackend(SensorBackend):
    """Vectorized analytic/Monte-Carlo measurement driver."""

    id = "kernel"

    def engine_version(self) -> tuple[str, ...]:
        return super().engine_version() \
            + (KERNEL_LAYOUT_VERSION, MC_SEED_SCHEME)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(backend=self.id, thresholds=True,
                                   lot_thresholds=True, s_curve=True)

    def measure_batch(self, levels: Sequence[float] | np.ndarray, *,
                      code: int) -> np.ndarray:
        from repro.backends.trace import level_array

        v = level_array(levels)
        v_eff = effective_supply_grid(
            self.design, v, rail=self.rail.value
        )
        return word_grid_mc(self.design, v_eff, code=code,
                            tech=self.tech)

    def bit_thresholds(self, code: int, *,
                       bits: Iterable[int] | None = None
                       ) -> tuple[float, ...]:
        rungs = ladders.ladder(self.design, code, self.tech, bits=bits)
        if self.rail is SenseRail.VDD:
            return rungs
        vdd = self.design.tech.vdd_nominal
        return tuple(vdd - v for v in rungs)

    def sweep_caps(self, design: "SensorDesign", caps: Sequence[float],
                   *, code: int, tech: "Technology | None" = None,
                   **sweep: Any) -> list[float]:
        """Every probe's threshold from one vectorized delay-law solve."""
        if type(self).bit_thresholds is not KernelBackend.bit_thresholds:
            # A subclass that re-measures thresholds sweeps through them.
            return super().sweep_caps(design, caps, code=code, tech=tech,
                                      **sweep)
        inv = design.sensor_inverter(tech)
        d_pin = design.sense_flipflop(tech).pin("D").cap
        solved = solve_supply_for_delay(
            design.effective_window(code, tech),
            inv.model.intrinsic_cap + (np.asarray(caps, dtype=float)
                                       + d_pin),
            inv.model.tech.drive_constant / inv.model.strength,
            inv.model.tech.vth, inv.model.tech.alpha, v_hi=3.0,
        )
        return [float(v) for v in solved]

    def lot_thresholds(self, lot: Sequence["VariationSample"],
                       code: int) -> np.ndarray:
        return ladders.die_ladders(self.design, lot, code)

    def s_curve(self, bit: int, *, code: int, noise_rms: float,
                n_per_level: int,
                seed: "int | np.random.SeedSequence",
                span_sigmas: float = 4.0, n_levels: int = 15
                ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        levels, probs = s_curve_trip_probability(
            self.design, code=code, noise_rms=noise_rms,
            n_per_level=n_per_level, seeds=[seed],
            span_sigmas=span_sigmas, n_levels=n_levels, bits=[bit],
            tech=self.tech,
        )
        return (tuple(float(v) for v in levels[0]),
                tuple(float(p) for p in probs[0]))
