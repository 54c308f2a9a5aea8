"""Threshold grids: per-bit failure thresholds without Python loops.

The scalar oracle is :meth:`repro.core.calibration.SensorDesign.
bit_threshold` — one solve of the in-tree Brent solver
(:func:`repro.devices.brent.brentq`, ``==`` to scipy's) per (bit,
code).  These kernels build the same quantities for whole grids:

* :func:`window_grid` — effective sensing windows per code;
* :func:`threshold_grid` — (bits x codes) thresholds for one
  technology pair, the analytic characterization grid of Fig. 5;
* :func:`lot_threshold_grid` — (dies x bits) thresholds for a sampled
  variation lot at one code, the yield-study hot loop.

All three reduce the delay law to a target voltage factor
``G = window / (k_eff * C_total)`` per lane and invert it with
:func:`repro.kernels.delay_law.solve_voltage_factor`; agreement with
the scalar oracle is |kernel - oracle| <= 2e-9 V (the oracle's own
``xtol``), enforced by ``tests/test_kernels.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.devices.mosfet import voltage_factor
from repro.devices.technology import Technology
from repro.errors import ConfigurationError
from repro.kernels.delay_law import solve_voltage_factor, voltage_factor_grid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.calibration import SensorDesign
    from repro.devices.variation import VariationSample


def _codes_array(design: "SensorDesign",
                 codes: Iterable[int] | None) -> np.ndarray:
    n_codes = len(design.delay_codes)
    idx = np.arange(n_codes) if codes is None \
        else np.asarray(list(codes), dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n_codes):
        raise ConfigurationError(
            f"delay code outside 0..{n_codes - 1}: {idx.tolist()}"
        )
    return idx


def _bits_array(design: "SensorDesign",
                bits: Iterable[int] | None) -> np.ndarray:
    idx = np.arange(1, design.n_bits + 1) if bits is None \
        else np.asarray(list(bits), dtype=int)
    if idx.size and (idx.min() < 1 or idx.max() > design.n_bits):
        raise ConfigurationError(
            f"bit outside 1..{design.n_bits}: {idx.tolist()}"
        )
    return idx


def window_grid(design: "SensorDesign",
                codes: Iterable[int] | None = None,
                tech: Technology | None = None) -> np.ndarray:
    """Effective sensing windows ``sigma * (D(c) + t0)`` per code, s.

    The vectorized :meth:`~repro.core.calibration.SensorDesign.
    effective_window`: ``codes=None`` means all codes.
    """
    idx = _codes_array(design, codes)
    skews = np.asarray(design.delay_codes, dtype=float)[idx]
    return design.timing_scale(tech) * (skews + design.t0)


def threshold_grid(design: "SensorDesign",
                   codes: Iterable[int] | None = None,
                   tech: Technology | None = None, *,
                   window_tech: Technology | None = None,
                   bits: Iterable[int] | None = None,
                   v_hi: float = 3.0) -> np.ndarray:
    """Per-bit failure thresholds over a (bits x codes) grid, volts.

    ``out[i, j]`` equals ``design.bit_threshold(bits[i], codes[j],
    tech, window_tech=window_tech)`` to within the oracle tolerance.
    Defaults cover the full array under every code — the analytic
    Fig. 5 characteristic in one solve.

    Args:
        design: Calibrated design.
        codes: Delay codes (column order); None = all codes.
        tech: Sensor-inverter technology (corner); None = design tech.
        window_tech: Technology of the window-defining blocks;
            defaults to ``tech`` (same convention as the scalar path).
        bits: Bit numbers 1..n_bits (row order); None = all bits.
            Batch invariance makes a subset solve bit-identical to
            slicing the full-array solve — :class:`~repro.core.degraded.
            DegradedArray` relies on this.
        v_hi: Upper root bracket, volts.
    """
    bit_idx = _bits_array(design, bits)
    tech_eff = design.tech if tech is None else tech
    windows = window_grid(
        design, codes, tech if window_tech is None else window_tech
    )
    # FF D-pin cap is gate_cap_unit * ff_strength — untouched by corner
    # vth/drive scaling, so one FF build covers every lane.
    d_pin_cap = design.sense_flipflop(tech).pin("D").cap
    loads = np.asarray(design.load_caps, dtype=float)[bit_idx - 1] \
        + d_pin_cap
    c_total = tech_eff.intrinsic_cap_unit * design.sensor_strength + loads
    k_eff = tech_eff.drive_constant / design.sensor_strength
    g_target = windows[None, :] / (k_eff * c_total[:, None])
    return solve_voltage_factor(
        g_target, tech_eff.vth, tech_eff.alpha, v_hi=v_hi
    )


def lot_threshold_grid(design: "SensorDesign",
                       lot: Sequence["VariationSample"],
                       code: int, *, v_hi: float = 3.0
                       ) -> np.ndarray:
    """Per-die, per-bit thresholds over a variation lot: (dies x bits).

    ``out[d, b-1]`` matches the scalar
    :func:`repro.analysis.yield_study.die_characteristic` convention:
    sensor inverter *b* takes die ``d``'s instance-varied technology
    (``technology_for``), the shared window blocks take the die
    technology (``die_technology``).  Variation composition replicates
    :meth:`~repro.devices.technology.Technology.scaled` operation
    order exactly (inner ``die + instance`` sum / ``die * instance``
    product first), so lanes agree with the scalar path to the solver
    tolerance.
    """
    n = design.n_bits
    for i, sample in enumerate(lot):
        if sample.n_instances < n:
            raise ConfigurationError(
                f"lot[{i}] has {sample.n_instances} instances; need {n}"
            )
    tech = design.tech
    die_vth = np.array([s.die_vth_shift for s in lot], dtype=float)
    die_k = np.array([s.die_drive_scale for s in lot], dtype=float)
    inst_vth = np.array([s.instance_vth_shifts[:n] for s in lot],
                        dtype=float)
    inst_k = np.array([s.instance_drive_scales[:n] for s in lot],
                      dtype=float)

    vth_db = tech.vth + (die_vth[:, None] + inst_vth)
    k_db = tech.drive_constant * (die_k[:, None] * inst_k)

    # Window under the die technology: timing_scale(die) * (D(c) + t0).
    vth_d = tech.vth + die_vth
    k_d = tech.drive_constant * die_k
    g_design = voltage_factor(tech.vdd_nominal, tech.vth, tech.alpha)
    g_die = voltage_factor_grid(tech.vdd_nominal, vth_d, tech.alpha)
    scale_d = (k_d / tech.drive_constant) * (g_die / g_design)
    windows = window_grid(design, (code,))  # nominal windows, len 1
    window_d = scale_d * windows[0]

    d_pin_cap = design.sense_flipflop().pin("D").cap
    loads = np.asarray(design.load_caps, dtype=float) + d_pin_cap
    c_total = tech.intrinsic_cap_unit * design.sensor_strength + loads
    k_eff = k_db / design.sensor_strength
    g_target = window_d[:, None] / (k_eff * c_total[None, :])
    return solve_voltage_factor(g_target, vth_db, tech.alpha, v_hi=v_hi)
