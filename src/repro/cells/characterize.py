"""NLDM-style cell characterization.

Real standard-cell flows do not call an analytic delay law at timing
time: they interpolate pre-characterized lookup tables (Liberty NLDM).
This module reproduces that flow — sweep a cell over a (supply, load)
grid, store the delays, interpolate bilinearly — both because the STA
engine consumes tables (mirroring the authors' ref [9] methodology of
folding supply variation into STA) and because table-vs-analytic
agreement is a good property test of the whole timing stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cells.base import Cell
from repro.errors import CharacterizationError, ConfigurationError


@dataclass(frozen=True)
class NLDMTable:
    """A 2-D delay lookup table over (supply voltage, load capacitance).

    Attributes:
        supplies: Strictly increasing supply-voltage axis, volts.
        loads: Strictly increasing load-capacitance axis, farads.
        delays: ``(len(supplies), len(loads))`` delay matrix, seconds.
        cell_name: The characterized cell, for reports.
        arc: ``(input_pin, output_pin)`` of the characterized arc.
    """

    supplies: tuple[float, ...]
    loads: tuple[float, ...]
    delays: tuple[tuple[float, ...], ...]
    cell_name: str = ""
    arc: tuple[str, str] = ("A", "Y")

    def __post_init__(self) -> None:
        sup = np.asarray(self.supplies)
        loa = np.asarray(self.loads)
        if sup.size < 2 or loa.size < 2:
            raise ConfigurationError("axes need at least two points each")
        if not (np.all(np.diff(sup) > 0) and np.all(np.diff(loa) > 0)):
            raise ConfigurationError("axes must be strictly increasing")
        mat = np.asarray(self.delays, dtype=float)
        if mat.shape != (sup.size, loa.size):
            raise ConfigurationError(
                f"delay matrix shape {mat.shape} does not match axes "
                f"({sup.size}, {loa.size})"
            )
        if not np.all(np.isfinite(mat)):
            raise ConfigurationError("delay matrix contains non-finite values")

    def lookup(self, supply_v: float, load_cap: float) -> float:
        """Bilinear interpolation; clamps to the table edges.

        Clamping (rather than extrapolating) matches industrial STA
        behaviour and keeps tails sane.
        """
        sup = np.asarray(self.supplies)
        loa = np.asarray(self.loads)
        mat = np.asarray(self.delays)
        v = float(np.clip(supply_v, sup[0], sup[-1]))
        c = float(np.clip(load_cap, loa[0], loa[-1]))
        i = int(np.clip(np.searchsorted(sup, v) - 1, 0, sup.size - 2))
        j = int(np.clip(np.searchsorted(loa, c) - 1, 0, loa.size - 2))
        v0, v1 = sup[i], sup[i + 1]
        c0, c1 = loa[j], loa[j + 1]
        tv = (v - v0) / (v1 - v0)
        tc = (c - c0) / (c1 - c0)
        d00, d01 = mat[i, j], mat[i, j + 1]
        d10, d11 = mat[i + 1, j], mat[i + 1, j + 1]
        return float(
            d00 * (1 - tv) * (1 - tc)
            + d01 * (1 - tv) * tc
            + d10 * tv * (1 - tc)
            + d11 * tv * tc
        )


def characterize_cell(cell: Cell, *, input_pin: str = "A",
                      output_pin: str = "Y",
                      supplies: list[float] | None = None,
                      loads: list[float] | None = None) -> NLDMTable:
    """Sweep one timing arc of a cell into an :class:`NLDMTable`.

    Args:
        cell: The cell to characterize.
        input_pin: Arc input pin name.
        output_pin: Arc output pin name.
        supplies: Supply axis, volts; defaults to 0.70–1.30 V in 50 mV
            steps around the technology nominal.
        loads: Load axis, farads; defaults to 0–16 unit gate caps.

    Raises:
        CharacterizationError: if any grid point yields a non-finite
            delay (supply at/below device threshold).
    """
    tech = cell.tech
    if supplies is None:
        supplies = [round(0.70 + 0.05 * i, 4) * tech.vdd_nominal
                    for i in range(13)]
    if loads is None:
        unit = cell.model.input_cap
        loads = [k * unit for k in (0, 1, 2, 4, 8, 12, 16)]
        if loads[0] == 0.0:
            loads[0] = 0.0  # explicit zero-load point is meaningful
    matrix: list[tuple[float, ...]] = []
    for v in supplies:
        row = []
        for c in loads:
            d = cell.propagation_delay(input_pin, output_pin, v, c)
            if not np.isfinite(d):
                raise CharacterizationError(
                    f"{cell.name}: non-finite delay at V={v}, C={c} "
                    f"(supply at or below threshold {tech.vth} V?)"
                )
            row.append(d)
        matrix.append(tuple(row))
    return NLDMTable(
        supplies=tuple(float(v) for v in supplies),
        loads=tuple(float(c) for c in loads),
        delays=tuple(matrix),
        cell_name=cell.name,
        arc=(input_pin, output_pin),
    )

