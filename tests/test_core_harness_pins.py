"""Pinned event-driven measures of the single-bit harness and the
fault screen.

Every field of every :class:`BitMeasure` and :class:`ScreenReport`
below is hashed (``float.hex`` for floats, ``repr`` otherwise) and the
SHA-256 is compared with a literal recorded before the single-bit
harness became the array harness on one stage, and before the fault
screen scheduled its stimulus through that shared sequencer.  Any
drift in the netlist build, the stimulus schedule or the sample
collection changes a digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest

from repro.core.faults import FaultInjector, FaultType
from repro.core.sensor import SenseRail, SensorBit, SensorBitHarness
from repro.sim.waveform import StepWaveform
from repro.units import NS

BITS = (1, 4, 7)
CODES = (0, 3, 7)
#: Offsets from each bit's threshold, volts (rail terms).
OFFSETS = (-0.005, 0.0, 0.005)

#: SHA-256 of every measure_once field, per rail.
MEASURE_ONCE_SHA = {
    SenseRail.VDD:
        "ed7599358439f83f4db21bddd0b24eadad1855430335dd1b5f6db6d137f6dad7",
    SenseRail.GND:
        "25b60d08c4c6d31c14439b42ea6522e1d3e7ff5408605ce8e9226e75aded0c9b",
}
#: SHA-256 of the Fig. 3 two-measure sequence.
FIG3_SHA = (
    "252b5e7d9602fdb021db4a3114eb24362f45cebc1bb32792a79d3daa5e91f818")
#: SHA-256 of every screen report field, per rail.
SCREEN_SHA = {
    SenseRail.VDD:
        "4b474d412b6523ef27646ca7f17f468039ea15f06e2c264a9ae10bcda8e6ac5e",
    SenseRail.GND:
        "41ab4ddf6ecefc1fa5473fe272c39e600783b961426ed60b79be367555b7a8f9",
}


def _field_text(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def _digest(records) -> str:
    sha = hashlib.sha256()
    for rec in records:
        for f in fields(rec):
            sha.update(f"{f.name}={_field_text(getattr(rec, f.name))};"
                       .encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _rail_kw(rail: SenseRail, level: float) -> dict[str, float]:
    return {"vdd_n": level} if rail is SenseRail.VDD else {"gnd_n": level}


@pytest.mark.parametrize("rail", list(SenseRail), ids=lambda r: r.value)
def test_measure_once_is_pinned(design, rail):
    measures = []
    for bit in BITS:
        harness = SensorBitHarness(design, bit, rail)
        analytic = SensorBit(design, bit, rail)
        for code in CODES:
            threshold = analytic.threshold(code)
            for offset in OFFSETS:
                measures.append(harness.measure_once(
                    code, **_rail_kw(rail, threshold + offset)))
    assert _digest(measures) == MEASURE_ONCE_SHA[rail]


def test_fig3_sequence_is_pinned(design):
    harness = SensorBitHarness(design, 5)
    measures = harness.run_measures(
        3, [4 * NS, 10 * NS], vdd_n=StepWaveform(1.00, 0.95, 7 * NS))
    assert [m.value for m in measures] == [1, 0]
    assert _digest(measures) == FIG3_SHA


@pytest.mark.parametrize("rail", list(SenseRail), ids=lambda r: r.value)
def test_fault_screen_is_pinned(design, rail):
    if rail is SenseRail.VDD:
        # Known tester levels below and above the ladder: the
        # expected-word check is armed.
        levels = (design.bit_threshold(1, 3) - 0.05,
                  design.bit_threshold(design.n_bits, 3) + 0.05)
    else:
        levels = (0.0, 0.2)
    injector = FaultInjector(design, rail)
    reports = []
    for fault in FaultType:
        for bit in BITS:
            injector.inject(fault, bit)
            for level in levels:
                reference = level if rail is SenseRail.VDD else None
                reports.append(injector.screen(
                    code=3, reference_level=reference,
                    **_rail_kw(rail, level)))
    assert _digest(reports) == SCREEN_SHA[rail]
