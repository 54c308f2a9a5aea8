"""A reused harness measures at the nominal rail when a call omits it.

Each run binds both noisy rails: an omitted ``vdd_n`` is the ``VDD``
rail's level and an omitted ``gnd_n`` is 0 V, never the previous call's
waveform.  On the paper design a ``VDD-n`` of 0.80 V fails bit 4 while
the nominal rail passes it, so a harness that kept the 0.80 V rail
would read bit 4 as failing.
"""

from __future__ import annotations

import pytest

from repro.core.array import SensorArrayHarness
from repro.core.faults import FaultInjector, FaultType
from repro.core.sensor import SenseRail, SensorBitHarness
from repro.core.system import SensorSystem
from repro.units import NS

#: (rail, the noisy level of the first call): a level that fails bit 4.
LEVELS = [(SenseRail.VDD, {"vdd_n": 0.80}),
          (SenseRail.GND, {"gnd_n": 0.20})]


@pytest.mark.parametrize("rail,noisy", LEVELS, ids=["vdd", "gnd"])
def test_bit_harness(design, rail, noisy):
    h = SensorBitHarness(design, 4, rail)
    assert not h.run_measures(3, [4 * NS], **noisy)[0].passed
    again = h.run_measures(3, [4 * NS])
    assert again == SensorBitHarness(design, 4, rail).run_measures(
        3, [4 * NS])
    assert again[0].passed


@pytest.mark.parametrize("rail,noisy", LEVELS, ids=["vdd", "gnd"])
def test_array_harness(design, rail, noisy):
    h = SensorArrayHarness(design, rail)
    assert not h.run_measures(3, [4 * NS], **noisy)[0].word.bits[3]
    again = h.run_measures(3, [4 * NS])
    assert again == SensorArrayHarness(design, rail).run_measures(
        3, [4 * NS])
    assert again[0].word.bits[3]


@pytest.mark.parametrize("rail,noisy", LEVELS, ids=["vdd", "gnd"])
def test_fault_injector(design, rail, noisy):
    injector = FaultInjector(design, rail)
    injector.inject(FaultType.OUT_STUCK_FAIL, 7)
    first = injector.screen(code=3, **noisy)
    again = injector.screen(code=3)
    fresh = FaultInjector(design, rail)
    fresh.inject(FaultType.OUT_STUCK_FAIL, 7)
    assert again == fresh.screen(code=3)
    assert first.sense_word[3] == "0" and again.sense_word[3] == "1"


def test_system(design):
    system = SensorSystem(design)
    noisy = system.run(1, vdd_n=0.80, gnd_n=0.20)
    assert not noisy.hs[0].word.bits[3] and not noisy.ls[0].word.bits[3]
    again = system.run(1)
    fresh = SensorSystem(design).run(1)
    assert again == fresh
    assert again.hs[0].word.bits[3] and again.ls[0].word.bits[3]
