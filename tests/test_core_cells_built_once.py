"""Sensor cells are built once per owner, not once per call.

``SensorArray`` builds its shared sensor inverter and sense flip-flop
when it is constructed, and each event-driven harness builds its
``PulseGenerator`` when it is constructed.  After that, measuring
builds no cell, and every result equals the result of a freshly
constructed owner.  ``coverage_study`` re-arms one fault injector, so
it builds one array harness per call, and a ``SensorSystem`` builds one
decoding array per chain, however often it runs.
"""

from __future__ import annotations

import pytest

from repro.cells.combinational import Inverter
from repro.cells.sequential import DFlipFlop
from repro.core.array import SensorArray, SensorArrayHarness
from repro.core.faults import FaultInjector, FaultType, coverage_study
from repro.core.pulsegen import PulseGenerator
from repro.core.sensor import SenseRail, SensorBitHarness
from repro.core.system import SensorSystem
from repro.devices.corners import CORNERS
from repro.kernels import ladders
from repro.units import NS

#: (rail, corner name or None for the design technology).
SETUPS = [
    (SenseRail.VDD, None),
    (SenseRail.GND, None),
    (SenseRail.VDD, "SS"),
    (SenseRail.GND, "FF"),
]

#: (code, rail level) per call: VDD-n volts on the VDD rail, GND-n
#: rise on the GND rail.
CALLS = {
    SenseRail.VDD: [(3, 0.93), (0, 1.02), (7, 0.97), (3, 1.0)],
    SenseRail.GND: [(3, 0.04), (0, 0.0), (7, 0.08), (3, 0.02)],
}

#: Two SENSE instants per event-driven run.
TIMES = [4 * NS, 8 * NS]


@pytest.fixture(params=SETUPS, ids=lambda s: f"{s[0].value}-{s[1]}")
def setup(request, design):
    rail, corner = request.param
    tech = None if corner is None else CORNERS[corner].apply(design.tech)
    return rail, tech


@pytest.fixture()
def builds(monkeypatch):
    """Counts of constructed inverters, flip-flops and generators."""
    counts = {cls: 0 for cls in (Inverter, DFlipFlop, PulseGenerator)}
    for cls in counts:
        def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def _level(rail: SenseRail, level: float) -> dict[str, float]:
    return {"vdd_n": level} if rail is SenseRail.VDD else {"gnd_n": level}


def _assert_none_built(builds, owner_calls) -> list:
    before = dict(builds)
    results = [call() for call in owner_calls]
    assert builds == before
    return results


def test_array_measure_builds_no_cells(design, setup, builds):
    rail, tech = setup
    array = SensorArray(design, rail, tech)
    assert builds[Inverter] == 1 and builds[DFlipFlop] == 1
    calls = CALLS[rail]
    got = _assert_none_built(builds, [
        lambda c=c, x=x: array.measure(c, **_level(rail, x))
        for c, x in calls
    ])
    for (code, x), result in zip(calls, got):
        fresh = SensorArray(design, rail, tech)
        assert result == fresh.measure(code, **_level(rail, x))


def test_bit_harness_run_measures_builds_no_cells(design, setup, builds):
    rail, tech = setup
    harness = SensorBitHarness(design, 4, rail, tech)
    assert builds[PulseGenerator] == 1
    calls = CALLS[rail]
    got = _assert_none_built(builds, [
        lambda c=c, x=x: harness.run_measures(c, TIMES, **_level(rail, x))
        for c, x in calls
    ])
    for (code, x), result in zip(calls, got):
        fresh = SensorBitHarness(design, 4, rail, tech)
        assert result == fresh.run_measures(code, TIMES, **_level(rail, x))


def test_array_harness_run_measures_builds_no_cells(design, setup, builds):
    rail, tech = setup
    harness = SensorArrayHarness(design, rail, tech)
    assert builds[PulseGenerator] == 1
    calls = CALLS[rail][:2]
    got = _assert_none_built(builds, [
        lambda c=c, x=x: harness.run_measures(c, TIMES, **_level(rail, x))
        for c, x in calls
    ])
    for (code, x), result in zip(calls, got):
        fresh = SensorArrayHarness(design, rail, tech)
        assert result == fresh.run_measures(code, TIMES, **_level(rail, x))


def test_fault_screen_builds_no_cells(design, setup, builds):
    rail, tech = setup
    fault = (FaultType.OUT_STUCK_FAIL, design.n_bits)
    injector = FaultInjector(design, rail, tech)
    injector.inject(*fault)
    assert builds[PulseGenerator] == 1
    calls = CALLS[rail]
    # The reference check reads thresholds from the process-wide ladder
    # store, whose first solve builds cells of its own: warm it first.
    for code, _ in calls:
        for bit in range(1, design.n_bits + 1):
            ladders.bit_threshold(design, bit, code)

    def screen(owner, code, x):
        # A static VDD-n is a known tester level: arm the word check.
        reference = x if rail is SenseRail.VDD else None
        return owner.screen(code=code, reference_level=reference,
                            **_level(rail, x))

    got = _assert_none_built(builds, [
        lambda c=c, x=x: screen(injector, c, x) for c, x in calls
    ])
    for (code, x), result in zip(calls, got):
        fresh = FaultInjector(design, rail, tech)
        fresh.inject(*fault)
        assert result == screen(fresh, code, x)


def test_coverage_study_builds_one_harness(design, monkeypatch):
    built = []
    init = SensorArrayHarness.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SensorArrayHarness, "__init__", counted)
    assert coverage_study(design) == {
        "out_stuck_pass": 1.0, "out_stuck_fail": 1.0,
        "ds_stuck_prepare": 1.0, "ds_stuck_sense": 1.0, "overall": 1.0,
    }
    assert len(built) == 1


def test_rearmed_injector_screens_like_fresh_ones(design):
    """Re-arming one injector gives every screen a fresh one gives."""
    levels = (design.bit_threshold(1, 3) - 0.05,
              design.bit_threshold(design.n_bits, 3) + 0.05)
    rearmed = FaultInjector(design)
    for fault in FaultType:
        for bit in (1, 4, design.n_bits):
            rearmed.inject(fault, bit)
            fresh = FaultInjector(design)
            fresh.inject(fault, bit)
            for level in levels:
                kwargs = {"code": 3, "vdd_n": level,
                          "reference_level": level}
                assert rearmed.screen(**kwargs) == fresh.screen(**kwargs)


def test_system_runs_build_one_decoder_per_chain(design, builds,
                                                 monkeypatch):
    decoders = []
    init = SensorArray.__init__

    def counted(self, *args, **kwargs):
        decoders.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SensorArray, "__init__", counted)
    # Decoding reads the process-wide ladder store, whose first solve
    # builds cells of its own: warm it first.
    ladders.ladder(design, 3, design.tech)
    system = SensorSystem(design)
    levels = [(0.93, 0.04), (0.97, 0.0)]
    got = [system.run(2, vdd_n=v, gnd_n=g) for v, g in levels]
    assert sorted(d.rail.value for d in decoders) == sorted(
        rail.value for rail in SenseRail)
    # Once each chain has its decoder, a run builds no cell at all.
    _assert_none_built(builds, [lambda: system.run(2, vdd_n=0.95)])
    for (v, g), result in zip(levels, got):
        assert result == SensorSystem(design).run(2, vdd_n=v, gnd_n=g)
