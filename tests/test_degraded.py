"""Degraded-mode measurement: masked decode, screens, watchdogs.

The paper's deployment story (arrays spread across a die, screened
like scan chains) implies some arrays run with known-bad stages.
These tests pin the degraded path: suspect stages from the production
screen are masked, the thermometer re-decodes at reduced resolution,
and the reported range stays *correct* — it contains the full-array
decode.  The non-termination watchdogs (FSM schedule ticks, simulator
events) are covered here too: a wedged run must raise
``SimulationError``, never hang.
"""

from __future__ import annotations

import pytest

from repro.analysis.thermometer import ThermometerWord
from repro.core.array import SensorArray
from repro.core.control import ControlFSM
from repro.core.degraded import DegradedArray, degraded_from_screen
from repro.core.faults import FaultInjector, FaultType, screen_suspects
from repro.errors import ConfigurationError, SimulationError
from repro.units import NS


# -- DegradedArray construction ----------------------------------------------

def test_masked_bits_validated(design):
    with pytest.raises(ConfigurationError):
        DegradedArray(design, masked_bits=(0,))
    with pytest.raises(ConfigurationError):
        DegradedArray(design, masked_bits=(design.n_bits + 1,))
    with pytest.raises(ConfigurationError):
        DegradedArray(design, masked_bits=range(1, design.n_bits + 1))


def test_masked_bits_deduplicated_and_sorted(design):
    deg = DegradedArray(design, masked_bits=(5, 2, 5))
    assert deg.masked_bits == (2, 5)
    assert deg.n_bits == design.n_bits - 2
    assert deg.surviving_bits == (1, 3, 4, 6, 7)


def test_reduce_word_drops_masked_positions(design):
    deg = DegradedArray(design, masked_bits=(2,))
    word = ThermometerWord((1, 0, 1, 1, 0, 0, 0))
    assert deg.reduce_word(word).bits == (1, 1, 1, 0, 0, 0)
    with pytest.raises(ConfigurationError):
        deg.reduce_word(ThermometerWord((1, 0)))


def test_empty_mask_decodes_identically_to_full_array(design):
    arr = SensorArray(design)
    deg = DegradedArray(design)
    code = 3
    level = 0.95
    word = arr.measure(code, vdd_n=level).word
    full = arr.decode(word, code, strict=False)
    r = deg.decode(word, code)
    assert (r.decoded.lo, r.decoded.hi) == (full.lo, full.hi)
    assert not r.degraded
    assert r.resolution == r.full_resolution == design.n_bits


# -- masked decoding ----------------------------------------------------------

def test_masked_decode_contains_clean_range(design):
    """The degraded range must bracket the full-array decode at every
    level across the dynamic: correct, merely wider."""
    arr = SensorArray(design)
    code = 3
    ladder = arr.supply_thresholds(code)
    deg = DegradedArray(design, masked_bits=(3, 6))
    probes = [0.5 * (a + b) for a, b in zip(ladder, ladder[1:])]
    probes += [ladder[0] - 0.02, ladder[-1] + 0.02]
    for level in probes:
        word = arr.measure(code, vdd_n=level).word
        clean = arr.decode(word, code, strict=False)
        r = deg.decode(word, code)
        assert r.decoded.lo <= clean.lo
        assert r.decoded.hi >= clean.hi
        assert r.decoded.contains(level) or not clean.contains(level)


def test_degraded_decode_reports_resolution_loss(design):
    deg = DegradedArray(design, masked_bits=(4,))
    word = SensorArray(design).measure(3, vdd_n=0.95).word
    r = deg.decode(word, 3)
    assert r.degraded
    assert r.resolution == design.n_bits - 1
    assert r.full_resolution == design.n_bits
    assert r.masked_bits == (4,)
    assert len(r.word) == design.n_bits - 1
    assert r.uncertainty == r.decoded.hi - r.decoded.lo


def test_bubble_caused_by_masked_stage_decodes_cleanly(design):
    """A word invalid only because of the dead stage is fine once the
    stage is dropped."""
    deg = DegradedArray(design, masked_bits=(2,))
    bubbled = ThermometerWord((1, 0, 1, 1, 0, 0, 0))  # stage 2 dead
    assert not bubbled.is_valid_thermometer
    assert deg.reduce_word(bubbled).is_valid_thermometer
    r = deg.decode(bubbled, 3)
    ladder = deg.supply_thresholds(3)
    assert r.decoded.lo == ladder[2]  # three surviving passes


def test_gnd_rail_masked_decode_converts_to_bounce(design):
    from repro.core.sensor import SenseRail

    deg = DegradedArray(design, masked_bits=(1,), rail=SenseRail.GND)
    word = ThermometerWord((1, 1, 1, 0, 0, 0, 0))
    r = deg.decode(word, 3)
    nominal = design.tech.vdd_nominal
    assert 0 <= r.decoded.lo < r.decoded.hi <= nominal


def test_analytic_measure_matches_decode_of_full_word(design):
    arr = SensorArray(design)
    deg = arr.masked((2, 7))
    assert isinstance(deg, DegradedArray)
    level = 0.95
    via_measure = deg.measure(3, vdd_n=level)
    via_decode = deg.decode(arr.measure(3, vdd_n=level).word, 3)
    assert via_measure.word == via_decode.word
    assert via_measure.decoded.lo == via_decode.decoded.lo


@pytest.mark.parametrize("corner", [None, "SS"])
@pytest.mark.parametrize("mask", [(), (2, 4, 6), (1,), (7,)])
def test_masked_ladder_equals_subset_solve(design, mask, corner):
    """Slicing the full array's once-solved ladder must equal solving
    the surviving bits alone (solver batch invariance)."""
    from repro.devices.corners import corner_by_name
    from repro.kernels import threshold_grid

    tech = None if corner is None \
        else corner_by_name(corner).apply(design.tech)
    deg = DegradedArray(design, masked_bits=mask, tech=tech)
    for code in range(8):
        subset = threshold_grid(design, (code,), tech,
                                bits=deg.surviving_bits)[:, 0]
        assert deg.supply_thresholds(code) == tuple(float(v) for v in subset)


def test_repeated_degraded_decodes_solve_each_code_once(design,
                                                        monkeypatch):
    from repro.kernels import ladders

    ladders.clear()
    calls = []
    solve = ladders.threshold_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ladders, "threshold_grid", counted)
    deg = DegradedArray(design, masked_bits=(3,))
    word = ThermometerWord((1, 1, 1, 1, 0, 0, 0))
    first = deg.decode(word, 3)
    for _ in range(20):
        assert deg.decode(word, 3) == first
    assert len(calls) == 1


# -- screening into degraded mode --------------------------------------------

def test_screen_suspects_empty_for_healthy_array(design):
    assert screen_suspects(FaultInjector(design)) == ()


def test_screen_suspects_flags_stuck_stage(design):
    injector = FaultInjector(design)
    injector.inject(FaultType.OUT_STUCK_PASS, 4)
    suspects = screen_suspects(injector)
    assert 4 in suspects
    with pytest.raises(ConfigurationError):
        screen_suspects(injector, margin=0.0)


def test_degraded_from_screen_masks_the_fault(design):
    injector = FaultInjector(design)
    injector.inject(FaultType.OUT_STUCK_FAIL, 2)
    deg = degraded_from_screen(injector)
    assert 2 in deg.masked_bits
    assert deg.n_bits < design.n_bits
    # And the degraded array still measures sensibly.
    r = deg.measure(3, vdd_n=0.95)
    assert r.decoded.contains(0.95)


# -- watchdogs ---------------------------------------------------------------

def test_run_schedule_watchdog_raises_instead_of_hanging():
    fsm = ControlFSM()
    with pytest.raises(SimulationError, match="did not terminate"):
        fsm.run_schedule(3, clock_period=2 * NS, start_time=4 * NS,
                         enable=False, max_ticks=25)


def test_run_schedule_watchdog_validates_and_passes_healthy_runs():
    fsm = ControlFSM()
    with pytest.raises(ConfigurationError):
        fsm.run_schedule(1, clock_period=2 * NS, start_time=4 * NS,
                         max_ticks=0)
    sched = fsm.run_schedule(2, clock_period=2 * NS, start_time=4 * NS,
                             max_ticks=200)
    assert len(sched.sense_times) == 2


def test_system_run_max_events_watchdog(design):
    from repro.core.system import SensorSystem

    system = SensorSystem(design, include_ls=False)
    with pytest.raises(SimulationError, match="max_events"):
        system.run(1, max_events=10)
    # The same system completes under the default budget.
    run = system.run(1, vdd_n=0.95)
    assert len(run.hs) == 1
