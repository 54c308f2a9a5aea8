"""Multi-bit thermometer array tests."""

import pytest

from repro.analysis.thermometer import ThermometerWord
from repro.core.array import SensorArray, SensorArrayHarness
from repro.core.sensor import SenseRail
from repro.devices.variation import VariationModel
from repro.errors import ConfigurationError
from repro.sim.waveform import StepWaveform
from repro.units import NS


@pytest.fixture()
def arr(design):
    return SensorArray(design)


def test_paper_words_code011(arr):
    assert arr.word_for(3, vdd_n=1.00) == "0011111"
    assert arr.word_for(3, vdd_n=0.90) == "0000011"


def test_word_all_pass_above_range(arr):
    assert arr.word_for(3, vdd_n=1.10) == "1111111"


def test_word_all_fail_below_range(arr):
    assert arr.word_for(3, vdd_n=0.80) == "0000000"


def test_words_monotone_in_supply(arr):
    prev_ones = -1
    for v in (0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10):
        ones = arr.measure(3, vdd_n=v).word.ones
        assert ones >= prev_ones
        prev_ones = ones


def test_words_always_valid_thermometer(arr):
    for v in (0.8, 0.87, 0.93, 0.99, 1.02, 1.08):
        assert arr.measure(3, vdd_n=v).word.is_valid_thermometer


def test_measurable_range_code011(arr):
    lo, hi = arr.measurable_range(3)
    assert lo == pytest.approx(0.827, abs=5e-4)
    assert hi == pytest.approx(1.053, abs=5e-4)


def test_measurable_range_code010(arr):
    lo, hi = arr.measurable_range(2)
    assert lo == pytest.approx(0.951, abs=5e-4)
    assert hi == pytest.approx(1.237, abs=5e-4)


def test_decode_brackets_true_supply(arr):
    for v in (0.86, 0.91, 0.97, 1.01, 1.04):
        m = arr.measure(3, vdd_n=v)
        rng = arr.decode(m.word, 3)
        assert rng.contains(v), f"{v} not in ({rng.lo}, {rng.hi})"


def test_decode_fig9_ranges(arr):
    rng1 = arr.decode(ThermometerWord.from_string("0011111"), 3)
    assert (rng1.lo, rng1.hi) == (
        pytest.approx(0.992, abs=5e-4), pytest.approx(1.021, abs=5e-4)
    )
    rng2 = arr.decode(ThermometerWord.from_string("0000011"), 3)
    assert (rng2.lo, rng2.hi) == (
        pytest.approx(0.896, abs=5e-4), pytest.approx(0.929, abs=5e-4)
    )


def test_gnd_array_decode_in_bounce_terms(design):
    arr = SensorArray(design, SenseRail.GND)
    m = arr.measure(3, gnd_n=0.05)
    rng = arr.decode(m.word, 3)
    assert rng.contains(0.05)


def test_gnd_rail_thresholds_descend_with_bit(design):
    arr = SensorArray(design, SenseRail.GND)
    ts = arr.rail_thresholds(3)
    assert all(b < a for a, b in zip(ts, ts[1:]))


# -- event-driven harness ------------------------------------------------------

def test_sim_array_fig9_words(design):
    h = SensorArrayHarness(design)
    wf = StepWaveform(1.0, 0.9, 7 * NS)
    res = h.run_measures(3, [4 * NS, 10 * NS], vdd_n=wf)
    assert res[0].word.to_string() == "0011111"
    assert res[1].word.to_string() == "0000011"


def test_sim_array_matches_analytic_word(design, arr):
    h = SensorArrayHarness(design)
    for v in (0.87, 0.95, 1.02):
        sim_word = h.measure_once(3, vdd_n=v).word.to_string()
        ana_word = arr.word_for(3, vdd_n=v)
        assert sim_word == ana_word, f"at {v} V"


def test_sim_array_gnd_rail(design):
    h = SensorArrayHarness(design, SenseRail.GND)
    m = h.measure_once(3, gnd_n=0.0)
    ana = SensorArray(design, SenseRail.GND).word_for(3, gnd_n=0.0)
    assert m.word.to_string() == ana


def test_sim_array_with_variation_stays_near_nominal(design):
    var = VariationModel().sample_die(design.n_bits, seed=17)
    h = SensorArrayHarness(design, variation=var)
    m = h.measure_once(3, vdd_n=1.0)
    # Mismatch can move a boundary bit but the count stays close.
    assert abs(m.word.ones - 5) <= 1


def test_sim_array_variation_requires_enough_instances(design):
    var = VariationModel().sample_die(3, seed=1)
    with pytest.raises(ConfigurationError):
        SensorArrayHarness(design, variation=var)


def test_sim_array_corner_matches_analytic(design):
    """Regression: at a process corner the harness must apply the
    corner-realized PG skew, so sim and corner-analytic words agree."""
    from repro.devices.corners import corner_by_name

    for name in ("SS", "FF"):
        tech = corner_by_name(name).apply(design.tech)
        h = SensorArrayHarness(design, tech=tech)
        dec = SensorArray(design, tech=tech)
        sim = h.measure_once(3, vdd_n=0.95).word.to_string()
        ana = dec.word_for(3, vdd_n=0.95)
        assert sim == ana, name
        assert dec.decode(
            h.measure_once(3, vdd_n=0.95).word, 3
        ).contains(0.95)


def test_array_measure_reports_bit_details(arr):
    m = arr.measure(3, vdd_n=1.0)
    assert len(m.bit_measures) == 7
    assert [b.passed for b in m.bit_measures] == [
        True, True, True, True, True, False, False
    ]


# -- shared cells and the once-solved ladder ---------------------------------

@pytest.fixture(params=["nominal", "SS"])
def tech_case(request, design):
    from repro.devices.corners import corner_by_name

    if request.param == "nominal":
        return None
    return corner_by_name(request.param).apply(design.tech)


@pytest.mark.parametrize("rail", [SenseRail.VDD, SenseRail.GND])
def test_array_measure_equals_per_bit_measure(design, tech_case, rail):
    """One set of shared cells per array measure must give every bit
    exactly what its own ``SensorBit.measure`` gives, metastable
    outcomes included (levels sit on each rung +-1 uV)."""
    arr = SensorArray(design, rail, tech_case)
    nominal = design.tech.vdd_nominal
    outcomes = set()
    for code in (2, 3, 7):
        for rung in arr.supply_thresholds(code):
            for v in (rung - 1e-6, rung, rung + 1e-6):
                kwargs = ({"vdd_n": v} if rail is SenseRail.VDD
                          else {"gnd_n": nominal - v})
                got = arr.measure(code, **kwargs).bit_measures
                want = tuple(b.measure(code, tech=arr.tech, **kwargs)
                             for b in arr.bits)
                assert got == want
                outcomes.update(m.outcome for m in got)
    assert {"metastable_capture", "metastable_miss",
            "clean_capture", "clean_miss"} <= outcomes


def test_array_measure_rejects_bad_code(arr):
    with pytest.raises(ConfigurationError):
        arr.measure(8, vdd_n=1.0)


@pytest.fixture()
def solve_counter(monkeypatch):
    import repro.kernels

    calls = []
    solve = repro.kernels.threshold_grid

    def counted(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("codes"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(repro.kernels, "threshold_grid", counted)
    return calls


def test_each_code_ladder_solved_once(design, solve_counter):
    import numpy as np

    arr = SensorArray(design)
    for code in (3, 2, 7):
        for v in np.linspace(0.80, 1.25, 50):
            word = arr.measure(code, vdd_n=float(v)).word
            assert arr.decode(word, code).contains(float(v))
        arr.measurable_range(code)
    assert len(solve_counter) == 3
    first = arr.supply_thresholds(3)
    assert arr.supply_thresholds(3) == first
    assert arr.supply_thresholds(3) is first
    assert len(solve_counter) == 3


def test_memoized_ladder_matches_fresh_solve(design, tech_case):
    from repro.kernels import threshold_grid

    arr = SensorArray(design, tech=tech_case)
    for code in range(len(design.delay_codes)):
        fresh = tuple(float(v) for v in
                      threshold_grid(design, (code,), tech_case)[:, 0])
        assert arr.supply_thresholds(code) == fresh
        assert arr.supply_thresholds(code) == fresh


def test_bad_code_is_never_stored(arr, solve_counter):
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            arr.supply_thresholds(8)
    assert len(solve_counter) == 2
