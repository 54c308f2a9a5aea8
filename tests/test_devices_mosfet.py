"""Alpha-power-law model tests: the physics the whole sensor rides on."""

import math

import numpy as np
import pytest

from repro.devices.mosfet import AlphaPowerModel, voltage_factor
from repro.devices.technology import TECH_90NM
from repro.errors import ConfigurationError
from repro.units import FF


@pytest.fixture()
def model():
    return AlphaPowerModel(TECH_90NM)


def test_voltage_factor_decreasing():
    vs = np.linspace(0.5, 1.5, 50)
    g = voltage_factor(vs, 0.2, 1.3)
    assert np.all(np.diff(g) < 0)


def test_voltage_factor_infinite_at_threshold():
    assert math.isinf(voltage_factor(0.2, 0.2, 1.3))


def test_voltage_factor_infinite_below_threshold():
    assert math.isinf(voltage_factor(0.1, 0.2, 1.3))


def test_voltage_factor_scalar_type():
    assert isinstance(voltage_factor(1.0, 0.2, 1.3), float)


def test_voltage_factor_array_type():
    out = voltage_factor(np.array([0.9, 1.0]), 0.2, 1.3)
    assert isinstance(out, np.ndarray)


def test_delay_monotone_in_supply(model):
    d_hi = model.delay(1.1, 5 * FF)
    d_lo = model.delay(0.9, 5 * FF)
    assert d_lo > d_hi > 0


def test_delay_monotone_in_load(model):
    d_small = model.delay(1.0, 1 * FF)
    d_big = model.delay(1.0, 10 * FF)
    assert d_big > d_small


def test_delay_infinite_below_threshold(model):
    assert math.isinf(model.delay(TECH_90NM.vth / 2, 5 * FF))


def test_delay_rejects_negative_load(model):
    with pytest.raises(ConfigurationError):
        model.delay(1.0, -1 * FF)


def test_delay_slew_degradation(model):
    base = model.delay(1.0, 5 * FF)
    slewed = model.delay(1.0, 5 * FF, input_slew=20e-12)
    assert slewed == pytest.approx(
        base + TECH_90NM.slew_fraction * 20e-12
    )


def test_output_slew_twice_delay(model):
    assert model.output_slew(1.0, 5 * FF) == pytest.approx(
        2 * model.delay(1.0, 5 * FF)
    )


def test_strength_divides_delay():
    m1 = AlphaPowerModel(TECH_90NM, strength=1)
    m4 = AlphaPowerModel(TECH_90NM, strength=4)
    # Strong cell is faster into the same external load.
    assert m4.delay(1.0, 20 * FF) < m1.delay(1.0, 20 * FF)


def test_strength_scales_caps():
    m4 = AlphaPowerModel(TECH_90NM, strength=4)
    assert m4.input_cap == pytest.approx(4 * TECH_90NM.gate_cap_unit)
    assert m4.intrinsic_cap == pytest.approx(
        4 * TECH_90NM.intrinsic_cap_unit
    )


def test_rejects_nonpositive_strength():
    with pytest.raises(ConfigurationError):
        AlphaPowerModel(TECH_90NM, strength=0)


def test_supply_for_delay_inverts_delay(model):
    load = 5 * FF
    target = model.delay(0.95, load)
    v = model.supply_for_delay(target, load)
    assert v == pytest.approx(0.95, abs=1e-6)


def test_supply_for_delay_monotone(model):
    load = 5 * FF
    v_slow = model.supply_for_delay(model.delay(0.85, load), load)
    v_fast = model.supply_for_delay(model.delay(1.05, load), load)
    assert v_slow < v_fast


def test_supply_for_delay_rejects_unreachable_fast(model):
    # Demand a delay faster than the gate can ever achieve in bracket.
    with pytest.raises(ConfigurationError):
        model.supply_for_delay(1e-15, 5 * FF, v_hi=1.2)


def test_supply_for_delay_rejects_nonpositive_target(model):
    with pytest.raises(ConfigurationError):
        model.supply_for_delay(0.0, 5 * FF)


def test_with_strength_returns_new(model):
    m2 = model.with_strength(2)
    assert m2.strength == 2
    assert model.strength == 1


def test_with_tech_rebinds(model):
    t2 = TECH_90NM.scaled(vth_shift=0.04)
    m2 = model.with_tech(t2)
    assert m2.tech.vth == pytest.approx(TECH_90NM.vth + 0.04)


def test_near_linear_over_paper_range(model):
    """The paper's Fig. 4 premise: delay ~ linear in V over 0.9-1.1V."""
    vs = np.linspace(0.9, 1.1, 21)
    ds = np.array([model.delay(v, 2000 * FF) for v in vs])
    slope, intercept = np.polyfit(vs, ds, 1)
    fit = intercept + slope * vs
    max_rel_resid = np.max(np.abs(ds - fit)) / np.mean(ds)
    assert max_rel_resid < 0.01


def test_supply_scale_is_the_voltage_factor_ratio(model):
    nominal = model.voltage_factor(TECH_90NM.vdd_nominal)
    for v in (0.85, 0.95, TECH_90NM.vdd_nominal, 1.1):
        assert model.supply_scale(v) == model.voltage_factor(v) / nominal
    assert math.isinf(model.supply_scale(TECH_90NM.vth))
