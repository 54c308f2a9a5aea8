"""Bit-identity of the one-``g(V)`` array measure.

:meth:`SensorArray.measure` evaluates the supply factor ``g(V)`` once
per measure and multiplies it into each bit's delay coefficient, which
the array builds with itself.  It replaced a per-bit path that called
:meth:`AlphaPowerModel.delay` once per bit.  That path is kept here
verbatim as the oracle, and every :class:`BitMeasure` must match it by
``float.hex``: both rails, the nominal and SS/FF technologies, every
delay code, and rail levels at, between and one ulp either side of
each rung, plus the threshold, the ground and the infinite supply.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.thermometer import ThermometerWord
from repro.core.array import ArrayMeasure, SensorArray
from repro.core.sensor import BitMeasure, SenseRail, _safe_log
from repro.devices import mosfet
from repro.devices.corners import corner_by_name
from repro.errors import ConfigurationError


def oracle_delay(model, supply_v, load_cap, *, input_slew=0.0):
    """``AlphaPowerModel.delay`` before the delay coefficient
    (verbatim)."""
    if load_cap < 0:
        raise ConfigurationError("load_cap must be non-negative")
    g = mosfet.voltage_factor(supply_v, model.tech.vth, model.tech.alpha)
    if g == math.inf:
        return math.inf
    c_total = model.intrinsic_cap + load_cap
    base = (model.tech.drive_constant / model.strength) * c_total * g
    return base + model.tech.slew_fraction * input_slew


def oracle_measure_with(bit, window, inv, ff, *, vdd_n, gnd_n):
    """``SensorBit._measure_with`` and ``_delay_with`` (verbatim)."""
    load = bit.design.load_caps[bit.bit - 1] + ff.pin("D").cap
    d = oracle_delay(inv.model,
                     bit.effective_supply(vdd_n=vdd_n, gnd_n=gnd_n), load)
    margin = window - d
    passed = margin > 0.0
    if abs(margin) < ff.window:
        outcome = ("metastable_capture" if passed
                   else "metastable_miss")
        out_delay = ff.clk_to_q + ff.tau * _safe_log(
            ff.window, abs(margin)
        )
    else:
        outcome = "clean_capture" if passed else "clean_miss"
        out_delay = ff.clk_to_q
    value = bit.rail.pass_value if passed else 1 - bit.rail.pass_value
    return BitMeasure(
        passed=passed,
        value=value,
        outcome=outcome,
        ds_delay=d,
        out_delay=out_delay,
        setup_margin=margin,
    )


def oracle_measure(array, code, *, vdd_n=None, gnd_n=None):
    """The per-bit ``SensorArray.measure`` (verbatim, with the cells
    the array shares built here)."""
    window = array.design.effective_window(code, array.tech)
    inv = array.design.sensor_inverter(array.tech)
    ff = array.design.sense_flipflop(array.tech)
    measures = tuple(
        oracle_measure_with(b, window, inv, ff, vdd_n=vdd_n, gnd_n=gnd_n)
        for b in array.bits
    )
    word = ThermometerWord.from_samples(
        tuple(1 if m.passed else 0 for m in measures)
    )
    return ArrayMeasure(time=0.0, word=word, bit_measures=measures)


def _bits(measure: ArrayMeasure):
    """An array measure as comparable data, floats by ``float.hex``."""
    return (measure.time.hex(), measure.word.to_string(), tuple(
        (m.passed, m.value, m.outcome, float(m.ds_delay).hex(),
         float(m.out_delay).hex(), float(m.setup_margin).hex())
        for m in measure.bit_measures))


def _around(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _rail_levels(array: SensorArray, code: int) -> list:
    """Measured-rail levels: each rung (both the ladder store's and the
    scalar solve's) and one ulp either side, the midpoints between
    rungs, the threshold voltage, 0 V and below, and ``+inf`` supply."""
    nominal = array.design.tech.vdd_nominal
    vth = (array.tech or array.design.tech).vth
    supplies = list(array.supply_thresholds(code))
    if array.rail is SenseRail.VDD:
        rungs = supplies + list(array.rail_thresholds(code))
        edges = [vth, math.nextafter(vth, math.inf),
                 math.nextafter(vth, -math.inf), 0.0, -0.1, math.inf,
                 1, nominal]
    else:
        rungs = ([nominal - v for v in supplies]
                 + list(array.rail_thresholds(code)))
        edges = [nominal - vth, math.nextafter(nominal - vth, math.inf),
                 math.nextafter(nominal - vth, -math.inf), nominal,
                 nominal + 0.1, -math.inf, 0, 0.0]
    rungs = sorted(rungs)
    levels = [level for r in rungs for level in _around(r)]
    levels += [(a + b) / 2.0 for a, b in zip(rungs, rungs[1:])]
    levels += [rungs[0] - 0.05, rungs[-1] + 0.05]
    return levels + edges + [None]


@pytest.mark.parametrize("rail", list(SenseRail), ids=lambda r: r.value)
@pytest.mark.parametrize("corner", ["nominal", "SS", "FF"])
def test_measure_matches_the_per_bit_oracle(design, rail, corner):
    tech = (None if corner == "nominal"
            else corner_by_name(corner).apply(design.tech))
    array = SensorArray(design, rail, tech)
    key = "vdd_n" if rail is SenseRail.VDD else "gnd_n"
    checked = 0
    for code in range(len(design.delay_codes)):
        for level in _rail_levels(array, code):
            kwargs = {} if level is None else {key: level}
            got = array.measure(code, **kwargs)
            want = oracle_measure(array, code, **kwargs)
            assert _bits(got) == _bits(want), (code, level)
            checked += 1
    assert checked > 8 * 7 * 3


def test_bad_code_raises_like_the_oracle(design):
    array = SensorArray(design)
    for code in (-1, len(design.delay_codes)):
        with pytest.raises(ConfigurationError, match="delay code"):
            oracle_measure(array, code, vdd_n=1.0)
        with pytest.raises(ConfigurationError, match="delay code"):
            array.measure(code, vdd_n=1.0)


def test_delay_keeps_its_bits(design):
    """``delay`` is the coefficient times ``g`` plus the slew term, and
    ``delays`` gives each load the bits ``delay`` gives it."""
    model = design.sensor_inverter().model
    loads = [0.0, 1e-15, *design.load_caps]
    coefs = tuple(model.delay_coefficient(c) for c in loads)
    for v in (0.2, 0.5, 0.9, 1.0, 1.1, math.inf, 0.0,
              design.tech.vth, math.nextafter(design.tech.vth, 2.0)):
        for slew in (0.0, 3e-11):
            want = [oracle_delay(model, v, c, input_slew=slew)
                    for c in loads]
            got = [model.delay(v, c, input_slew=slew) for c in loads]
            many = model.delays(v, coefs, input_slew=slew)
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert [x.hex() for x in many] == [x.hex() for x in want]
    with pytest.raises(ConfigurationError, match="non-negative"):
        model.delay(1.0, -1e-15)
    with pytest.raises(ConfigurationError, match="non-negative"):
        model.delay_coefficient(-1e-15)


@pytest.mark.parametrize("corner", ["nominal", "SS"])
def test_one_voltage_factor_per_measure(design, monkeypatch, corner):
    """The array takes ``g(V)`` once per measure, not once per bit.  A
    corner array's first measure at a code also builds that code's
    window, whose timing scale takes two ``g`` of its own."""
    import repro.core.calibration as calibration

    tech = (None if corner == "nominal"
            else corner_by_name(corner).apply(design.tech))
    array = SensorArray(design, tech=tech)
    if tech is not None:
        for code in range(len(design.delay_codes)):
            array.measure(code, vdd_n=1.0)
    calls = []
    real = mosfet.voltage_factor

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(mosfet, "voltage_factor", counting)
    monkeypatch.setattr(calibration, "voltage_factor", counting)
    levels = (0.85, 0.9, 0.95, 1.0, 1.05)
    for code in range(len(design.delay_codes)):
        for v in levels:
            array.measure(code, vdd_n=v)
    assert calls == list(levels) * len(design.delay_codes)
