"""Bit-identity of the alpha-power law's scalar branch and array core.

``repro.devices.mosfet.voltage_factor`` has a scalar branch for Python
floats; it and the array core that
``repro.kernels.delay_law.voltage_factor_grid`` shares must return the
bits, and raise the warnings, of the one-path function they replaced.
That function is kept here verbatim as the oracle.  Every call runs
first under ``warnings.simplefilter("error")``: the new code must
return the oracle's bits and may raise no warning the oracle is silent
about (the ``+inf`` supply, a supply at ``vth``).
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.mosfet import voltage_factor
from repro.kernels import voltage_factor_grid


def oracle_voltage_factor(v, vth, alpha):
    """The delay law as one array path (verbatim, before the scalar
    branch)."""
    v_arr = np.asarray(v, dtype=float)
    headroom = v_arr - vth
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(headroom > 0.0, v_arr / np.power(np.abs(headroom), alpha), np.inf)
    if np.isscalar(v) or v_arr.ndim == 0:
        return float(g)
    return g


#: (vth, alpha) pairs: the default technology's, and alpha at both
#: ends of the physical range.
PAIRS = ((0.18, 1.0), (0.18, 1.3), (0.18, 2.0), (0.2345, 1.3))


def _outcome(fn, *args):
    """``fn(*args)`` as comparable data: its result's type and
    ``float.hex`` bits, and whether it warned.  The call runs under
    ``simplefilter("error")``; only one that warns is repeated with
    warnings ignored, to read its bits."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, warned = fn(*args), False
    except Warning:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out, warned = fn(*args), True
    if isinstance(out, np.ndarray):
        bits = (type(out), out.dtype, out.shape,
                [float(x).hex() for x in out.ravel()])
    else:
        bits = (type(out), float(out).hex())
    return bits, warned


def _check(fn, *args) -> None:
    """Same bits as the oracle, and no warning the oracle is silent
    about.  (The oracle also warns when ``|V - vth|**alpha`` overflows
    for a supply far *below* threshold, since ``np.where`` evaluates
    both branches; the scalar branch returns ``inf`` there without
    computing the power.)"""
    want, oracle_warned = _outcome(oracle_voltage_factor, *args)
    got, warned = _outcome(fn, *args)
    assert got == want, (fn.__name__, args)
    assert oracle_warned or not warned, (fn.__name__, args)


def _edge_supplies(vth: float) -> list[float]:
    return [
        math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
        2.2250738585072014e-308, vth, math.nextafter(vth, math.inf),
        math.nextafter(vth, -math.inf), vth + 1e-12, vth - 1e-12,
        0.5, 0.9, 1.0, 1.1, 2.0, 1e300, -1.0, -1e300,
    ]


def _assert_same(v: float, vth: float, alpha: float) -> None:
    _check(voltage_factor, v, vth, alpha)
    # The same supply as a one-element array: the array branch.
    _check(voltage_factor, np.array([v]), vth, alpha)
    _check(voltage_factor_grid, np.array([v]), vth, alpha)


def test_edge_supplies_match_the_oracle():
    for vth, alpha in PAIRS:
        for v in _edge_supplies(vth):
            _assert_same(v, vth, alpha)


def test_silent_where_the_oracle_is_silent():
    """The ``+inf`` supply is NaN and the threshold is ``inf``, with no
    warning."""
    for vth, alpha in PAIRS:
        assert _outcome(voltage_factor, math.inf, vth, alpha) \
            == ((float, math.nan.hex()), False)
        assert _outcome(voltage_factor, vth, vth, alpha) \
            == ((float, math.inf.hex()), False)


def test_power_underflow_falls_through_to_the_core():
    """A power that underflows to zero divides by zero in the oracle,
    silently; the scalar branch must hand that case to the core."""
    for v, vth, alpha in ((1e-170, 0.0, 2.0), (5e-324, 0.0, 1.3),
                          (1e-300, 0.0, 1.3)):
        assert _outcome(voltage_factor, v, vth, alpha) \
            == ((float, math.inf.hex()), False)
        _assert_same(v, vth, alpha)


def test_power_overflow_warns_like_the_oracle():
    for fn in (oracle_voltage_factor, voltage_factor):
        assert _outcome(fn, 1e300, 0.0, 2.0) == ((float, "0x0.0p+0"), True)
    _assert_same(1e300, 0.0, 2.0)


def test_non_float_inputs_take_the_array_path():
    for vth, alpha in PAIRS:
        for v in (np.float64(1.0), np.float64(vth), np.float32(0.95),
                  1, 0, np.array(1.05), np.array(vth), [0.9, vth, 1.1]):
            _check(voltage_factor, v, vth, alpha)
    # Integer and NumPy parameters with a float supply.
    for vth, alpha in ((0, 2), (np.float64(0.18), np.float64(1.3)),
                       (0.18, 1)):
        for v in _edge_supplies(0.18):
            _assert_same(v, vth, alpha)


def test_dense_supply_sweep_matches_the_oracle():
    """A dense sweep of the paper's supply window, where NumPy's
    ``pow`` and the C library's disagree in the last bit for a few
    percent of supplies."""
    supplies = np.linspace(0.8, 1.2, 4001)
    for vth, alpha in PAIRS:
        want = oracle_voltage_factor(supplies, vth, alpha)
        got_scalar = [voltage_factor(float(v), vth, alpha)
                      for v in supplies]
        assert [g.hex() for g in got_scalar] \
            == [float(g).hex() for g in want]
        assert [float(g).hex() for g in voltage_factor_grid(
            supplies, vth, alpha)] \
            == [float(g).hex() for g in want]


@st.composite
def _cases(draw):
    vth, alpha = draw(st.sampled_from(PAIRS))
    v = draw(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=vth - 1e-9, max_value=vth + 1e-9),
    ))
    return v, vth, alpha


@settings(max_examples=300, deadline=None)
@given(case=_cases())
def test_hypothesis_supplies_match_the_oracle(case):
    _assert_same(*case)
