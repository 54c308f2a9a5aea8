"""The in-tree Brent solver against scipy's ``brentq``, bit for bit.

:mod:`repro.devices.brent` ports scipy's C ``brentq`` so that set-up
need not import ``scipy.optimize``.  Every fitted number in the repo
flows through it, so the contract is ``==`` (and equal ``repr``), not
a tolerance: each case below runs both solvers on the same inputs and
compares the returned doubles or the raised error.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
import scipy
from scipy import optimize

from repro.core import calibration
from repro.devices import brent, mosfet
from repro.devices.brent import brentq

XTOLS = (1e-3, 1e-6, 1e-9, 1e-12, 2e-12)
#: scipy's default ``xtol``, for cases about something else.
XTOL = 2e-12

#: The scipy release the NaN and underflow cases were checked on.  Its
#: ``brentq`` raises on a NaN value and tests signs by sign bit, as the
#: port does; an older release may test ``f(a) * f(b)`` and pass NaN on,
#: and the first release with both was not pinned down.
SIGN_BIT_SCIPY = (1, 17)
needs_sign_bit_scipy = pytest.mark.skipif(
    tuple(int(p) for p in scipy.__version__.split(".")[:2]) < SIGN_BIT_SCIPY,
    reason="scipy older than %d.%d may not test signs by sign bit or "
           "raise on NaN" % SIGN_BIT_SCIPY)

FUNCTIONS = {
    "cubic": lambda x: x ** 3 - 2.0 * x - 5.0,
    "exp": lambda x: math.exp(x) - 3.3,
    "sin": math.sin,
    "atan_off_centre": lambda x: math.atan(7.0 * (x - 0.3719)),
    "root_near_zero": lambda x: 1e3 * x + 1e-200,
    # Products of these values underflow: the extrapolation divides by 0.
    "tiny_cubic": lambda x: 1e-200 * (x ** 3 - 2.0 * x - 5.0),
}

#: Brackets per function: each straddles the function's root.
BRACKETS = {
    "cubic": ((-1.0, 4.0), (1.5, 3.0)),
    "exp": ((-5.0, 5.0), (0.0, 2.0)),
    "sin": ((-1.0, 2.0), (2.0, 4.0)),
    "atan_off_centre": ((-10.0, 10.0), (0.2, 5.0)),
    "root_near_zero": ((-1.0, 1.0), (-1e-3, 7.0)),
    "tiny_cubic": ((-1.0, 4.0), (1.5, 3.0)),
}


def outcome(solver, f, a, b, **kwargs):
    """The root's ``repr``, or the error's type and message."""
    try:
        return repr(solver(f, a, b, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def assert_same(f, a, b, xtol=XTOL):
    ours = outcome(brentq, f, a, b, xtol=xtol)
    assert ours == outcome(optimize.brentq, f, a, b, xtol=xtol)
    return ours


def test_fixed_settings_are_scipys_defaults():
    defaults = inspect.signature(optimize.brentq).parameters
    assert brent.RTOL == defaults["rtol"].default
    assert brent.MAXITER == defaults["maxiter"].default


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=needs_sign_bit_scipy) if name == "tiny_cubic"
    else name for name in sorted(FUNCTIONS)])
def test_seeded_brackets_match_scipy(name):
    f = FUNCTIONS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    (lo_a, lo_b), (hi_a, hi_b) = BRACKETS[name]
    n_roots = 0
    for _ in range(60):
        a = float(rng.uniform(lo_a, lo_b))
        b = float(rng.uniform(hi_a, hi_b))
        if rng.random() < 0.5:
            a, b = b, a
        for xtol in XTOLS:
            out = assert_same(f, a, b, xtol=xtol)
            n_roots += isinstance(out, str)
    assert n_roots > 0


def test_slow_bracket_matches_scipy():
    # A triple root: interpolation stalls and bisection does the work.
    def f(x):
        return (x - 1e-7) ** 3 * 1e12

    for a, b in ((-2.3, 0.95), (2.65, -0.41), (-1.0, 1.0)):
        for xtol in XTOLS:
            assert_same(f, a, b, xtol=xtol)


@pytest.mark.parametrize("a,b", [(0.5, 2.0), (-3.0, 0.5)])
def test_root_on_a_bracket_end(a, b):
    def f(x):
        return x - 0.5

    assert assert_same(f, a, b, xtol=1e-9) == "0.5"


def test_negative_zero_value_is_a_root():
    def f(x):
        return -0.0 if x == 0.0 else x - 0.3

    assert assert_same(f, 0.0, 1.0) == "0.0"


def test_same_sign_bracket_raises_value_error():
    out = assert_same(lambda x: x * x + 1.0, -1.0, 1.0)
    assert out[0] == "ValueError"


@needs_sign_bit_scipy
def test_same_sign_bracket_with_underflowing_product_raises():
    # f(a) * f(b) underflows to 0: the sign test must use the sign bits.
    out = assert_same(lambda x: (x + 1.0) * 1e-200, 0.0, 1.0)
    assert out[0] == "ValueError"


@needs_sign_bit_scipy
@pytest.mark.parametrize("nan_band", [(-0.1, 0.1), (0.9, 1.1), (0.45, 0.55)],
                         ids=["at_a", "at_b", "interior"])
def test_nan_value_raises_value_error(nan_band):
    def f(x):
        return math.nan if nan_band[0] < x < nan_band[1] else x - 0.5

    out = assert_same(f, 0.0, 1.0)
    assert out[0] == "ValueError"


def test_iteration_budget_raises_runtime_error(monkeypatch):
    def f(x):
        return (x - 1e-7) ** 3 * 1e12

    monkeypatch.setattr(brent, "MAXITER", 2)
    out = outcome(brentq, f, -2.3, 0.95, xtol=1e-12)
    assert out == outcome(optimize.brentq, f, -2.3, 0.95, xtol=1e-12,
                          maxiter=2)
    assert out[0] == "RuntimeError"


@pytest.mark.parametrize("xtol", [0.0, -1e-9])
def test_bad_xtol_raises_value_error(xtol):
    out = assert_same(math.sin, -1.0, 2.0, xtol=xtol)
    assert out[0] == "ValueError"


def test_numpy_scalar_values_are_taken_as_doubles():
    assert_same(lambda x: np.float64(x) ** 2 - 2.0, 0.0, 2.0, xtol=1e-12)


def test_paper_design_matches_a_scipy_fit(monkeypatch):
    ours = calibration.paper_design()
    monkeypatch.setattr(calibration, "brentq", optimize.brentq)
    monkeypatch.setattr(mosfet, "brentq", optimize.brentq)
    theirs = calibration.fit_paper_design()
    assert repr(ours.tech.vth) == repr(theirs.tech.vth)
    assert repr(ours.sensor_strength) == repr(theirs.sensor_strength)
    assert ours.load_caps == theirs.load_caps
    assert ours.bit_thresholds_code011 == theirs.bit_thresholds_code011
    assert ours == theirs


def test_delay_inversions_match_scipy(design, monkeypatch):
    model = mosfet.AlphaPowerModel(design.tech,
                                   strength=design.sensor_strength)
    rng = np.random.default_rng(2009)
    loads = rng.uniform(1e-12, 3e-12, size=100).tolist()
    supplies = rng.uniform(0.8, 1.2, size=100).tolist()
    targets = [model.delay(v, c) for v, c in zip(supplies, loads)]

    def invert():
        return [repr(model.supply_for_delay(t, c, v_hi=3.0))
                for t, c in zip(targets, loads)]

    ours = invert()
    monkeypatch.setattr(mosfet, "brentq", optimize.brentq)
    assert ours == invert()
