"""Scalar Brent root-finder, a step-for-step port of scipy's ``brentq``.

Calibration and the scalar threshold oracle invert smooth monotone
scalar functions (delay vs. supply, cross-code mismatch vs. ``vth``).
scipy's :func:`scipy.optimize.brentq` does that well, but importing
``scipy.optimize`` loads ``scipy.linalg``, ``scipy.special`` and more,
which is most of a short ``repro`` process's start-up.  This module
ports the C routine behind it (``scipy/optimize/Zeros/brentq.c``) line
by line: the same bracket swaps, the same interpolate / extrapolate /
bisect choices, the same float operations in the same order and the
same ``delta`` minimum step.  Python floats are IEEE doubles with the
C operators' rounding, so the port returns the very double scipy does;
``tests/test_devices_brent.py`` checks that with ``==`` against scipy.

Error behaviour matches scipy's wrapper (with its default
``disp=True``): :class:`ValueError` for ``xtol <= 0``, same-sign
brackets or a NaN function value, :class:`RuntimeError` when the
iteration budget runs out.  ``rtol`` and ``maxiter`` are fixed at
scipy's defaults, :data:`RTOL` and :data:`MAXITER`.

The oracle is the scipy the tests run against.  The NaN error and the
sign-bit bracket test are what scipy 1.17.1's ``brentq`` does; the
tests compare those cases with scipy only from that release on, since
the first release with both was not pinned down.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

#: scipy's default and minimum relative tolerance, ``4 * eps``.
RTOL = 4 * sys.float_info.epsilon
#: scipy's default iteration budget.
MAXITER = 100


def _call(f: Callable[[float], float], x: float) -> float:
    """``f(x)`` as a C double; a NaN value is an error, as in scipy."""
    fx = float(f(x))
    if fx != fx:
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue."
        )
    return fx


def brentq(f: Callable[[float], float], a: float, b: float, *,
           xtol: float) -> float:
    """Find a root of ``f`` in the sign-changing bracket ``[a, b]``.

    Args:
        f: Scalar function; its value is taken as ``float(f(x))``.
        a, b: Bracket ends; ``f(a)`` and ``f(b)`` must differ in sign.
        xtol: The root is returned once the bracket half-width is below
            ``(xtol + RTOL * |x|) / 2``; ``xtol > 0``, as scipy requires.

    Returns:
        The same double :func:`scipy.optimize.brentq` returns.

    Raises:
        ValueError: ``xtol <= 0``, ``f(a)`` and ``f(b)`` of one sign,
            or ``f`` returned NaN.
        RuntimeError: no convergence within :data:`MAXITER` iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xtol = float(xtol)
    fabs, copysign = math.fabs, math.copysign

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _call(f, xpre)
    fcur = _call(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if copysign(1.0, fpre) == copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and \
                copysign(1.0, fpre) != copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if fabs(fblk) < fabs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + RTOL * fabs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or fabs(sbis) < delta:
            return xcur

        if fabs(spre) > delta and fabs(fcur) < fabs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gets +-inf or NaN here; either fails the test below.
                stry = math.inf
            if 2 * fabs(stry) < min(fabs(spre), 3 * fabs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if fabs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = _call(f, xcur)

    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
