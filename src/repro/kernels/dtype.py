"""Kernel precision policy: the opt-in float32 fast path.

Every kernel entry point computes in IEEE-754 float64 by default —
that is the precision the scalar oracles use, and the whole
agreement-before-timing story (|kernel - Brent oracle| <= 2e-9 V) is a
float64 statement.  For throughput-bound campaigns (lot solves, MC
draw cubes) the kernels also accept ``dtype=np.float32``: half the
memory traffic, wider SIMD lanes, and a *documented, tested* accuracy
contract instead of a silent one:

* solved thresholds differ from the float64 oracle by at most
  :data:`FLOAT32_THRESHOLD_BOUND_V` (measured headroom is ~20x — see
  ``tests/test_kernels_dtype.py``, which asserts the bound across
  random designs, corners and masked-bit arrays with Hypothesis);
* decoded *words* are bit-identical to the float64 path wherever the
  supply clears every threshold by more than the bound — i.e. float32
  can only flip a comparison that float64 itself resolves by less
  than the documented error.

Selection: the ``dtype=`` keyword wins, then ``$REPRO_KERNEL_DTYPE``
(``float32``/``float64``), then float64.  The resolved dtype is folded
into :func:`repro.runtime.cache.design_fingerprint` via
:func:`dtype_token`, so float32 and float64 artifacts can never share
a cache entry.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigurationError

#: Environment variable selecting the default kernel dtype.
KERNEL_DTYPE_ENV = "REPRO_KERNEL_DTYPE"

#: Documented bound on |float32 threshold - float64 threshold|, volts.
#: The float32 solver converges its per-lane bracket to ~2 float32
#: ulps (~2.4e-7 V near 1 V); the dominant error is the float32
#: rounding of the ``g_target`` reduction, amplified by the local
#: conditioning |dV*/dG| = 1/|g'(V*)| of the delay-law inverse.  The
#: measured worst case across random designs/corners is < 5e-6 V;
#: 1e-4 V keeps ~20x headroom while still being far tighter than any
#: physical noise floor in the paper (mV-scale rail noise).
FLOAT32_THRESHOLD_BOUND_V = 1e-4

#: The two kernel dtypes by name.  :func:`resolve_dtype` returns these
#: instances for the environment default, so a hot caller neither
#: builds a dtype nor reads its ``name``.
_DTYPES = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}


def resolve_dtype(dtype: "np.dtype | type | str | None" = None) -> np.dtype:
    """Normalize a kernel ``dtype=`` argument to a concrete dtype.

    ``None`` falls back to ``$REPRO_KERNEL_DTYPE`` and then float64.
    Only float32 and float64 are meaningful for the delay-law
    arithmetic; anything else raises.
    """
    if dtype is None:
        raw = os.environ.get(KERNEL_DTYPE_ENV, "").strip()
        if not raw:
            return _DTYPES["float64"]
        if raw not in _DTYPES:
            raise ConfigurationError(
                f"${KERNEL_DTYPE_ENV}={raw!r} is not a kernel dtype "
                f"(use 'float32' or 'float64')"
            )
        return _DTYPES[raw]
    try:
        dt = np.dtype(dtype)
    except TypeError:
        raise ConfigurationError(
            f"{dtype!r} is not a kernel dtype "
            f"(use 'float32' or 'float64')"
        ) from None
    if dt.name not in _DTYPES:
        raise ConfigurationError(
            f"kernel dtype must be float32 or float64, got {dt.name!r}"
        )
    return dt


def dtype_token(dtype: "np.dtype | type | str | None" = None) -> str:
    """Cache-key token of the resolved kernel dtype, e.g.
    ``"dtype/float64"``.  Folded into design fingerprints so float32
    and float64 artifacts can never collide in a
    :class:`~repro.runtime.cache.ResultCache`."""
    return f"dtype/{resolve_dtype(dtype).name}"
