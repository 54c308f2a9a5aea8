"""Threshold characterization — the machinery behind Figs. 4 and 5.

Every entry point resolves one measurement driver (a
:class:`~repro.backends.SensorBackend`) and calls only that driver's
sweep ops (:meth:`~repro.backends.SensorBackend.sweep_codes`,
:meth:`~repro.backends.SensorBackend.sweep_caps`).  The two stock
drivers are the paper's two ways to a threshold:

* ``"kernel"`` — invert the calibrated delay law (fast; the default);
* ``"sim"`` — bisect the pass/fail boundary by repeatedly running the
  event-driven harness at constant rail levels (slow; the cross-check
  that the full simulation stack realizes the analytic design).

The test suite asserts the two agree to sub-millivolt precision.

``backend=`` takes a driver instance or a registry spec (``"kernel"``,
``"sim"``, ``"replay:<path>"``, see :mod:`repro.backends`); unset, the
``REPRO_BACKEND`` environment variable decides, falling back to
``"kernel"``.  ``method="analytic"``/``"sim"`` is an alias for the
``"kernel"``/``"sim"`` spec.  A driver instance measures with its own
settings; a sim driver the entry point builds from a spec bisects at
the entry point's ``tol`` and the driver's default bracket margin.

The sim sweep is embarrassingly parallel across (bit, delay code)
pairs and deterministic (bisection, no RNG), so every entry point
takes ``workers=`` (process-pool fan-out, bit-identical to serial),
``cache=`` (on-disk memoization, see :mod:`repro.runtime`) and the
resilience options, which only the sim driver reads.  A NaN threshold
from any driver reports as ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

import numpy as np

from repro.analysis.thermometer import VoltageRange, decode_table
from repro.core.calibration import SensorDesign
from repro.core.sensor import SenseRail
from repro.devices.technology import Technology
from repro.errors import CharacterizationError, ConfigurationError
from repro.runtime import ResultCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends import SensorBackend

Method = Literal["analytic", "sim"]

#: ``method=`` spelling -> the registry spec it names.
_METHOD_SPECS = {"analytic": "kernel", "sim": "sim"}


def _driver(backend: "SensorBackend | str | None",
            method: Method | None, *, tol: float) -> "SensorBackend":
    """The one driver an entry point measures through.  A sim driver
    built here bisects at ``tol`` within
    :data:`repro.backends.sim.DEFAULT_BRACKET_PAD` of the kernel
    threshold."""
    from repro.backends import resolve_backend

    if method is not None:
        if backend is not None:
            raise ConfigurationError(
                "pass either method= or backend=, not both"
            )
        if method not in _METHOD_SPECS:
            raise ConfigurationError(f"unknown method {method!r}")
        backend = _METHOD_SPECS[method]
    return resolve_backend(backend, sim_settings={"tol": tol})


def _masked(values: Sequence[float]) -> tuple[float | None, ...]:
    """NaN (the driver protocol's masked-bit marker) -> ``None``."""
    return tuple(None if math.isnan(v) else float(v) for v in values)


@dataclass(frozen=True)
class ArrayCharacteristic:
    """The full characteristic of one (array, delay code) pair.

    Attributes:
        code: Delay code 0..7.
        thresholds: Per-bit effective-supply thresholds, ascending, V.
            Under ``failure_policy="partial"`` these are the
            *surviving* rungs only (see ``masked_bits``).
        v_min: "All errors" endpoint (supply below which every stage
            fails) — the low end of the paper's Fig. 5 dynamic.
        v_max: "No errors" endpoint.
        table: (word, decoded range) rows from all-fail to all-pass.
        masked_bits: 1-based bits whose characterization failed and
            were excluded from the ladder (empty for a full sweep) —
            the degraded-mode analogue of
            :class:`~repro.core.degraded.DegradedArray` masking.
    """

    code: int
    thresholds: tuple[float, ...]
    v_min: float
    v_max: float
    table: tuple[tuple[str, VoltageRange], ...]
    masked_bits: tuple[int, ...] = ()

    def word_at(self, v: float) -> str:
        """The word the array outputs at an effective supply level."""
        ones = int(np.searchsorted(self.thresholds, v, side="left"))
        n = len(self.thresholds)
        return "".join("1" if i >= n - ones else "0" for i in range(n))


def characterize_bit_thresholds(
        design: SensorDesign, code: int, *,
        rail: SenseRail = SenseRail.VDD,
        tech: Technology | None = None,
        method: Method | None = None,
        backend: "SensorBackend | str | None" = None,
        tol: float = 0.5e-3,
        workers: int | None = None,
        cache: ResultCache | str | None = None,
        retries: int = 0,
        task_timeout: float | None = None,
        failure_policy: str = "raise") -> tuple[float | None, ...]:
    """Per-bit thresholds of an array under one delay code.

    Returns effective-supply thresholds for the VDD rail and rail
    (bounce) thresholds for the GND rail, in bit order 1..N.

    Args:
        design: Calibrated design.
        code: Delay code 0..7.
        rail: Which array to characterize.
        tech: Corner technology.
        method: ``"analytic"`` or ``"sim"``, an alias for the
            ``"kernel"``/``"sim"`` driver spec.
        backend: Measurement driver — an instance or a registry spec
            (see :mod:`repro.backends`), resolved per the module
            docstring.  NaN thresholds report as ``None``.
        tol: Bisection tolerance, volts, of a sim driver built here.
        workers: Process-pool size (<= 1: serial).
        cache: On-disk memoization — a
            :class:`~repro.runtime.ResultCache` or a cache directory;
            ``None`` disables caching.
        retries / task_timeout / failure_policy: Resilience options
            (see :func:`repro.runtime.map_tasks`); under ``"partial"``
            a bit whose bisection kept failing reports ``None``
            instead of aborting the sweep.
    """
    bk = _driver(backend, method, tol=tol)
    (row,) = bk.sweep_codes(
        design, (code,), rail=rail, tech=tech, workers=workers,
        cache=cache, retries=retries, task_timeout=task_timeout,
        failure_policy=failure_policy,
    )
    return _masked(row)


def characterize_array(design: SensorDesign,
                       codes: Sequence[int] = (1, 2, 3), *,
                       tech: Technology | None = None,
                       method: Method | None = None,
                       backend: "SensorBackend | str | None" = None,
                       tol: float = 0.5e-3,
                       workers: int | None = None,
                       cache: ResultCache | str | None = None,
                       retries: int = 0,
                       task_timeout: float | None = None,
                       failure_policy: str = "raise",
                       ) -> dict[int, ArrayCharacteristic]:
    """Fig. 5: the multibit characteristic for several delay codes.

    The whole (bit, code) grid is one driver sweep; the sim driver
    runs it as one flat task batch, so a process pool keeps every
    worker busy across code boundaries.

    Bits without a threshold (a bisection that failed through the
    whole retry budget under ``failure_policy="partial"``, or a NaN
    rung from any driver) are *masked*: the characteristic is built
    from the surviving rungs only (a shorter, still strictly ascending
    ladder — the degraded-mode decode of :mod:`repro.core.degraded`)
    and the dropped bits are listed in
    :attr:`ArrayCharacteristic.masked_bits`.  A code whose every bit
    failed raises :class:`CharacterizationError` even then.

    Driver and sweep options as in :func:`characterize_bit_thresholds`.
    """
    bk = _driver(backend, method, tol=tol)
    rows = bk.sweep_codes(
        design, codes, rail=SenseRail.VDD, tech=tech, workers=workers,
        cache=cache, retries=retries, task_timeout=task_timeout,
        failure_policy=failure_policy,
    )
    out: dict[int, ArrayCharacteristic] = {}
    for code, row in zip(codes, rows):
        raw = _masked(row)
        masked = tuple(b for b, t in enumerate(raw, start=1)
                       if t is None)
        thresholds = tuple(t for t in raw if t is not None)
        if not thresholds:
            raise CharacterizationError(
                f"code {code}: every bit failed characterization"
            )
        table = tuple(decode_table(thresholds))
        out[code] = ArrayCharacteristic(
            code=code,
            thresholds=thresholds,
            v_min=thresholds[0],
            v_max=thresholds[-1],
            table=table,
            masked_bits=masked,
        )
    return out


def threshold_vs_capacitance(
        design: SensorDesign, caps: Sequence[float], *,
        code: int = 3,
        tech: Technology | None = None,
        method: Method | None = None,
        backend: "SensorBackend | str | None" = None,
        tol: float = 0.5e-3,
        workers: int | None = None,
        cache: ResultCache | str | None = None,
        retries: int = 0,
        task_timeout: float | None = None,
        failure_policy: str = "raise"
        ) -> list[tuple[float, float | None]]:
    """Fig. 4: failure threshold as a function of the DS trim cap.

    Args:
        design: Calibrated design.
        caps: Trim capacitances to characterize, farads.
        code: Delay code (the paper's Fig. 4 is consistent with 011).
        tech: Corner technology.
        method / backend / tol: The driver, as in
            :func:`characterize_bit_thresholds`; it measures one
            single-bit probe design per cap.
        workers / cache / retries / task_timeout / failure_policy:
            Sweep options as in :func:`characterize_bit_thresholds`
            (cached per probe cap); under ``"partial"`` a failed probe
            reports ``(cap, None)``.

    Returns:
        ``[(cap, threshold_v), ...]`` in the given cap order.
    """
    if not caps:
        raise ConfigurationError("caps must be non-empty")
    if np.any(np.asarray(caps, dtype=float) <= 0):
        raise ConfigurationError("caps must be positive")
    bk = _driver(backend, method, tol=tol)
    thresholds = bk.sweep_caps(
        design, caps, code=code, tech=tech, workers=workers,
        cache=cache, retries=retries, task_timeout=task_timeout,
        failure_policy=failure_policy,
    )
    return list(zip(caps, _masked(thresholds)))


def linearity_report(points: Sequence[tuple[float, float]]
                     ) -> dict[str, float]:
    """Least-squares linearity of a (x, y) characteristic.

    Returns slope, intercept, the coefficient of determination and the
    maximum absolute residual — the quantitative form of the paper's
    "linear behavior within the VDD-n range of interest" claim.
    """
    if len(points) < 3:
        raise ConfigurationError("need at least 3 points")
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    fit = intercept + slope * x
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": r2,
        "max_residual": float(np.max(np.abs(y - fit))),
    }
