"""Threshold characterization — the machinery behind Figs. 4 and 5.

Two extraction methods are offered everywhere:

* ``"analytic"`` — invert the calibrated delay law (fast; the default
  for sweeps);
* ``"sim"`` — bisect the pass/fail boundary by repeatedly running the
  event-driven harness at constant rail levels (slow; the cross-check
  that the full simulation stack realizes the analytic design).

The test suite asserts the two agree to sub-millivolt precision.

The slow ``"sim"`` path is embarrassingly parallel across (bit, delay
code) pairs and deterministic (bisection, no RNG), so every sim-method
entry point takes ``workers=`` (process-pool fan-out, bit-identical to
serial) and ``cache=`` (on-disk memoization keyed by the design
fingerprint + corner + code + brackets + tolerance) — see
:mod:`repro.runtime`.  Both default to the serial, uncached behavior.

Every entry point also takes ``backend=`` — a
:class:`~repro.backends.SensorBackend` instance or registry spec
(``"kernel"``, ``"sim"``, ``"replay:<path>"``); unset, the
``REPRO_BACKEND`` environment variable decides, falling back to the
analytic route.  A resolved :class:`~repro.backends.KernelBackend` /
:class:`~repro.backends.SimBackend` takes the matching classic route
above (so ``workers``/``cache``/``tol`` keep working, with the
backend's fingerprint folded into the cache keys); any other driver —
replay, recording, a registered custom rig — measures through the
generic protocol path, serially.  ``method=`` and ``backend=`` are
mutually exclusive spellings of the same choice.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

import numpy as np

from repro.analysis.thermometer import VoltageRange, decode_table
from repro.core.calibration import SensorDesign
from repro.core.sensor import SenseRail, SensorBitHarness
from repro.devices.technology import Technology
from repro.errors import CharacterizationError, ConfigurationError
from repro.kernels import ladders, solve_supply_for_delay, threshold_grid
from repro.runtime import (
    ResultCache,
    cached_map,
    design_fingerprint,
    resolve_cache,
    stable_hash,
    task_key,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends import SensorBackend

Method = Literal["analytic", "sim"]


def _resolve_route(backend: "SensorBackend | str | None",
                   method: Method | None) -> tuple[
                       Method | None, "SensorBackend | None"]:
    """Map ``(backend=, method=)`` onto an execution route.

    Returns ``(route, driver)``: ``route`` is ``"analytic"``/``"sim"``
    for the classic fast paths (``driver`` carries the resolved
    instance when one was named, for cache-key fingerprinting) or
    ``None`` when ``driver`` must be measured through the generic
    protocol path.
    """
    from repro.backends import (
        BACKEND_ENV,
        KernelBackend,
        SimBackend,
        resolve_backend,
    )

    if method is not None:
        if backend is not None:
            raise ConfigurationError(
                "pass either method= or backend=, not both"
            )
        if method not in ("analytic", "sim"):
            raise ConfigurationError(f"unknown method {method!r}")
        return method, None
    if backend is None and not os.environ.get(BACKEND_ENV):
        return "analytic", None
    bk = resolve_backend(backend)
    # Exact-type matches only: a *subclass* may override measurement
    # behaviour, so it must go through the generic protocol path, not
    # be silently collapsed onto the classic fast path.
    if type(bk) is KernelBackend:
        return "analytic", bk
    if type(bk) is SimBackend:
        return "sim", bk
    return None, bk


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


def _sim_threshold(design: SensorDesign, bit: int, code: int, *,
                   rail: SenseRail, tech: Technology | None,
                   v_lo: float, v_hi: float, tol: float) -> float:
    """Bisect the event-driven pass/fail boundary of one bit."""
    harness = SensorBitHarness(design, bit, rail, tech)

    def passes(level: float) -> bool:
        if rail is SenseRail.VDD:
            return harness.measure_once(code, vdd_n=level).passed
        return harness.measure_once(code, gnd_n=level).passed

    # For the VDD rail, higher supply passes; for GND, lower bounce does.
    hi_passes = passes(v_hi)
    lo_passes = passes(v_lo)
    increasing = rail is SenseRail.VDD
    if increasing and (lo_passes or not hi_passes):
        raise CharacterizationError(
            f"bit {bit}, code {code}: [{v_lo}, {v_hi}] does not bracket "
            f"the threshold (pass at lo={lo_passes}, hi={hi_passes})"
        )
    if not increasing and (hi_passes or not lo_passes):
        raise CharacterizationError(
            f"bit {bit}, code {code}: [{v_lo}, {v_hi}] does not bracket "
            f"the GND threshold"
        )
    lo, hi = v_lo, v_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if passes(mid) == increasing:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _sim_threshold_task(spec: tuple) -> float:
    """Picklable adapter: one bisection from a task payload tuple."""
    design, bit, code, rail, tech, v_lo, v_hi, tol = spec
    return _sim_threshold(design, bit, code, rail=rail, tech=tech,
                          v_lo=v_lo, v_hi=v_hi, tol=tol)


def _solve_sim_thresholds(
        tasks: Sequence[tuple[SensorDesign, int, int, float, float]], *,
        rail: SenseRail,
        tech: Technology | None,
        tol: float,
        workers: int | None,
        cache: ResultCache | str | None,
        retries: int = 0,
        task_timeout: float | None = None,
        failure_policy: str = "raise",
        backend: "SensorBackend | None" = None) -> list[float | None]:
    """Bisect many (design, bit, code, v_lo, v_hi) tasks, in order.

    The shared fan-out/memoization engine behind every sim-method
    sweep: cache lookups happen here in the parent process (so hit and
    miss counters are authoritative), only the misses are dispatched —
    serially or across a process pool — and results return in task
    order, making the parallel path bit-identical to the serial one.

    Resilience: ``retries``/``task_timeout``/``failure_policy`` go
    straight to :func:`repro.runtime.cached_map`.  Under ``"partial"``
    a task that exhausts its budget leaves ``None`` in its slot
    instead of aborting the sweep.

    ``backend`` names the driver the sweep was requested through; its
    fingerprint lands in the design fingerprint of every key, so a
    sweep dispatched via ``backend="sim"`` can never share cache
    entries with one dispatched under a different driver identity.
    """
    store = resolve_cache(cache)
    keys = None
    if store is not None:
        tech_fp = None if tech is None else stable_hash(tech)
        design_fps: dict[int, str] = {}
        keys = []
        for design, bit, code, v_lo, v_hi in tasks:
            fp = design_fps.get(id(design))
            if fp is None:
                fp = design_fps[id(design)] = design_fingerprint(
                    design, backend=backend
                )
            keys.append(task_key("sim-threshold", fp, bit, code, rail,
                                 tech_fp, v_lo, v_hi, tol))
    specs = [
        (design, bit, code, rail, tech, v_lo, v_hi, tol)
        for design, bit, code, v_lo, v_hi in tasks
    ]
    out = cached_map(_sim_threshold_task, specs, keys=keys,
                     cache=store, workers=workers, retries=retries,
                     task_timeout=task_timeout,
                     failure_policy=failure_policy)
    # "partial" returns a MapOutcome; the sweeps only need the
    # positional results (failed slots are None).
    return out.results if failure_policy == "partial" else out


def _sim_bracket(est: float, rail: SenseRail,
                 bracket_pad: float) -> tuple[float, float]:
    """Bisection bracket around one analytic estimate."""
    v_lo = est - bracket_pad
    if rail is SenseRail.GND:
        v_lo = max(v_lo, 0.0)
    return v_lo, est + bracket_pad


def _generic_thresholds(bk: "SensorBackend", design: SensorDesign,
                        code: int, *, rail: SenseRail,
                        tech: Technology | None,
                        bits: Sequence[int] | None = None
                        ) -> tuple[float | None, ...]:
    """Characterize through the generic driver protocol.

    NaN (the protocol's masked-bit marker) maps to ``None`` — the same
    convention the classic routes use under ``failure_policy=
    "partial"``, so downstream masking logic is shared.
    """
    bk.configure(design, rail=rail, tech=tech)
    values = bk.bit_thresholds(code, bits=bits)
    return tuple(None if math.isnan(v) else float(v) for v in values)


def characterize_bit_thresholds(
        design: SensorDesign, code: int, *,
        rail: SenseRail = SenseRail.VDD,
        tech: Technology | None = None,
        method: Method | None = None,
        backend: "SensorBackend | str | None" = None,
        tol: float = 0.5e-3,
        bracket_pad: float = 0.15,
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
        method: ``"analytic"`` or ``"sim"`` (bisected event
            simulation); ``None`` (default) defers to ``backend``.
        backend: Measurement driver — an instance or a registry spec
            (see :mod:`repro.backends`); resolved per the module
            docstring.  Kernel/sim drivers take the matching classic
            route; any other driver measures through the generic
            protocol path (NaN thresholds report as ``None``).
        tol: Bisection tolerance, volts (sim route).
        bracket_pad: Bisection bracket margin around the analytic
            estimate, volts (sim route).
        workers: Process-pool size for the sim route (<= 1: serial).
        cache: On-disk memoization for the sim route — a
            :class:`~repro.runtime.ResultCache` or a cache directory;
            ``None`` disables caching.
        retries / task_timeout / failure_policy: Resilience options
            for the sim route (see :func:`repro.runtime.map_tasks`);
            under ``"partial"`` a bit whose bisection kept failing
            reports ``None`` instead of aborting the sweep.
    """
    route, bk = _resolve_route(backend, method)
    if route is None:
        assert bk is not None
        return _generic_thresholds(bk, design, code, rail=rail,
                                   tech=tech)
    analytic = ladders.ladder(design, code, tech)
    if rail is SenseRail.GND:
        nominal = design.tech.vdd_nominal
        analytic = tuple(nominal - v for v in analytic)
    if route == "analytic":
        return analytic
    tasks = []
    for b, est in zip(range(1, design.n_bits + 1), analytic):
        v_lo, v_hi = _sim_bracket(est, rail, bracket_pad)
        tasks.append((design, b, code, v_lo, v_hi))
    return tuple(_solve_sim_thresholds(
        tasks, rail=rail, tech=tech, tol=tol,
        workers=workers, cache=cache, retries=retries,
        task_timeout=task_timeout, failure_policy=failure_policy,
        backend=bk,
    ))


def characterize_array(design: SensorDesign,
                       codes: Sequence[int] = (1, 2, 3), *,
                       tech: Technology | None = None,
                       method: Method | None = None,
                       backend: "SensorBackend | str | None" = None,
                       tol: float = 0.5e-3,
                       bracket_pad: float = 0.15,
                       workers: int | None = None,
                       cache: ResultCache | str | None = None,
                       retries: int = 0,
                       task_timeout: float | None = None,
                       failure_policy: str = "raise",
                       ) -> dict[int, ArrayCharacteristic]:
    """Fig. 5: the multibit characteristic for several delay codes.

    With the sim method, the (bit, code) grid is characterized as one
    flat task batch, so a process pool keeps every worker busy across
    code boundaries instead of re-synchronizing per code.

    Under ``failure_policy="partial"``, bits whose bisection failed
    through the whole retry budget are *masked*: the characteristic is
    built from the surviving rungs only (a shorter, still strictly
    ascending ladder — the degraded-mode decode of
    :mod:`repro.core.degraded`) and the dropped bits are listed in
    :attr:`ArrayCharacteristic.masked_bits`.  A code whose every bit
    failed raises :class:`CharacterizationError` even then.

    ``backend=`` routes as in :func:`characterize_bit_thresholds`; a
    generic driver (replay, recording, custom) characterizes the codes
    serially through the protocol, NaN rungs masking as above.
    """
    route, bk = _resolve_route(backend, method)
    per_code: dict[int, tuple[float | None, ...]] = {}
    if route is None:
        assert bk is not None
        for code in codes:
            per_code[code] = _generic_thresholds(
                bk, design, code, rail=SenseRail.VDD, tech=tech
            )
    elif route == "sim":
        analytic = {
            code: characterize_bit_thresholds(design, code, tech=tech,
                                              method="analytic")
            for code in codes
        }
        tasks = []
        for code in codes:
            for b, est in zip(range(1, design.n_bits + 1),
                              analytic[code]):
                v_lo, v_hi = _sim_bracket(est, SenseRail.VDD,
                                          bracket_pad)
                tasks.append((design, b, code, v_lo, v_hi))
        flat = _solve_sim_thresholds(
            tasks, rail=SenseRail.VDD, tech=tech, tol=tol,
            workers=workers, cache=cache, retries=retries,
            task_timeout=task_timeout, failure_policy=failure_policy,
            backend=bk,
        )
        for k, code in enumerate(codes):
            start = k * design.n_bits
            per_code[code] = tuple(flat[start:start + design.n_bits])
    else:
        # One (bits x codes) kernel solve for the whole Fig. 5 grid.
        grid = threshold_grid(design, tuple(codes), tech)
        for j, code in enumerate(codes):
            per_code[code] = tuple(float(v) for v in grid[:, j])
    out: dict[int, ArrayCharacteristic] = {}
    for code, raw in per_code.items():
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
        method: ``"analytic"`` or ``"sim"``; ``None`` defers to
            ``backend``.
        backend: Measurement driver (see
            :func:`characterize_bit_thresholds`); a generic driver is
            reconfigured onto each single-bit probe design in turn.
        tol: Sim bisection tolerance, volts.
        workers: Process-pool size for the sim route (<= 1: serial).
        cache: On-disk memoization for the sim route (per probe cap).
        retries / task_timeout / failure_policy: Resilience options
            (see :func:`repro.runtime.map_tasks`); under ``"partial"``
            a failed probe reports ``(cap, None)``.

    Returns:
        ``[(cap, threshold_v), ...]`` in the given cap order.
    """
    if not caps:
        raise ConfigurationError("caps must be non-empty")
    route, bk = _resolve_route(backend, method)
    if route is None:
        assert bk is not None
        caps_arr = np.asarray(caps, dtype=float)
        if np.any(caps_arr <= 0):
            raise ConfigurationError("caps must be positive")
        out: list[tuple[float, float | None]] = []
        for cap in caps:
            probe = design.with_load_caps((float(cap),))
            thr = _generic_thresholds(bk, probe, code,
                                      rail=SenseRail.VDD, tech=tech,
                                      bits=(1,))[0]
            out.append((cap, thr))
        return out
    inv = design.sensor_inverter(tech)
    ff = design.sense_flipflop(tech)
    window = design.effective_window(code, tech)
    d_pin = ff.pin("D").cap
    caps_arr = np.asarray(caps, dtype=float)
    if np.any(caps_arr <= 0):
        raise ConfigurationError("caps must be positive")
    solved = solve_supply_for_delay(
        window, inv.model.intrinsic_cap + (caps_arr + d_pin),
        inv.model.tech.drive_constant / inv.model.strength,
        inv.model.tech.vth, inv.model.tech.alpha, v_hi=3.0,
    )
    analytic = [float(v) for v in solved]
    if route == "analytic":
        return list(zip(caps, analytic))
    # One single-bit probe design per cap: the probe's load_caps land
    # in its fingerprint, so every cap gets its own cache identity.
    tasks = [
        (design.with_load_caps((cap,)), 1, code, est - 0.15, est + 0.15)
        for cap, est in zip(caps, analytic)
    ]
    thresholds = _solve_sim_thresholds(
        tasks, rail=SenseRail.VDD, tech=tech, tol=tol,
        workers=workers, cache=cache, retries=retries,
        task_timeout=task_timeout, failure_policy=failure_policy,
        backend=bk,
    )
    return list(zip(caps, thresholds))


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
