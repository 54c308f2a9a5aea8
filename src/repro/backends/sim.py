"""The event-driven simulation driver (slow; the oracle).

Every word comes from a full PREPARE/SENSE sequence of the
:class:`~repro.core.array.SensorArrayHarness` netlist — gate-level
events, real flip-flop capture, the works.  Thresholds are bisected on
that pass/fail boundary.  Orders of magnitude slower than
:class:`~repro.backends.kernel.KernelBackend` (~3 ms per word, ~10 ms
per threshold), which is exactly why the backend seam exists: campaigns
develop against the kernel driver and cross-check against this one.

Each bisection is bracketed around the kernel driver's threshold.  A
sweep (:meth:`SimBackend.sweep_codes`, :meth:`SimBackend.sweep_caps`)
runs all of its bisections as one
:func:`repro.runtime.resilient.resilient_cached_map` batch: cache
lookups happen in the parent (so hit and miss counters are
authoritative), ``workers=`` fans the misses over a process pool
(results in row order, bit-identical to serial), and each key folds
this driver's fingerprint, and with it ``tol`` and ``bracket_pad``.

Accuracy note: the event engine realizes the analytic design through
discretized gate delays, so its pass/fail boundary sits within a few
microvolts of the kernel threshold (measured ~5e-7 V on the paper
design) — far inside the documented sub-millivolt sim-vs-analytic
agreement, but *not* within the 2e-9 V kernel-vs-oracle bound.  The
parity matrix (``tests/test_backends_parity.py``) encodes both bounds.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.backends.base import BackendCapabilities, SensorBackend
from repro.backends.kernel import KernelBackend
from repro.core.sensor import SenseRail, SensorBitHarness
from repro.errors import CharacterizationError, ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.calibration import SensorDesign
    from repro.devices.technology import Technology

#: Version tag of the event-engine realization this driver wraps.
SIM_ENGINE_VERSION = "sim-engine/v1"

#: Default bisection bracket margin around the kernel threshold, volts.
DEFAULT_BRACKET_PAD = 0.15


def _sim_threshold_task(spec: tuple) -> float:
    """Bisect the event-driven pass/fail boundary of one bit.

    Picklable for the pool: the request is one payload tuple.
    """
    design, bit, code, rail, tech, v_lo, v_hi, tol = spec
    harness = SensorBitHarness(design, bit, rail, tech)
    level_kw = "vdd_n" if rail is SenseRail.VDD else "gnd_n"

    def passes(level: float) -> bool:
        return harness.measure_once(code, **{level_kw: level}).passed

    # For the VDD rail, higher supply passes; for GND, lower bounce does.
    increasing = rail is SenseRail.VDD
    hi_passes, lo_passes = passes(v_hi), passes(v_lo)
    if hi_passes != increasing or lo_passes == increasing:
        raise CharacterizationError(
            f"bit {bit}, code {code}: [{v_lo}, {v_hi}] does not bracket "
            f"the {rail.name} threshold (pass at lo={lo_passes}, "
            f"hi={hi_passes})"
        )
    lo, hi = v_lo, v_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if passes(mid) == increasing:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _masked_threshold_task(spec: tuple) -> float:
    """:func:`_sim_threshold_task` with an unbracketable stage masked
    as NaN (the protocol's degraded-bit marker); any other error
    propagates."""
    try:
        return _sim_threshold_task(spec)
    except CharacterizationError:
        return math.nan


def _sim_bracket(est: float, bracket_pad: float) -> tuple[float, float]:
    """Bisection bracket around one analytic estimate.

    Not clamped: a GND estimate may be a negative bounce (the stage
    already fails at a quiet ground), and the bracket must hold it.
    """
    return est - bracket_pad, est + bracket_pad


class SimBackend(SensorBackend):
    """Event-driven measurement driver.

    Args:
        tol: Threshold bisection tolerance, volts.  Folded into the
            fingerprint — a looser bisection is a different instrument.
        bracket_pad: Bisection bracket margin around the kernel
            driver's threshold, volts (also folded in).
    """

    id = "sim"

    def __init__(self, *, tol: float = 0.5e-3,
                 bracket_pad: float = DEFAULT_BRACKET_PAD) -> None:
        super().__init__()
        if tol <= 0 or bracket_pad <= 0:
            raise ConfigurationError(
                "tol and bracket_pad must be positive"
            )
        self.tol = float(tol)
        self.bracket_pad = float(bracket_pad)
        self._harness = None

    def _configured(self) -> None:
        self._harness = None

    def engine_version(self) -> tuple[str, ...]:
        return super().engine_version() + (
            SIM_ENGINE_VERSION,
            f"tol={self.tol.hex()}",
            f"pad={self.bracket_pad.hex()}",
        )

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(backend=self.id, thresholds=True,
                                   lot_thresholds=False, s_curve=True)

    def _array_harness(self):
        if self._harness is None:
            from repro.core.array import SensorArrayHarness

            self._harness = SensorArrayHarness(self.design, self.rail,
                                               self.tech)
        return self._harness

    def measure_batch(self, levels: Sequence[float] | np.ndarray, *,
                      code: int) -> np.ndarray:
        from repro.backends.trace import level_array

        v = level_array(levels)
        harness = self._array_harness()
        words = np.empty((v.size, self.design.n_bits), dtype=np.uint8)
        for i, level in enumerate(v):
            kwargs = {"vdd_n": float(level)} \
                if self.rail is SenseRail.VDD else {"gnd_n": float(level)}
            measure = harness.measure_once(code, **kwargs)
            words[i] = measure.word.bits
        return words

    def bit_thresholds(self, code: int, *,
                       bits: Iterable[int] | None = None
                       ) -> tuple[float, ...]:
        return tuple(self._bisect(self._rows(code, bits),
                                  task=_masked_threshold_task))

    def sweep_codes(self, design: "SensorDesign", codes: Sequence[int],
                    *, rail: SenseRail | None = None,
                    tech: "Technology | None" = None,
                    **sweep: Any) -> list[tuple[float, ...]]:
        """Every (code, bit) bisection of the sweep as one task batch,
        so a process pool keeps every worker busy across codes."""
        if type(self).bit_thresholds is not SimBackend.bit_thresholds:
            return super().sweep_codes(design, codes, rail=rail,
                                       tech=tech, **sweep)
        self.configure(design, rail=rail, tech=tech)
        flat = self._bisect([row for code in codes
                             for row in self._rows(code)], **sweep)
        n = design.n_bits
        return [tuple(flat[k * n:(k + 1) * n])
                for k in range(len(codes))]

    def sweep_caps(self, design: "SensorDesign", caps: Sequence[float],
                   *, code: int, tech: "Technology | None" = None,
                   **sweep: Any) -> list[float]:
        """One bisection per single-stage probe design, one batch.

        Each probe's ``load_caps`` land in its fingerprint, so every
        cap gets its own cache identity.
        """
        if type(self).bit_thresholds is not SimBackend.bit_thresholds:
            return super().sweep_caps(design, caps, code=code, tech=tech,
                                      **sweep)
        self.configure(design, rail=SenseRail.VDD, tech=tech)
        estimates = KernelBackend().sweep_caps(design, caps, code=code,
                                               tech=tech)
        return self._bisect([
            (design.with_load_caps((float(cap),)), 1, code, est)
            for cap, est in zip(caps, estimates)
        ], **sweep)

    def _rows(self, code: int, bits: Iterable[int] | None = None
              ) -> list[tuple["SensorDesign", int, int, float]]:
        """``(design, bit, code, estimate)`` bisection rows of one code,
        each centred on the kernel driver's threshold."""
        kernel = KernelBackend()
        kernel.configure(self.design, rail=self.rail, tech=self.tech)
        sel = range(1, self.design.n_bits + 1) if bits is None \
            else [int(b) for b in bits]
        return [(self.design, b, code, est) for b, est in
                zip(sel, kernel.bit_thresholds(code, bits=sel))]

    def _bisect(self, rows: Sequence[tuple["SensorDesign", int, int,
                                           float]], *,
                task: Any = None,
                workers: int | None = None,
                cache: Any = None,
                retries: int = 0,
                task_timeout: float | None = None,
                failure_policy: str = "raise") -> list[float]:
        """Bisect ``(design, bit, code, estimate)`` rows as one
        batch, in row order (see the module docstring).

        Under ``failure_policy="partial"`` a row that exhausts its
        retry budget reports NaN instead of aborting the sweep.
        ``task`` replaces :func:`_sim_threshold_task` for an uncached
        batch (the cache keys name that task's result).
        """
        from repro.runtime.cache import (
            design_fingerprint,
            resolve_cache,
            stable_hash,
            task_key,
        )
        from repro.runtime.resilient import resilient_cached_map

        rail, tech, tol = self.rail, self.tech, self.tol
        store = resolve_cache(cache)
        tech_fp = None if tech is None else stable_hash(tech)
        design_fps: dict[int, str] = {}
        specs, keys = [], []
        for design, bit, code, est in rows:
            v_lo, v_hi = _sim_bracket(float(est), self.bracket_pad)
            specs.append((design, bit, code, rail, tech, v_lo, v_hi, tol))
            if store is not None:
                fp = design_fps.get(id(design))
                if fp is None:
                    fp = design_fps[id(design)] = design_fingerprint(
                        design, backend=self)
                keys.append(task_key("sim-threshold", fp, bit, code,
                                     rail, tech_fp, v_lo, v_hi, tol))
        outcome = resilient_cached_map(
            task or _sim_threshold_task, specs, keys=keys or None,
            cache=store, workers=workers, retries=retries,
            task_timeout=task_timeout, failure_policy=failure_policy,
        )
        return [math.nan if t is None else t for t in outcome.results]

    def s_curve(self, bit: int, *, code: int, noise_rms: float,
                n_per_level: int,
                seed: "int | np.random.SeedSequence",
                span_sigmas: float = 4.0, n_levels: int = 15
                ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per-draw event simulation — the true stochastic oracle.

        Draws the same Gaussian cube as the kernel sweep (same
        generator, same fill order) but answers each draw with a full
        PREPARE/SENSE event run, so probabilities can differ from the
        kernel's only for draws landing inside the few-microvolt
        engine-boundary band.  Costs ``n_levels * n_per_level`` event
        sims (~1.5 ms each) — keep the cube small.

        Sweeps the VDD-n axis regardless of the configured rail — the
        :func:`~repro.analysis.repeatability.measure_s_curve`
        convention every driver follows.
        """
        from repro.kernels.montecarlo import s_curve_levels

        if noise_rms <= 0:
            raise ConfigurationError(
                "noise_rms must be positive (an S-curve needs noise)"
            )
        if n_levels < 5 or n_per_level < 10:
            raise ConfigurationError(
                "need >= 5 levels and >= 10 measures"
            )
        levels = s_curve_levels(
            self.design, code=code, noise_rms=noise_rms,
            span_sigmas=span_sigmas, n_levels=n_levels, bits=[bit],
        )[0]
        harness = SensorBitHarness(self.design, bit, SenseRail.VDD,
                                   self.tech)
        rng = np.random.default_rng(seed)
        probs = []
        for level in levels:
            draws = level + rng.normal(0.0, noise_rms,
                                       size=n_per_level)
            passes = sum(
                1 for v in draws
                if harness.measure_once(code, vdd_n=float(v)).passed
            )
            probs.append(passes / n_per_level)
        return (tuple(float(v) for v in levels), tuple(probs))
