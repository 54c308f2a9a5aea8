"""The ``SensorBackend`` driver protocol.

The paper's INV+FF delay-line thermometer is one measurement
*interface* realized by many possible engines.  This module pins the
interface down so every engine is interchangeable behind it:

* :class:`~repro.backends.kernel.KernelBackend` — the vectorized
  analytic/Monte-Carlo kernel tier (fast; the default);
* :class:`~repro.backends.sim.SimBackend` — the event-driven
  :mod:`repro.sim` engine (slow; the oracle);
* :class:`~repro.backends.replay.ReplayBackend` — re-feeds a recorded
  trace bit-identically (the regression gate);
* :class:`~repro.backends.recording.RecordingBackend` — a decorator
  writing a versioned trace of any driver as it measures.

The driver contract (the one-interface/many-drivers idiom of
data-acquisition test infrastructure):

1. :meth:`~SensorBackend.configure` binds a calibrated design, rail
   and corner; measuring before configuring raises
   :class:`~repro.errors.BackendError`.
2. :meth:`~SensorBackend.measure` / :meth:`~SensorBackend.measure_batch`
   return thermometer words at static rail levels (VDD rail: the level
   is VDD-n; GND rail: the GND-n bounce), bit 1 first.
3. :meth:`~SensorBackend.bit_thresholds` returns per-bit failure
   thresholds in *measured-rail* terms (ascending VDD-n levels for the
   VDD rail; GND-n rise levels for the GND rail), NaN marking a bit
   the driver could not characterize (the degraded-mode mask).
4. :meth:`~SensorBackend.sweep_codes` / :meth:`~SensorBackend.sweep_caps`
   are the Fig. 5 / Fig. 4 sweeps, the only ops the
   :mod:`repro.core.characterization` entry points call.  The defaults
   call :meth:`~SensorBackend.bit_thresholds` once per code or probe;
   the kernel driver solves a cap sweep at once and the sim driver
   runs a sweep as one pool batch, unless a subclass overrides
   :meth:`~SensorBackend.bit_thresholds` (then the defaults run).
5. :meth:`~SensorBackend.capabilities` advertises the optional
   surfaces (:meth:`~SensorBackend.lot_thresholds`,
   :meth:`~SensorBackend.s_curve`); entry points check before calling.
6. :meth:`~SensorBackend.fingerprint` is a stable hash of the driver
   id plus every engine version tag that can change its numbers — it
   is folded into :func:`~repro.runtime.cache.design_fingerprint` (and
   thus every ResultCache key) so artifacts produced by different
   drivers can never collide, and into trace headers so a recording
   names the numerics that produced it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.backends.trace import TRACE_SCHEMA
from repro.errors import BackendError
from repro.runtime.cache import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.calibration import SensorDesign
    from repro.core.sensor import SenseRail
    from repro.devices.technology import Technology
    from repro.devices.variation import VariationSample

#: Version tag of the driver *protocol* itself; folded into every
#: backend fingerprint alongside the trace schema, so a protocol change
#: (new ops, changed semantics) invalidates cross-driver cache keys.
BACKEND_PROTOCOL = "backend/v1"


@dataclass(frozen=True)
class BackendCapabilities:
    """What a driver supports beyond the mandatory word measurement.

    Attributes:
        backend: Registry id of the driver.
        thresholds: :meth:`SensorBackend.bit_thresholds` implemented.
        lot_thresholds: :meth:`SensorBackend.lot_thresholds`
            implemented (mismatch-lot characterization).
        s_curve: :meth:`SensorBackend.s_curve` implemented (stochastic
            trip-probability sweeps).
        deterministic: Same request always returns the same result
            (all shipped drivers; a future hardware driver would say
            False and campaigns would stop asserting bit-identity).
        replay: The driver feeds recorded data rather than computing.
    """

    backend: str
    thresholds: bool = True
    lot_thresholds: bool = False
    s_curve: bool = False
    deterministic: bool = True
    replay: bool = False


@dataclass(frozen=True)
class BackendMeasure:
    """One static-level measurement through a driver.

    Attributes:
        level: Requested rail level, volts (VDD-n or GND-n bounce,
            per the configured rail).
        code: Delay code measured under.
        word: Per-stage pass bits, **bit 1 first** (the
            :class:`~repro.analysis.thermometer.ThermometerWord` bit
            order).
    """

    level: float
    code: int
    word: tuple[int, ...]


class SensorBackend(abc.ABC):
    """Abstract measurement driver (see module docstring).

    Concrete drivers set :attr:`id` (their registry name) and
    implement the engine hooks; the shared machinery here handles
    configuration state, capability gating and fingerprinting.
    """

    #: Registry id; class-level so ``fingerprint()`` works unconfigured.
    id: str = "abstract"

    def __init__(self) -> None:
        self._design: "SensorDesign | None" = None
        self._rail: "SenseRail | None" = None
        self._tech: "Technology | None" = None

    # -- configuration -----------------------------------------------------

    def configure(self, design: "SensorDesign", *,
                  rail: "SenseRail | None" = None,
                  tech: "Technology | None" = None) -> None:
        """Bind a calibrated design (and optionally rail/corner).

        Idempotent; drivers may be reconfigured mid-campaign (e.g. the
        per-cap probe designs of a Fig. 4 sweep).  ``rail=None`` keeps
        the previous rail (initially VDD).
        """
        from repro.core.sensor import SenseRail

        self._design = design
        self._rail = rail if rail is not None else (
            self._rail if self._rail is not None else SenseRail.VDD
        )
        self._tech = tech
        self._configured()

    def _configured(self) -> None:
        """Hook: invalidate driver state after a (re)configure."""

    @property
    def design(self) -> "SensorDesign":
        if self._design is None:
            raise BackendError(
                f"backend {self.id!r} measured before configure()"
            )
        return self._design

    @property
    def rail(self) -> "SenseRail":
        from repro.core.sensor import SenseRail

        return self._rail if self._rail is not None else SenseRail.VDD

    @property
    def tech(self) -> "Technology | None":
        return self._tech

    # -- identity ----------------------------------------------------------

    def engine_version(self) -> tuple[str, ...]:
        """Engine version tags that can change this driver's numbers.

        Concrete drivers extend this (kernel layout, numpy build, sim
        engine generation...); the base contributes the protocol and
        trace schema tags.
        """
        return (BACKEND_PROTOCOL, TRACE_SCHEMA)

    def fingerprint(self) -> str:
        """Stable hash naming this driver + engine generation.

        Folds the registry id and every :meth:`engine_version` tag.
        Folded into :func:`~repro.runtime.cache.design_fingerprint`
        (``backend=`` argument) so ResultCache artifacts from
        different drivers can never collide, and written into trace
        headers.
        """
        return stable_hash(("sensor-backend", self.id)
                           + self.engine_version())

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(backend=self.id)

    # -- mandatory measurement surface -------------------------------------

    def measure(self, level: float, *, code: int) -> BackendMeasure:
        """Thermometer word at one static rail level."""
        words = self.measure_batch([level], code=code)
        return BackendMeasure(
            level=float(level), code=int(code),
            word=tuple(int(b) for b in words[0]),
        )

    @abc.abstractmethod
    def measure_batch(self, levels: Sequence[float] | np.ndarray, *,
                      code: int) -> np.ndarray:
        """Words at many static rail levels.

        Returns:
            ``(n_levels, n_bits)`` uint8 words, bit 1 first.
        """

    # -- optional surfaces (capability-gated) ------------------------------

    def bit_thresholds(self, code: int, *,
                       bits: Iterable[int] | None = None
                       ) -> tuple[float, ...]:
        """Per-bit failure thresholds in measured-rail terms.

        NaN marks a bit the driver failed to characterize (degraded
        mode); callers mask such rungs exactly as
        :func:`~repro.core.characterization.characterize_array` does.
        """
        raise BackendError(
            f"backend {self.id!r} does not characterize thresholds"
        )

    # -- characterization sweeps -------------------------------------------

    def sweep_codes(self, design: "SensorDesign", codes: Sequence[int],
                    *, rail: "SenseRail | None" = None,
                    tech: "Technology | None" = None,
                    **sweep: Any) -> list[tuple[float, ...]]:
        """One :meth:`bit_thresholds` row of ``design`` per delay code.

        ``sweep`` holds the entry points' sweep options (``workers``,
        ``cache``, ``retries``, ``task_timeout``, ``failure_policy``),
        which only a driver that fans a sweep out reads.
        """
        out = []
        for code in codes:
            self.configure(design, rail=rail, tech=tech)
            out.append(tuple(self.bit_thresholds(code)))
        return out

    def sweep_caps(self, design: "SensorDesign", caps: Sequence[float],
                   *, code: int, tech: "Technology | None" = None,
                   **sweep: Any) -> list[float]:
        """VDD-rail bit-1 threshold under ``code`` of the one-stage
        probe ``design.with_load_caps((cap,))`` per trim cap (NaN marks
        a failed probe); ``sweep`` as in :meth:`sweep_codes`."""
        from repro.core.sensor import SenseRail

        out = []
        for cap in caps:
            self.configure(design.with_load_caps((float(cap),)),
                           rail=SenseRail.VDD, tech=tech)
            out.append(self.bit_thresholds(code, bits=(1,))[0])
        return out

    def lot_thresholds(self, lot: Sequence["VariationSample"],
                       code: int) -> np.ndarray:
        """(dies x bits) *effective-supply* thresholds of a mismatch
        lot (the yield-study convention)."""
        raise BackendError(
            f"backend {self.id!r} does not characterize mismatch lots"
        )

    def s_curve(self, bit: int, *, code: int, noise_rms: float,
                n_per_level: int,
                seed: "int | np.random.SeedSequence",
                span_sigmas: float = 4.0, n_levels: int = 15
                ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """One stage's ``(levels, pass_probabilities)`` under rail
        noise (the tester-style S-curve sweep)."""
        raise BackendError(
            f"backend {self.id!r} does not sweep S-curves"
        )
