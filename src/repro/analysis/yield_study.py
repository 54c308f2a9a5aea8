"""Monte-Carlo yield analysis of the thermometer under mismatch.

The paper's array argument assumes "INV-i and FF-i are identical";
real silicon adds per-instance mismatch on top of the die corner, which
can swap adjacent thresholds and produce bubbled output words — the
failure mode the encoder's ones-counting bubble suppression exists for.
This module quantifies it: sample a lot of dies from a
:class:`~repro.devices.variation.VariationModel`, derive each die's
per-bit thresholds (sensor inverters take the per-instance technology;
the shared window blocks take the die technology), and report threshold
spread, monotonicity violations, bubble rates and decode accuracy.

Dies are independent, every die's randomness comes from its
:class:`~repro.devices.variation.VariationSample` (seeded at lot
creation, never from scheduling), and the lot threshold solve is batch
invariant, so :func:`run_yield_study` scores contiguous chunks of dies
(``workers=``, one chunk per worker) with per-die memoization
(``cache=``) and returns the same report for every setting — see
:mod:`repro.runtime`.  Both default to serial, uncached behavior.
Every chunk is solved by the measurement driver's ``lot_thresholds``
op (:mod:`repro.backends`), the kernel driver unless one is named.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.analysis.thermometer import ThermometerWord, decode_word
from repro.devices.variation import VariationModel, VariationSample
from repro.errors import ConfigurationError
from repro.kernels import ladders, score_lot_grids
from repro.runtime import (
    ResultCache,
    design_fingerprint,
    resilient_map,
    resolve_cache,
    resolve_workers,
    task_keys,
)
from repro.runtime.resilient import FAILURE_POLICIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.calibration import SensorDesign


@dataclass(frozen=True)
class DieCharacteristic:
    """One sampled die's array characteristic.

    Attributes:
        thresholds: Per-bit failure thresholds in bit order (NOT
            sorted), volts.
        monotone: True when the physical bit order is already the
            threshold order (no possible bubbles).
    """

    thresholds: tuple[float, ...]

    @property
    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.thresholds) > 0))

    def word_at(self, v: float) -> ThermometerWord:
        """The raw output word at a static supply (bubbles possible)."""
        return ThermometerWord(
            tuple(1 if v > t else 0 for t in self.thresholds)
        )

    def decode_at(self, v: float):
        """Bubble-corrected decode against the *sorted* ladder."""
        ladder = tuple(sorted(self.thresholds))
        return decode_word(self.word_at(v), ladder, strict=False)


@dataclass(frozen=True)
class YieldReport:
    """Lot-level statistics.

    Attributes:
        n_dies: Dies sampled.
        threshold_sigma: Per-bit threshold standard deviation across
            the lot, volts (bit order).
        monotone_fraction: Fraction of dies whose ladder needs no
            bubble correction at any supply.
        bubble_rate: Fraction of (die, supply) evaluations whose raw
            word was bubbled.
        bracket_rate: Fraction of (die, supply) evaluations whose
            bubble-corrected decode bracketed the true supply using the
            *nominal* (design) ladder — i.e. without per-die
            recalibration.
        bracket_rate_calibrated: Same, decoding against each die's own
            characterized ladder — the upper bound a per-die
            calibration ("careful characterization of the sensor",
            §III-A) recovers.
        mean_abs_error: Mean |decode midpoint - truth| with the nominal
            ladder, volts.
    """

    n_dies: int
    threshold_sigma: tuple[float, ...]
    monotone_fraction: float
    bubble_rate: float
    bracket_rate: float
    bracket_rate_calibrated: float
    mean_abs_error: float


def die_characteristic(design: "SensorDesign", sample: VariationSample, *,
                       code: int = 3) -> DieCharacteristic:
    """Per-bit thresholds of one sampled die.

    Sensor inverter *i* takes the instance-varied technology; the
    shared window (PG + route + FF) takes the die technology.
    """
    if sample.n_instances < design.n_bits:
        raise ConfigurationError(
            f"sample has {sample.n_instances} instances; need "
            f"{design.n_bits}"
        )
    die_tech = sample.die_technology(design.tech)
    thresholds = tuple(
        design.bit_threshold(
            b, code,
            sample.technology_for(design.tech, b - 1),
            window_tech=die_tech,
        )
        for b in range(1, design.n_bits + 1)
    )
    return DieCharacteristic(thresholds=thresholds)


@dataclass(frozen=True)
class _DieScore:
    """One die's contribution to the lot reduction (cache payload)."""

    thresholds: tuple[float, ...]
    monotone: bool
    bubbled: int
    bracketed: int
    bracketed_cal: int
    errors: tuple[float, ...]


def _scores_from_lot_grid(lot_grid: np.ndarray,
                          supply_grid: tuple[float, ...],
                          nominal_ladder: tuple[float, ...]
                          ) -> list["_DieScore"]:
    """Fused lot scoring: one vectorized reduction across all dies.

    :func:`repro.kernels.score_lot_grids` scores every row of
    ``lot_grid`` independently (no per-die word/diff grids), so a
    chunk of dies scores exactly as the same rows of the whole lot —
    ``tests/test_kernels_fused.py`` holds it to the per-die scalar
    oracle.
    """
    g = score_lot_grids(np.asarray(lot_grid, dtype=float),
                        np.asarray(supply_grid, dtype=float),
                        np.asarray(nominal_ladder, dtype=float))
    scores: list[_DieScore] = []
    for i in range(len(lot_grid)):
        errs = g["abs_errors"][i][g["bounded"][i]]
        scores.append(_DieScore(
            thresholds=tuple(float(t) for t in lot_grid[i]),
            monotone=bool(g["monotone"][i]),
            bubbled=int(g["bubbled"][i]),
            bracketed=int(g["bracketed"][i]),
            bracketed_cal=int(g["bracketed_cal"][i]),
            errors=tuple(float(e) for e in errs),
        ))
    return scores


def _score_chunk(spec: tuple) -> list[_DieScore]:
    """Map task: solve one chunk of dies through the configured
    driver's ``lot_thresholds`` op and score it."""
    bk, samples, code, supply_grid, nominal_ladder = spec
    return _scores_from_lot_grid(
        bk.lot_thresholds(samples, code), supply_grid, nominal_ladder,
    )


def run_yield_study(design: "SensorDesign",
                    variation: VariationModel, *,
                    n_dies: int = 100,
                    code: int = 3,
                    supplies: np.ndarray | None = None,
                    seed: int = 2024,
                    backend: "object | str | None" = None,
                    workers: int | None = None,
                    cache: "ResultCache | str | None" = None,
                    retries: int = 0,
                    task_timeout: float | None = None,
                    failure_policy: str = "raise"
                    ) -> YieldReport:
    """Sample a lot and score the array under mismatch.

    Each die's randomness is fixed by its
    :class:`~repro.devices.variation.VariationSample` (derived from
    ``seed`` at lot creation), and the threshold solve is batch
    invariant, so a die scores the same in any chunk: every
    ``workers`` / ``cache`` combination returns the same report.

    Args:
        design: Calibrated design.
        variation: Mismatch model to sample from.
        n_dies: Lot size.
        code: Delay code under study.
        supplies: Evaluation supply grid, volts; defaults to 17 points
            across the code's nominal range.
        seed: Lot seed (deterministic studies).
        backend: Measurement driver (instance or registry spec, see
            :mod:`repro.backends`) whose ``lot_thresholds`` op solves
            every chunk.  Must advertise the ``lot_thresholds``
            capability (the kernel driver and replayed kernel traces
            do; the event-sim driver does not —
            :class:`~repro.errors.BackendError` otherwise).  ``None``
            (and no ``REPRO_BACKEND``) is the kernel driver, chunked,
            pooled and cached as below.  A named driver may be
            stateful (recording, replay), so its lot is one chunk
            solved in this process by one ``lot_thresholds`` call,
            with no cache and no pool: ``workers``, ``cache``,
            ``retries``, ``task_timeout`` and ``failure_policy`` do
            not apply.
        workers: Pool size (<= 1: serial).  The dies missing from the
            cache are split into ``min(workers, missing)`` contiguous
            chunks, each solved and scored as one batch.
        cache: On-disk memoization of per-die scores — a
            :class:`~repro.runtime.ResultCache` or a cache directory;
            ``None`` disables caching.  Each die has its own entry
            name; a chunk's entries share one file (see
            :meth:`~repro.runtime.ResultCache.put_many`), written as
            soon as the chunk completes.  A fully cached lot solves
            nothing and starts no pool.
        retries / task_timeout / failure_policy: Resilience options
            (see :func:`repro.runtime.resilient_map`).  Under
            ``"raise"`` a retry re-runs the whole chunk and
            ``task_timeout`` bounds a chunk, not a die.  Under
            ``"partial"`` every die is its own chunk: dies whose
            scoring failed through the retry budget are dropped from
            the lot statistics (``n_dies`` in the report reflects the
            *scored* dies); every-die failure raises
            :class:`ConfigurationError`.
    """
    if n_dies < 1:
        raise ConfigurationError("n_dies must be positive")
    if failure_policy not in FAILURE_POLICIES:
        raise ConfigurationError(
            f"failure_policy must be one of {FAILURE_POLICIES}, "
            f"got {failure_policy!r}"
        )
    nominal_ladder = ladders.ladder(design, code)
    if supplies is None:
        lo, hi = nominal_ladder[0], nominal_ladder[-1]
        supplies = np.linspace(lo + 0.005, hi - 0.005, 17)
    supply_grid = tuple(float(v) for v in supplies)

    lot = variation.sample_lot(n_dies, design.n_bits, seed=seed)
    from repro.backends import BACKEND_ENV, BackendError, resolve_backend

    bk = resolve_backend(backend)
    if not bk.capabilities().lot_thresholds:
        raise BackendError(
            f"backend {bk.id!r} does not characterize mismatch "
            f"lots (capabilities().lot_thresholds is False)"
        )
    bk.configure(design)
    if backend is not None or os.environ.get(BACKEND_ENV):
        # A named driver solves the lot as one serial, uncached chunk,
        # so a recorded yield study is one measurement record after
        # its configure record.
        store, workers, retries, task_timeout, failure_policy = \
            None, 1, 0, None, "raise"
    else:
        store = resolve_cache(cache)
    # Cache hits first.  The missing dies go in contiguous chunks, one
    # per worker (one die per chunk under "partial"), and a chunk's
    # die scores are put, as one file, the moment it completes.
    found: list[_DieScore | None] = [None] * n_dies
    keys: list[str] = []
    if store is not None:
        fp = design_fingerprint(design)
        keys = task_keys("die-score", (fp,), lot, (code, supply_grid))
        for i, key in enumerate(keys):
            hit, value = store.get(key)
            if hit:
                found[i] = value
    missing = [i for i, score in enumerate(found) if score is None]
    if missing:
        n = (len(missing) if failure_policy == "partial"
             else min(resolve_workers(workers), len(missing)))
        bounds = [len(missing) * c // n for c in range(n + 1)]
        chunks = [missing[a:b] for a, b in zip(bounds, bounds[1:])]

        def on_result(c: int, chunk_scores: list[_DieScore]) -> None:
            for i, score in zip(chunks[c], chunk_scores):
                found[i] = score
            if store is not None:
                store.put_many({keys[i]: score for i, score
                                in zip(chunks[c], chunk_scores)})

        resilient_map(
            _score_chunk,
            [(bk, [lot[i] for i in chunk], code, supply_grid,
              nominal_ladder) for chunk in chunks],
            workers=workers, retries=retries,
            task_timeout=task_timeout, failure_policy=failure_policy,
            on_result=on_result,
        )
    # Dies that failed under "partial" stay None and drop out.
    scores = [score for score in found if score is not None]
    if not scores:
        raise ConfigurationError(
            "every die failed scoring; nothing to report"
        )
    n_scored = len(scores)

    per_bit = np.array([s.thresholds for s in scores])
    total_evals = n_scored * len(supply_grid)
    errors = [e for s in scores for e in s.errors]
    return YieldReport(
        n_dies=n_scored,
        threshold_sigma=tuple(float(s) for s in np.std(per_bit, axis=0)),
        monotone_fraction=sum(s.monotone for s in scores) / n_scored,
        bubble_rate=sum(s.bubbled for s in scores) / total_evals,
        bracket_rate=sum(s.bracketed for s in scores) / total_evals,
        bracket_rate_calibrated=(
            sum(s.bracketed_cal for s in scores) / total_evals
        ),
        mean_abs_error=float(np.mean(errors)) if errors else 0.0,
    )
