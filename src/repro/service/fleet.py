"""The simulated die fleet and the job-execution kernel.

A :class:`Fleet` is ``n_dies`` virtual dies — each a deterministic
:class:`~repro.devices.variation.VariationSample` drawn from the fleet
seed — hashed across ``n_shards`` shards.  Sharding is pure routing
(``die % n_shards``): a die's results are identical whichever process
computes them, which is what lets the server rebuild a crashed shard
pool and retry without changing any answer.

:func:`execute_job` is the single job-execution kernel, shaped for the
process-pool runtime: a **module-level function of one picklable dict**
(the same contract as :func:`~repro.runtime.resilient.resilient_map`
tasks).  The server calls it two ways:

* inline — ``execute_job(payload, backend=shard_backend)`` in a
  worker thread, so the shard's (possibly fault-injected) driver
  instance is used directly;
* pooled — ``execute_job(payload)`` in a shard's
  :class:`~repro.runtime.pool.WorkerPool` worker, which resolves and
  configures its own driver from ``payload["backend"]`` once per
  process.

Chaos directives ride inside ``payload["chaos"]`` using the marker-
file idiom of :class:`~repro.runtime.chaos.KillOnceTask`, so a killed
worker's retry completes instead of dying again.
"""

from __future__ import annotations

import functools
import math
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.calibration import paper_design
from repro.errors import BackendError, ConfigurationError
from repro.units import MV

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import SensorBackend
    from repro.devices.variation import VariationSample

#: Hard per-request size caps — one request must never monopolize a
#: shard; bigger studies belong in campaign sweeps, not the serving
#: path.
MAX_LEVELS = 256
MAX_YIELD_DIES = 64
MAX_SCURVE_TRIALS = 2000
MAX_WINDOW_SAMPLES = 50_000


@dataclass(frozen=True)
class FleetConfig:
    """The fleet's identity: folded into cache keys and responses.

    Attributes:
        n_dies: Virtual dies in the fleet.
        n_shards: Shards the dies are hashed across.
        seed: Drives every die's variation sample.
        sigma_vth_inter / sigma_vth_intra: Mismatch model, volts.
    """

    n_dies: int = 64
    n_shards: int = 4
    seed: int = 2009
    sigma_vth_inter: float = 15 * MV
    sigma_vth_intra: float = 6 * MV

    def __post_init__(self) -> None:
        if self.n_dies < 1 or self.n_shards < 1:
            raise ConfigurationError(
                "n_dies and n_shards must be at least 1"
            )
        if self.n_shards > self.n_dies:
            raise ConfigurationError(
                f"{self.n_shards} shards for {self.n_dies} dies; every "
                f"shard needs at least one die"
            )


class Fleet:
    """Deterministic die fleet with shard routing."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config

    def shard_of(self, die: int) -> int:
        """Shard owning ``die`` (also validates the id)."""
        if not 0 <= die < self.config.n_dies:
            raise ConfigurationError(
                f"die {die} outside fleet 0..{self.config.n_dies - 1}"
            )
        return die % self.config.n_shards


def die_samples(config: FleetConfig, dies: "list[int]",
                n_instances: int) -> "list[VariationSample]":
    """The dies' variation samples, drawn together.

    Die ``d`` draws from its own stream, seeded from
    ``SeedSequence([config.seed, d])``, so its sample is a pure function
    of config + die (stable across processes and batches).
    """
    from repro.devices.variation import VariationModel

    model = VariationModel(
        sigma_vth_inter=config.sigma_vth_inter,
        sigma_vth_intra=config.sigma_vth_intra,
    )
    seeds = [int(np.random.SeedSequence([config.seed, d])
                 .generate_state(1)[0]) for d in dies]
    return model.sample_dies(n_instances, seeds=seeds)


def die_sample(config: FleetConfig, die: int,
               n_instances: int) -> "VariationSample":
    """The die's variation sample (pure function of config + die)."""
    return die_samples(config, [die], n_instances)[0]


# -- per-process state (pooled execution) --------------------------------------


@functools.lru_cache(maxsize=8)
def _pooled_backend(spec: str) -> "SensorBackend":
    """One configured driver per (process, spec) — pool workers reuse
    it across jobs exactly as a shard reuses its inline driver."""
    from repro.backends import resolve_backend

    backend = resolve_backend(spec)
    backend.configure(paper_design())
    return backend


def _decode_word_batch(words: np.ndarray, code: int) -> list[dict]:
    """Fused decode of a measure batch: one ladder gather for every
    row instead of a ``ThermometerWord`` round trip per row.  Word
    strings keep the raw (possibly bubbled) bits; the bounds are the
    lenient ones-count decode of
    :func:`~repro.analysis.thermometer.decode_word`."""
    from repro.kernels import decode_word_rows, ladders

    rows = np.asarray(words)
    _, lo, hi = decode_word_rows(ladders.ladder(paper_design(), code),
                                 rows)
    return [
        {"word": "".join(str(int(b)) for b in row[::-1]),
         "lo": float(a), "hi": float(b)}
        for row, a, b in zip(np.atleast_2d(rows), lo, hi)
    ]


# -- chaos directives ----------------------------------------------------------


def _apply_chaos(chaos: dict | None) -> None:
    """Honor a payload's chaos directives (drills only).

    ``kill_marker``: SIGKILL this worker once (marker armed first so
    the retry survives — the :class:`~repro.runtime.chaos.KillOnceTask`
    idiom).  ``sleep_s``: stall (deadline pressure).  ``poison``: the
    request itself is defective — raise.
    """
    if not chaos:
        return
    marker = chaos.get("kill_marker")
    if marker:
        path = Path(marker)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.touch()
            os.kill(os.getpid(), signal.SIGKILL)
    sleep_s = chaos.get("sleep_s")
    if sleep_s:
        time.sleep(float(sleep_s))
    if chaos.get("poison"):
        raise ConfigurationError(
            "poison request: chaos directive demanded failure"
        )


# -- the job kernel ------------------------------------------------------------


def _require(params: dict, key: str, cap: int | None = None,
             default: Any = None) -> Any:
    value = params.get(key, default)
    if value is None:
        raise ConfigurationError(f"request params missing {key!r}")
    if cap is not None and int(value) > cap:
        raise ConfigurationError(
            f"param {key}={value} exceeds the serving cap {cap}"
        )
    return value


def execute_job(payload: dict,
                backend: "SensorBackend | None" = None) -> dict:
    """Execute one job payload; returns the JSON-safe result body.

    Pure given the payload (chaos directives aside): the same request
    through any healthy worker produces the same numbers, which is
    what makes retries and cache hits honest.

    Raises:
        ConfigurationError: malformed params or a poison request.
        BackendError: the driver cannot serve the op.
    """
    chaos = payload.get("chaos")
    _apply_chaos(chaos if isinstance(chaos, dict) else None)

    kind = payload["kind"]
    params = payload.get("params", {})
    if backend is None:
        backend = _pooled_backend(payload.get("backend", "kernel"))
    design = paper_design()

    if kind == "ping":
        return {"pong": True}

    code = int(params.get("code", 3))
    if not 0 <= code <= 7:
        raise ConfigurationError(f"code {code} outside 0..7")
    fleet_cfg = payload.get("fleet") or {}
    config = FleetConfig(**fleet_cfg) if fleet_cfg else FleetConfig()

    if kind == "measure":
        levels = params.get("levels")
        if levels is None:
            levels = [_require(params, "level")]
        levels = [float(v) for v in levels]
        if not levels or len(levels) > MAX_LEVELS:
            raise ConfigurationError(
                f"measure wants 1..{MAX_LEVELS} levels, got {len(levels)}"
            )
        words = backend.measure_batch(levels, code=code)
        return {
            "code": code,
            "levels": levels,
            "measures": _decode_word_batch(np.asarray(words), code),
        }

    if kind == "characterize":
        die = int(_require(params, "die"))
        Fleet(config).shard_of(die)  # validates the id
        sample = die_sample(config, die, design.n_bits)
        caps = backend.capabilities()
        if caps.lot_thresholds:
            table = backend.lot_thresholds([sample], code)
            thresholds = [float(v) for v in np.asarray(table)[0]]
        else:
            thresholds = [float(v)
                          for v in backend.bit_thresholds(code)]
        finite = [v for v in thresholds if math.isfinite(v)]
        return {
            "die": die,
            "code": code,
            "thresholds": thresholds,
            "n_masked": len(thresholds) - len(finite),
            "per_die": caps.lot_thresholds,
        }

    if kind == "s_curve":
        bit = int(_require(params, "bit"))
        if not 1 <= bit <= design.n_bits:
            raise ConfigurationError(
                f"bit {bit} outside 1..{design.n_bits}"
            )
        n_per_level = int(params.get("n_per_level", 50))
        if not 1 <= n_per_level <= MAX_SCURVE_TRIALS:
            raise ConfigurationError(
                f"n_per_level {n_per_level} outside "
                f"1..{MAX_SCURVE_TRIALS}"
            )
        levels, probs = backend.s_curve(
            bit, code=code,
            noise_rms=float(params.get("noise_rms", 0.01)),
            n_per_level=n_per_level,
            seed=int(params.get("seed", config.seed)),
            n_levels=int(params.get("n_levels", 9)),
        )
        return {"bit": bit, "code": code,
                "levels": list(levels), "probs": list(probs)}

    if kind == "yield":
        n_dies = int(params.get("n_dies", 8))
        if not 1 <= n_dies <= MAX_YIELD_DIES:
            raise ConfigurationError(
                f"n_dies {n_dies} outside 1..{MAX_YIELD_DIES} (bigger "
                f"studies belong in campaign sweeps)"
            )
        dies = params.get("dies")
        if dies is None:
            dies = list(range(min(n_dies, config.n_dies)))
        dies = [int(d) for d in dies][:MAX_YIELD_DIES]
        fleet = Fleet(config)
        for d in dies:
            fleet.shard_of(d)  # validates the ids
        caps = backend.capabilities()
        if not caps.lot_thresholds:
            raise BackendError(
                f"backend {backend.id!r} does not characterize "
                f"mismatch lots; route 'yield' to a capable driver"
            )
        lot = die_samples(config, dies, design.n_bits)
        table = np.asarray(backend.lot_thresholds(lot, code))
        sigma = np.nanstd(table, axis=0)
        # Fused decode-quality stats: which dies keep an ascending
        # ladder, and how often a die would emit a bubbled word when
        # probed at the nominal inter-rung midpoints.
        from repro.kernels import decode_counts, ladders

        monotone = np.all(np.diff(table, axis=1) > 0, axis=1)
        ladder = np.asarray(ladders.ladder(design, code))
        mids = 0.5 * (ladder[:-1] + ladder[1:])
        if mids.size:
            _, bubbled = decode_counts(mids[None, :], table[:, None, :])
            bubble_frac = float(np.mean(bubbled))
        else:
            bubble_frac = 0.0
        return {
            "code": code,
            "dies": dies,
            "threshold_sigma_mv": [float(s * 1e3) for s in sigma],
            "worst_sigma_mv": float(np.nanmax(sigma) * 1e3),
            "spread_mv": float(
                (np.nanmax(table) - np.nanmin(table)) * 1e3
            ),
            "monotone_frac": float(np.mean(monotone)),
            "bubble_frac": bubble_frac,
        }

    if kind == "window":
        from repro.telemetry import (
            TelemetryPipeline,
            array_source,
            synthetic_droop_trace,
        )

        n_samples = int(params.get("n_samples", 2000))
        if not 16 <= n_samples <= MAX_WINDOW_SAMPLES:
            raise ConfigurationError(
                f"n_samples {n_samples} outside 16.."
                f"{MAX_WINDOW_SAMPLES}"
            )
        seed = int(params.get("seed", config.seed))
        times, volts, _ = synthetic_droop_trace(
            n_samples=n_samples,
            dt=float(params.get("dt", 1e-9)),
            n_droops=int(params.get("n_droops", 2)),
            depth=float(params.get("depth", 0.15)),
            noise_rms=float(params.get("noise_mv", 5.0)) * 1e-3,
            seed=seed,
        )
        # The response reads p99 only: one P² estimator.
        pipeline = TelemetryPipeline(design, code=code, quantiles=(0.99,))
        site = str(params.get("site", "svc"))
        pipeline.ingest_all(array_source(site, times, volts))
        pipeline.flush()
        snap = pipeline.snapshot()["sites"][site]
        return {
            "code": code,
            "site": site,
            "n_samples": n_samples,
            "events": snap["events"]["count"],
            "max_depth_v": snap["events"]["max_depth_v"],
            "min_v": snap["stats"]["min"],
            "mean_v": snap["stats"]["mean"],
            "p99_v": snap["quantiles"]["0.99"],
        }

    raise ConfigurationError(f"unknown job kind {kind!r}")
