"""Stage executors: the campaign verbs, one per ``kind``.

Each executor is a pure function ``(ctx, stage) -> (payload,
volatile)``:

* ``payload`` — the stage's *answer*: JSON-safe, deterministic given
  the campaign fingerprint, persisted in the stage-result cache and
  written to ``results/<id>.json``.  Golden diffs compare payloads
  bit-for-bit (deterministic stages only).
* ``volatile`` — the *road taken*: runtime counters (crashes, pool
  rebuilds, retries, cache hits), subprocess stats, anything that
  legitimately differs between a clean run and a chaos/resumed run.
  Volatile data goes into the manifest for observability but is
  excluded from golden comparison.

The split is the campaign layer's core discipline: everything a
re-run must reproduce goes in the payload; everything it may not goes
in volatile.  A stage that leaks a timestamp or a hit counter into
its payload breaks resume-bit-identity — the test suite's crash/
resume drill exists to catch exactly that.

Registered kinds:

=================  ====================================================
``characterization``  Fig. 5 multibit ladders via
                      :func:`~repro.core.characterization.characterize_array`
``cap_sweep``         Fig. 4 threshold-vs-trim-cap sweep
``threshold_sweep``   per-bit sim-oracle bisections on
                      :func:`~repro.runtime.resilient.resilient_cached_map`
                      (the chaos-drill workhorse: honors worker-kill
                      injection)
``yield_study``       mismatch-lot scoring via
                      :func:`~repro.analysis.yield_study.run_yield_study`
                      on the resolved driver: one ``lot_thresholds``
                      op scores the whole lot (no pool, no cache)
``s_curve``           stochastic trip-probability ladders through the
                      driver's ``s_curve`` capability
``telemetry``         synthetic droop trace through the streaming
                      :class:`~repro.telemetry.pipeline.TelemetryPipeline`;
                      the payload reads its totals and events, so the
                      stage builds no quantile estimators
``fault_screen``      stuck-at injection + production screen
``service_drill``     a real ``repro serve`` subprocess under client
                      load with seeded kills/poison (nondeterministic:
                      latencies and kill schedules vary)
``synthetic``         scheduler drill/bench probe: a deterministic
                      payload behind an emulated instrument dwell
                      (``dwell_ms``), with optional forced failure —
                      the workload the scheduler benchmarks and
                      random-DAG property tests are built from
=================  ====================================================
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.campaign.spec import CampaignSpec, StageSpec
from repro.errors import StageExecutionError
from repro.runtime.cache import (
    ResultCache,
    design_fingerprint,
    task_key,
)
from repro.runtime.chaos import ChaosMonkey, KillOnceTask, enumerate_for

#: Stage kinds whose payloads may differ between runs (wall-clock
#: latencies, kill schedules).  The runner marks them in the manifest
#: and the golden diff skips their result trees.
NONDETERMINISTIC_KINDS = frozenset({"service_drill"})


@dataclass
class StageContext:
    """Everything an executor may touch, resolved once per run.

    Attributes:
        spec: The whole campaign (stage params ride on the stage).
        design: The calibrated design (nominal; corner applied via
            ``tech``).
        tech: Corner technology override, or None for nominal.
        backend: The resolved, shared measurement driver.
        cache: Task-level ResultCache (the resumability substrate).
        out_dir: The run's output directory (stage scratch space).
        monkey: Seeded chaos source when the spec has an active chaos
            block, else None.
        kill_tasks: Worker-kill budget from the chaos block (consumed
            by the first chaos-capable stage that runs tasks).
        vandalized: Cache entry paths (as strings) the runner's chaos
            pass corrupted — they exist on disk but will re-execute.
        inner_workers: Pool width of the stage's own maps, overriding
            ``runtime.workers``; a stage process sets 1, so the stage
            pool is the campaign's only parallelism.
    """

    spec: CampaignSpec
    design: Any
    tech: Any
    backend: Any
    cache: ResultCache
    out_dir: Path
    monkey: ChaosMonkey | None = None
    kill_tasks: int = 0
    vandalized: tuple = ()
    inner_workers: int | None = None
    _fingerprint: str | None = field(default=None, repr=False)

    def runtime_kwargs(self) -> dict[str, Any]:
        """The resilient-runtime knobs every sweep entry point takes."""
        spec = self.spec
        return {
            "workers": self.inner_workers or spec.workers or None,
            "retries": spec.retries,
            "task_timeout": spec.task_timeout,
            "failure_policy": spec.failure_policy,
        }

    def fingerprint(self) -> str:
        """Driverless design fingerprint (task-key ingredient)."""
        if self._fingerprint is None:
            self._fingerprint = design_fingerprint(self.design)
        return self._fingerprint

    def sweep_backend(self) -> Any:
        """A characterization stage's driver: the shared one, except
        that a ``sim`` campaign passes the spec, so the entry point
        builds the driver at the stage's ``tol``."""
        return "sim" if self.spec.backend == "sim" else self.backend

    def tech_token(self) -> str:
        return self.tech.name if self.tech is not None else "nominal"


def _stats_volatile(stats: Any) -> dict[str, Any]:
    """RunStats -> the manifest's volatile counter record."""
    return {
        "tasks": stats.tasks,
        "completed": stats.completed,
        "retries": stats.retries,
        "crashes": stats.crashes,
        "timeouts": stats.timeouts,
        "pool_rebuilds": stats.pool_rebuilds,
        "failures": stats.failures,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
    }


def _none_or_float(value: Any) -> float | None:
    return None if value is None else float(value)


# -- characterization ----------------------------------------------------------


def _run_characterization(ctx: StageContext,
                          stage: StageSpec) -> tuple[dict, dict]:
    from repro.core.characterization import characterize_array

    codes = [int(c) for c in stage.param("codes", [1, 2, 3])]
    tol = float(stage.param("tol", 0.5e-3))
    chars = characterize_array(
        ctx.design, codes, tech=ctx.tech, backend=ctx.sweep_backend(),
        tol=tol, cache=ctx.cache, **ctx.runtime_kwargs(),
    )
    payload = {
        "codes": codes,
        "tol": tol,
        "per_code": {
            str(code): {
                "thresholds": [float(t) for t in ch.thresholds],
                "v_min": float(ch.v_min),
                "v_max": float(ch.v_max),
                "masked_bits": [int(b) for b in ch.masked_bits],
            }
            for code, ch in chars.items()
        },
    }
    return payload, {}


def _run_cap_sweep(ctx: StageContext,
                   stage: StageSpec) -> tuple[dict, dict]:
    from repro.core.characterization import threshold_vs_capacitance

    caps_ff = [float(c) for c in stage.param("caps_ff", [5, 10, 20])]
    code = int(stage.param("code", 3))
    tol = float(stage.param("tol", 0.5e-3))
    rows = threshold_vs_capacitance(
        ctx.design, [c * 1e-15 for c in caps_ff], code=code,
        tech=ctx.tech, backend=ctx.sweep_backend(), tol=tol,
        cache=ctx.cache, **ctx.runtime_kwargs(),
    )
    payload = {
        "code": code,
        "caps_ff": caps_ff,
        "thresholds": [_none_or_float(thr) for _cap, thr in rows],
    }
    return payload, {}


def _run_threshold_sweep(ctx: StageContext,
                         stage: StageSpec) -> tuple[dict, dict]:
    from repro.backends.sim import (
        DEFAULT_BRACKET_PAD,
        _sim_bracket,
        _sim_threshold_task,
    )
    from repro.core.sensor import SenseRail
    from repro.runtime.resilient import resilient_cached_map

    code = int(stage.param("code", 3))
    tol = float(stage.param("tol", 5e-3))
    bits = [int(b) for b in
            stage.param("bits", list(range(1, ctx.design.n_bits + 1)))]
    rail = SenseRail.VDD
    specs, keys = [], []
    for b in bits:
        est = ctx.design.bit_threshold(b, code)
        v_lo, v_hi = _sim_bracket(est, DEFAULT_BRACKET_PAD)
        specs.append((ctx.design, b, code, rail, ctx.tech,
                      v_lo, v_hi, tol))
        keys.append(task_key("campaign-threshold", ctx.fingerprint(),
                             ctx.tech_token(), b, code, tol))

    kwargs = ctx.runtime_kwargs()
    fn: Callable = _sim_threshold_task
    items: list = specs
    kill_indices: list[int] = []
    if ctx.monkey is not None and ctx.kill_tasks > 0:
        # A killed task must actually reach the pool, so choose only
        # among tasks that will recompute: no cache entry yet, or an
        # entry this run's chaos pass vandalized (path probe, not
        # get(): the miss counters must stay honest).
        vandalized = set(ctx.vandalized)
        missing = [
            i for i, key in enumerate(keys)
            if not ctx.cache._path(key).exists()
            or str(ctx.cache._path(key)) in vandalized
        ]
        n_kills = min(ctx.kill_tasks, len(missing))
        if n_kills:
            chosen = ctx.monkey.pick(len(missing), n_kills)
            kill_indices = sorted(missing[i] for i in chosen)
            marker_dir = ctx.out_dir / f"{stage.id}-kill-markers"
            marker_dir.mkdir(parents=True, exist_ok=True)
            fn = KillOnceTask(fn=_sim_threshold_task,
                              kill_indices=frozenset(kill_indices),
                              marker_dir=str(marker_dir))
            items = enumerate_for(specs)
            ctx.kill_tasks -= n_kills
            # The runtime drops to in-process serial execution when
            # only one task misses the cache and no timeout is set —
            # which would let the kill SIGKILL the campaign itself.
            # A timeout forces the single-worker-pool path, so the
            # victim always dies in a disposable worker.
            if kwargs.get("task_timeout") is None:
                kwargs["task_timeout"] = 600.0

    outcome = resilient_cached_map(fn, items, keys=keys,
                                   cache=ctx.cache, **kwargs)
    payload = {
        "code": code,
        "tol": tol,
        "rail": rail.name,
        "bits": bits,
        "thresholds": [_none_or_float(t) for t in outcome.results],
        "n_failed": len(outcome.failures),
    }
    volatile = _stats_volatile(outcome.stats)
    volatile["killed_task_indices"] = kill_indices
    return payload, volatile


def _run_yield_study(ctx: StageContext,
                     stage: StageSpec) -> tuple[dict, dict]:
    from repro.analysis.yield_study import run_yield_study
    from repro.devices.variation import VariationModel

    n_dies = int(stage.param("n_dies", 50))
    code = int(stage.param("code", 3))
    seed = int(stage.param("seed", ctx.spec.seed))
    report = run_yield_study(
        ctx.design, VariationModel(), n_dies=n_dies, code=code,
        seed=seed, backend=ctx.backend,
    )
    payload = {
        "n_dies": report.n_dies,
        "code": code,
        "seed": seed,
        "threshold_sigma": [float(s) for s in report.threshold_sigma],
        "monotone_fraction": float(report.monotone_fraction),
        "bubble_rate": float(report.bubble_rate),
        "bracket_rate": float(report.bracket_rate),
        "bracket_rate_calibrated":
            float(report.bracket_rate_calibrated),
        "mean_abs_error": float(report.mean_abs_error),
    }
    return payload, {}


def _run_s_curve(ctx: StageContext,
                 stage: StageSpec) -> tuple[dict, dict]:
    bits = [int(b) for b in stage.param("bits", [1])]
    code = int(stage.param("code", 3))
    noise_rms = float(stage.param("noise_rms", 0.02))
    n_per_level = int(stage.param("n_per_level", 2000))
    seed = int(stage.param("seed", ctx.spec.seed))
    ctx.backend.configure(ctx.design, tech=ctx.tech)
    per_bit = {}
    for bit in bits:
        levels, probs = ctx.backend.s_curve(
            bit, code=code, noise_rms=noise_rms,
            n_per_level=n_per_level, seed=seed,
        )
        per_bit[str(bit)] = {
            "levels": [float(v) for v in levels],
            "p_pass": [float(p) for p in probs],
        }
    payload = {
        "code": code,
        "noise_rms": noise_rms,
        "n_per_level": n_per_level,
        "seed": seed,
        "per_bit": per_bit,
    }
    return payload, {}


def _run_telemetry(ctx: StageContext,
                   stage: StageSpec) -> tuple[dict, dict]:
    from repro.telemetry.pipeline import TelemetryPipeline
    from repro.telemetry.sources import (
        array_source,
        synthetic_droop_trace,
    )

    n_samples = int(stage.param("n_samples", 20000))
    n_droops = int(stage.param("n_droops", 2))
    depth = float(stage.param("depth", 0.15))
    noise_rms = float(stage.param("noise_rms", 0.0))
    seed = int(stage.param("seed", ctx.spec.seed))
    code = int(stage.param("code", 3))
    chunk = int(stage.param("chunk", 1024))
    times, volts, true_starts = synthetic_droop_trace(
        n_samples=n_samples, n_droops=n_droops, depth=depth,
        noise_rms=noise_rms, seed=seed,
    )
    # The payload reads totals and events only: no P² estimators.
    pipeline = TelemetryPipeline(ctx.design, code=code, tech=ctx.tech,
                                 chunk=chunk, quantiles=())
    snapshot = pipeline.run(array_source("site0", times, volts,
                                         block=chunk))
    events = pipeline.events
    payload = {
        "n_samples": n_samples,
        "n_droops_injected": n_droops,
        "seed": seed,
        "code": code,
        "droop_starts_injected": [float(t) for t in true_starts],
        "totals": snapshot["totals"],
        "events": [
            {"site": e.site, "start": float(e.start),
             "end": float(e.end), "n_samples": int(e.n_samples),
             "depth_v": float(e.depth_v),
             "worst_rung": int(e.worst_rung)}
            for e in events
        ],
    }
    return payload, {}


def _run_fault_screen(ctx: StageContext,
                      stage: StageSpec) -> tuple[dict, dict]:
    from repro.core.faults import (
        FaultInjector,
        FaultType,
        screen_suspects,
    )

    code = int(stage.param("code", 3))
    faults = stage.param("faults", [{"fault": "out_stuck_fail",
                                     "bit": 2}])
    injector = FaultInjector(ctx.design, tech=ctx.tech)
    results = []
    for entry in faults:
        name = str(entry["fault"]).upper()
        bit = int(entry["bit"])
        try:
            fault_type = FaultType[name]
        except KeyError as exc:
            raise StageExecutionError(
                f"stage {stage.id!r}: unknown fault type {name!r} "
                f"(known: {[f.name for f in FaultType]})"
            ) from exc
        injector.inject(fault_type, bit)
        suspects = screen_suspects(injector, code=code)
        results.append({
            "fault": name.lower(),
            "bit": bit,
            "suspect_bits": [int(b) for b in suspects],
            "detected": bit in suspects,
        })
    payload = {"code": code, "screens": results}
    return payload, {}


def _run_synthetic(ctx: StageContext,
                   stage: StageSpec) -> tuple[dict, dict]:
    """Scheduler probe: emulated instrument dwell + trivial compute.

    Deterministic given its params, so it supports golden diffing,
    stage-cache resume and chaos vandalism like any real stage, while
    costing nothing but the dwell — which is exactly what the campaign
    scheduler's benchmarks and random-DAG property tests need: stages
    whose wall-clock the scheduler can overlap without burning CPU.

    Params: ``value`` (folded into the payload), ``dwell_ms``
    (blocking wait, emulating an instrument's measurement dwell),
    ``fail`` (truthy: raise *after* the dwell — a seeded stage-error
    placement hook; dwelling first lets tests stage slow failures that
    race faster successes through the scheduler).
    """
    value = float(stage.param("value", float(ctx.spec.seed)))
    dwell_ms = float(stage.param("dwell_ms", 0.0))
    if dwell_ms > 0:
        time.sleep(dwell_ms * 1e-3)
    fail = stage.param("fail", None)
    if fail:
        raise StageExecutionError(
            f"stage {stage.id!r}: synthetic failure ({fail})"
        )
    key = task_key("campaign-synthetic", ctx.fingerprint(),
                   ctx.tech_token(), stage.id, value)
    result = ctx.cache.get_or_compute(
        key, lambda: {"value": value, "scaled": value * 2.0})
    payload = {
        "stage": stage.id,
        "value": float(result["value"]),
        "scaled": float(result["scaled"]),
        "dwell_ms": dwell_ms,
    }
    return payload, {}


def _run_service_drill(ctx: StageContext,
                       stage: StageSpec) -> tuple[dict, dict]:
    import asyncio

    from repro.service.chaos import build_load, run_load
    from repro.service.fleet import FleetConfig

    n_requests = int(stage.param("n_requests", 24))
    mix = tuple(stage.param(
        "mix", ["measure", "characterize", "measure", "window"]))
    kill_rate = float(stage.param("kill_rate", 0.0))
    poison_rate = float(stage.param("poison_rate", 0.0))
    dies = int(stage.param("dies", 16))
    shards = int(stage.param("shards", 2))
    pool_workers = int(stage.param("pool_workers", 1))
    n_clients = int(stage.param("n_clients", 3))
    depth = int(stage.param("depth", 3))
    seed = int(stage.param("seed", ctx.spec.seed))

    # Unix sockets cap at ~104 bytes of path; the run's out_dir can be
    # arbitrarily deep, so the socket lives in its own short tempdir.
    tmp = Path(tempfile.mkdtemp(prefix="campaign-svc-"))
    sock = tmp / "svc.sock"
    markers = tmp / "markers"
    markers.mkdir()
    stats_path = ctx.out_dir / f"{stage.id}-service-stats.json"
    service_cache = ctx.out_dir / f"{stage.id}-service-cache"

    # The load must target the fleet the server actually hosts, or
    # requests aimed at out-of-range dies surface as spurious errors.
    requests = build_load(
        ChaosMonkey(seed), n_requests,
        config=FleetConfig(n_dies=dies, n_shards=shards), mix=mix,
        kill_rate=kill_rate,
        marker_dir=str(markers) if kill_rate else None,
        poison_rate=poison_rate,
    )
    n_kills = sum(1 for r in requests
                  if "kill_marker" in r["params"].get("chaos", {}))
    n_poison = sum(1 for r in requests
                   if r["params"].get("chaos", {}).get("poison"))

    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ,
               PYTHONPATH=f"{src_root}:{os.environ.get('PYTHONPATH', '')}",
               REPRO_CACHE_DIR=str(service_cache))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--unix", str(sock),
         "--backend", ctx.spec.backend, "--executor", "pool",
         "--pool-workers", str(pool_workers), "--dies", str(dies),
         "--shards", str(shards), "--max-requests", str(n_requests),
         "--stats-out", str(stats_path)],
        env=env,
    )
    try:
        for _ in range(600):
            if sock.exists():
                break
            if server.poll() is not None:
                raise StageExecutionError(
                    f"stage {stage.id!r}: server exited rc="
                    f"{server.returncode} before opening its socket"
                )
            time.sleep(0.1)
        else:
            raise StageExecutionError(
                f"stage {stage.id!r}: server socket never appeared"
            )
        report = asyncio.run(run_load(
            f"unix:{sock}", requests, n_clients=n_clients,
            depth=depth, timeout_s=300,
        ))
        server.wait(timeout=120)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)

    try:
        server_stats = json.loads(stats_path.read_text())
    except (OSError, json.JSONDecodeError):
        server_stats = {}
    counters = server_stats.get("counters", {})
    errors = sum(1 for r in report.responses.values()
                 if r.get("status") == "error")

    payload = {
        "n_requests": n_requests,
        "responses": len(report.responses),
        "exactly_once": report.problems() == [],
        "dropped_connections": counters.get("dropped_connections"),
        "errors": errors,
        "poison_injected": n_poison,
        "kills_injected": n_kills,
        "errors_match_poison": errors == n_poison,
        "kills_recovered": counters.get("crashes", 0) >= n_kills,
        "clean_exit": server.returncode == 0,
        "quality": dict(report.by_quality),
        "status": dict(report.by_status),
    }
    volatile = {
        "problems": report.problems(),
        "server_counters": counters,
        "server_cache": server_stats.get("cache", {}),
        "throughput_rps": report.throughput_rps,
        "p99_latency_s": report.latency_quantile(0.99),
    }
    return payload, volatile


#: ``kind`` -> executor.  Schema validation checks stage kinds against
#: this table, so registering a new verb here is the whole extension.
STAGE_KINDS: dict[str, Callable[[StageContext, StageSpec],
                                tuple[dict, dict]]] = {
    "characterization": _run_characterization,
    "cap_sweep": _run_cap_sweep,
    "threshold_sweep": _run_threshold_sweep,
    "yield_study": _run_yield_study,
    "s_curve": _run_s_curve,
    "telemetry": _run_telemetry,
    "fault_screen": _run_fault_screen,
    "service_drill": _run_service_drill,
    "synthetic": _run_synthetic,
}


def execute_stage(ctx: StageContext,
                  stage: StageSpec) -> tuple[dict, dict]:
    """Run one stage; every engine failure surfaces as
    :class:`~repro.errors.StageExecutionError` (original as cause)."""
    executor = STAGE_KINDS[stage.kind]
    try:
        return executor(ctx, stage)
    except StageExecutionError:
        raise
    except Exception as exc:
        raise StageExecutionError(
            f"stage {stage.id!r} ({stage.kind}) failed: {exc}"
        ) from exc
