"""The campaign-level stage scheduler: a ready-set executor over the
spec's DAG.

:func:`execute_outcomes` walks :meth:`~repro.campaign.spec.
CampaignSpec.topo_order` and dispatches every stage whose ``needs``
are all satisfied, in one of three execution modes:

* ``serial`` — the oracle: one stage at a time, in topo order, exactly
  the pre-scheduler runner loop;
* ``threads`` (default) — a bounded in-process stage-worker pool.
  Stage *threads* (not processes) so the chaos plumbing keeps its
  semantics: an armed :class:`~repro.runtime.chaos.KillAfterPuts`
  cache still SIGKILLs the campaign process from whichever stage
  thread trips it, and the worker-kill budget stays on the one shared
  :class:`~repro.campaign.stages.StageContext`.  Real overlap comes
  from what stages actually spend wall-clock on — process-pool IPC,
  subprocess waits, instrument dwell, NumPy releasing the GIL;
* ``service`` — each stage is submitted as a ``campaign_stage`` job
  to a ``repro.service`` job server (a running one via its address,
  or a self-hosted ``repro serve`` subprocess for the duration of the
  run), so campaign stages share the shard fleet, admission control
  and circuit breaker with every other tenant.

Bit-identity discipline
-----------------------

Execution and *recording* are decoupled.  Workers only read/write the
(shared, on-disk) task and stage caches and produce
:class:`StageOutcome` values; the runner then replays the serial
runner's exact skip/abort bookkeeping in topo order over those
outcomes (:func:`finalize_records`), so the manifest's stage records,
statuses, artifacts and check verdicts are byte-identical to a serial
run no matter what order stages completed in.

Failure semantics mirror the serial loop precisely:

* ``on_fail = "abort"``: once a stage at topo position *p* fails, no
  stage at a position after *p* is dispatched (in-flight stages drain;
  the finalization walk records them as ``skipped``, exactly as the
  serial runner — which never ran them — would have).  Stages *before*
  *p* still run: the serial loop would have completed them first.
* ``on_fail = "continue"``: only transitive dependents of a failure
  are skipped; independent stages keep dispatching.

Cache-counter hygiene: each clean stage gets its own
:class:`~repro.runtime.cache.ResultCache` *instance* over the same
root, so the per-stage ``task_cache_delta`` counters in the manifest
stay exact under concurrency (instances share the on-disk entries and
the per-root stats log).  Chaos/kill drills share the single armed
instance instead — the drill's counters are volatile by definition.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, \
    ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.campaign.criteria import evaluate_checks
from repro.campaign.spec import CampaignSpec, StageSpec
from repro.campaign.stages import (
    NONDETERMINISTIC_KINDS,
    StageContext,
    execute_stage,
)
from repro.errors import CampaignError, StageExecutionError
from repro.runtime.cache import ResultCache, task_key
from repro.runtime.profiling import PROFILER, phase

#: Stage-worker pool size when the spec (and CLI) leave it at 0.
#: Bounded and fixed — campaign overlap is latency-shaped (stages
#: block on pools, subprocesses and instrument dwell), so the right
#: default does not scale with core count.
DEFAULT_STAGE_WORKERS = 4

#: How a stage body is run: ``(ctx, stage) -> (payload, volatile)``.
StageRunner = Callable[[StageContext, StageSpec], tuple[dict, dict]]


def resolve_stage_workers(spec: CampaignSpec,
                          override: int | None = None) -> int:
    """The effective stage-worker count (0 means the default)."""
    n = spec.stage_workers if override is None else int(override)
    return n if n > 0 else DEFAULT_STAGE_WORKERS


@dataclass
class StageOutcome:
    """What executing one stage produced — everything the serial
    runner knew right after the stage ran, *before* any skip/abort
    bookkeeping (which :func:`finalize_records` replays)."""

    stage_id: str
    payload: Any = None
    volatile: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    error: str | None = None
    resumed: bool = False
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def status(self) -> str:
        """ok | failed | error — before finalization's skip rules."""
        if self.error is not None:
            return "error"
        return "ok" if all(c["ok"] for c in self.checks) else "failed"


def _execute_stage_once(ctx: StageContext, stage: StageSpec, key: str,
                        stage_store: ResultCache, *,
                        bypass_stage_cache: bool,
                        run_one: StageRunner,
                        flush: bool) -> StageOutcome:
    """One stage's execution body — the serial loop's inner block.

    Identical bookkeeping in every mode: stage-cache read (unless the
    run is a chaos drill), execute, stage-cache write, wall/CPU/cache
    deltas into volatile.  Checks are *not* evaluated here — they need
    the dependency payloads, which the caller owns.  CPU time is the
    calling thread's own, so under ``threads`` a stage is not billed
    for its siblings' work.
    """
    deterministic = stage.kind not in NONDETERMINISTIC_KINDS
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    stats0 = ctx.cache.stats()
    resumed = False
    error: str | None = None
    payload = None
    volatile: dict = {}

    with phase(f"campaign.stage.{stage.id}"):
        if deterministic and not bypass_stage_cache:
            hit, cached = stage_store.get(key)
            if hit:
                payload, resumed = cached, True
        if payload is None:
            try:
                payload, volatile = run_one(ctx, stage)
            except StageExecutionError as exc:
                error = str(exc)
            else:
                if deterministic:
                    stage_store.put(key, payload)

    wall = time.perf_counter() - wall0
    cpu = time.thread_time() - cpu0
    stats1 = ctx.cache.stats()
    volatile = dict(volatile)
    volatile["task_cache_delta"] = {
        k: stats1[k] - stats0[k]
        for k in ("hits", "misses", "errors")
    }
    if flush:
        # Per-stage cache instances die with the stage; flush so the
        # manifest's lifetime counters (read from the on-disk stats
        # log) still see their deltas.
        ctx.cache.flush_stats()
    return StageOutcome(
        stage_id=stage.id, payload=payload, volatile=volatile,
        error=error, resumed=resumed, wall_s=wall, cpu_s=cpu,
    )


def _stage_ctx(ctx: StageContext, *, share: bool) -> StageContext:
    """The context a stage runs under: the one shared (armed) context
    during chaos/kill drills, else a clone with a private cache
    instance over the same root (exact per-stage counters)."""
    if share:
        return ctx
    return replace(ctx, cache=ResultCache(ctx.cache.root))


def execute_outcomes(spec: CampaignSpec, ctx: StageContext, *,
                     stage_store: ResultCache, fingerprint: str,
                     execution: str, stage_workers: int,
                     share_ctx: bool,
                     run_one: StageRunner = execute_stage,
                     ) -> dict[str, StageOutcome]:
    """Run the campaign DAG; returns ``{stage_id: StageOutcome}``.

    Only stages the serial runner would execute are guaranteed an
    outcome; under ``threads`` a stage dispatched before an abort
    barrier moved ahead of it may *also* carry an outcome — the
    finalization walk ignores it (its payload stays in the stage
    cache, ready for a later resume).
    """
    bypass = ctx.monkey is not None
    if execution == "serial":
        return _execute_serial(spec, ctx, stage_store=stage_store,
                               fingerprint=fingerprint,
                               bypass=bypass, share_ctx=share_ctx,
                               run_one=run_one)
    if execution == "threads":
        return _execute_threads(spec, ctx, stage_store=stage_store,
                                fingerprint=fingerprint,
                                workers=stage_workers, bypass=bypass,
                                share_ctx=share_ctx, run_one=run_one)
    raise CampaignError(
        f"unknown execution mode {execution!r} "
        f"(expected serial/threads/service)"
    )


def _execute_serial(spec: CampaignSpec, ctx: StageContext, *,
                    stage_store: ResultCache, fingerprint: str,
                    bypass: bool, share_ctx: bool,
                    run_one: StageRunner) -> dict[str, StageOutcome]:
    """The oracle loop: exactly the pre-scheduler runner semantics."""
    outcomes: dict[str, StageOutcome] = {}
    payloads: dict[str, Any] = {}
    failed_ids: set[str] = set()
    aborted = False
    for stage_id in spec.topo_order():
        stage = spec.stage(stage_id)
        if aborted or any(dep in failed_ids for dep in stage.needs):
            # No outcome: finalization records the skip itself.
            failed_ids.add(stage_id)
            continue
        key = task_key("campaign-stage", fingerprint, stage_id)
        outcome = _execute_stage_once(
            _stage_ctx(ctx, share=share_ctx), stage, key, stage_store,
            bypass_stage_cache=bypass, run_one=run_one,
            flush=not share_ctx,
        )
        if outcome.error is None:
            payloads[stage_id] = outcome.payload
            outcome.checks = evaluate_checks(stage, outcome.payload,
                                             payloads)
        outcomes[stage_id] = outcome
        if outcome.status != "ok":
            failed_ids.add(stage_id)
            if spec.on_fail == "abort":
                aborted = True
    return outcomes


def _execute_threads(spec: CampaignSpec, ctx: StageContext, *,
                     stage_store: ResultCache, fingerprint: str,
                     workers: int, bypass: bool, share_ctx: bool,
                     run_one: StageRunner) -> dict[str, StageOutcome]:
    """Ready-set dispatch across a bounded stage-thread pool.

    Invariants that make the later serial-semantics replay sound:

    * a stage is dispatched only when all its ``needs`` completed with
      status ``ok`` — so everything the serial loop would have run
      does run;
    * under ``on_fail = "abort"``, an observed failure at topo
      position *p* stops dispatch of stages positioned after
      ``min(p)`` (the serial loop would have aborted at or before the
      earliest failure), while earlier-positioned stages still
      dispatch — the serial loop reached them first;
    * a stage whose dependency failed/errored/was skipped is decided
      ``skipped`` without dispatching (both modes; under abort the
      barrier implies it).
    """
    order = spec.topo_order()
    pos = {sid: i for i, sid in enumerate(order)}
    stages = {sid: spec.stage(sid) for sid in order}
    outcomes: dict[str, StageOutcome] = {}
    statuses: dict[str, str] = {}
    payloads: dict[str, Any] = {}
    waiting = list(order)
    in_flight: dict[Future, str] = {}
    abort = spec.on_fail == "abort"
    abort_pos = len(order)

    def settle(sid: str, outcome: StageOutcome) -> None:
        nonlocal abort_pos
        if outcome.error is None:
            payloads[sid] = outcome.payload
            outcome.checks = evaluate_checks(
                stages[sid], outcome.payload, payloads)
        outcomes[sid] = outcome
        statuses[sid] = outcome.status
        if abort and outcome.status != "ok":
            abort_pos = min(abort_pos, pos[sid])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        while waiting or in_flight:
            with phase("campaign.schedule"):
                progressed = True
                while progressed:
                    progressed = False
                    for sid in list(waiting):
                        stage = stages[sid]
                        dep_states = [statuses.get(d)
                                      for d in stage.needs]
                        doomed = any(
                            s is not None and s != "ok"
                            for s in dep_states
                        ) or (abort and pos[sid] > abort_pos)
                        if doomed:
                            # Fate already decided: the serial loop
                            # skips it too.  No outcome recorded.
                            statuses[sid] = "skipped"
                            waiting.remove(sid)
                            progressed = True
                        elif all(s == "ok" for s in dep_states):
                            key = task_key("campaign-stage",
                                           fingerprint, sid)
                            fut = pool.submit(
                                _execute_stage_once,
                                _stage_ctx(ctx, share=share_ctx),
                                stage, key, stage_store,
                                bypass_stage_cache=bypass,
                                run_one=run_one, flush=not share_ctx,
                            )
                            in_flight[fut] = sid
                            waiting.remove(sid)
                            progressed = True
            if not in_flight:
                if waiting:  # pragma: no cover - defensive
                    raise CampaignError(
                        f"scheduler wedged with stages waiting: "
                        f"{waiting}"
                    )
                continue
            done, _ = wait(list(in_flight),
                           return_when=FIRST_COMPLETED)
            with phase("campaign.schedule"):
                # Settle completions in topo order so check evaluation
                # and abort-barrier movement are deterministic even
                # when several futures land in the same wake-up.
                for fut in sorted(done, key=lambda f: pos[in_flight[f]]):
                    settle(in_flight.pop(fut), fut.result())
    return outcomes


def finalize_records(spec: CampaignSpec,
                     outcomes: dict[str, StageOutcome],
                     fingerprint: str) -> list[tuple[StageSpec, str,
                                                     StageOutcome | None,
                                                     str]]:
    """Replay the serial runner's skip/abort walk over the outcomes.

    Returns ``(stage, status, outcome_or_None, key)`` per stage in
    topo order — the single source of truth the runner turns into
    manifest records.  An outcome that exists but falls after the
    replay's abort point is dropped (recorded ``skipped``), which is
    exactly what a serial run — which never executed it — would have
    written; its payload stays in the stage cache for a later resume.
    """
    rows: list[tuple[StageSpec, str, StageOutcome | None, str]] = []
    failed_ids: set[str] = set()
    aborted = False
    for stage_id in spec.topo_order():
        stage = spec.stage(stage_id)
        key = task_key("campaign-stage", fingerprint, stage_id)
        if aborted or any(dep in failed_ids for dep in stage.needs):
            rows.append((stage, "skipped", None, key))
            failed_ids.add(stage_id)
            continue
        outcome = outcomes.get(stage_id)
        if outcome is None:  # pragma: no cover - defensive
            raise CampaignError(
                f"stage {stage_id!r} has no outcome but is not "
                f"skippable — scheduler invariant broken"
            )
        status = outcome.status
        rows.append((stage, status, outcome, key))
        if status != "ok":
            failed_ids.add(stage_id)
            if spec.on_fail == "abort":
                aborted = True
    return rows


# -- service execution ---------------------------------------------------------


def service_stage_runner(address: str, *,
                         timeout: float = 600.0) -> StageRunner:
    """A :data:`StageRunner` that ships each stage to a job server.

    The stage-cache get/put, check evaluation and all skip/abort
    bookkeeping stay client-side (identical resume semantics); only
    the stage *body* crosses the wire, as a ``campaign_stage`` job
    carrying the spec mapping.  Task caching happens server-side
    against the same on-disk root, so a resumed campaign still
    replays partial sweeps.
    """
    from repro.service.client import ServiceClient

    def run_one(ctx: StageContext, stage: StageSpec) -> tuple[dict, dict]:
        params = {
            "spec": ctx.spec.to_mapping(),
            "stage_id": stage.id,
            "corner": ctx.spec.corner,
            "out_dir": str(ctx.out_dir),
            "cache_root": str(ctx.cache.root),
        }
        try:
            with ServiceClient(address, timeout=timeout) as client:
                response = client.request("campaign_stage",
                                          params=params)
        except Exception as exc:
            raise StageExecutionError(
                f"stage {stage.id!r} via service {address}: {exc}"
            ) from exc
        if response.get("status") != "ok":
            detail = response.get("error") or response
            raise StageExecutionError(
                f"stage {stage.id!r} via service {address}: {detail}"
            )
        result = response.get("result") or {}
        volatile = dict(result.get("volatile") or {})
        volatile["service"] = {
            "address": address,
            "shard": response.get("shard"),
            "attempts": response.get("attempts"),
            "quality": response.get("quality"),
        }
        return result["payload"], volatile

    return run_one


@contextmanager
def hosted_service(backend_spec: str, *,
                   shards: int = 2,
                   startup_timeout_s: float = 60.0) -> Iterator[str]:
    """Self-host a ``repro serve`` subprocess for one campaign run.

    Yields the ``unix:<socket>`` address; the server is terminated on
    exit.  Used when ``execution = "service"`` without an explicit
    server address — the campaign brings its own fleet.
    """
    src_root = Path(__file__).resolve().parents[2]
    env = dict(
        os.environ,
        PYTHONPATH=f"{src_root}:{os.environ.get('PYTHONPATH', '')}",
    )
    # Unix socket paths cap at ~104 bytes; keep it in a short tempdir.
    tmp = Path(tempfile.mkdtemp(prefix="campaign-sched-"))
    sock = tmp / "svc.sock"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--unix", str(sock),
         "--backend", backend_spec, "--executor", "inline",
         "--shards", str(shards)],
        env=env, stdout=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + startup_timeout_s
        while not sock.exists():
            if server.poll() is not None:
                raise CampaignError(
                    f"hosted job server exited rc={server.returncode} "
                    f"before opening its socket"
                )
            if time.monotonic() > deadline:
                raise CampaignError(
                    "hosted job server socket never appeared"
                )
            time.sleep(0.05)
        yield f"unix:{sock}"
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                server.kill()
                server.wait(timeout=30)
