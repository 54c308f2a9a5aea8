"""The campaign runner: resumable DAG execution with a manifest.

Execution model
---------------

Stage execution is delegated to the campaign scheduler
(:mod:`repro.campaign.scheduler`): one ready-set loop over the spec's
DAG that runs every stage whose ``needs`` are satisfied.  A body that
misses the stage cache runs in a bounded pool of stage processes
(``execution = "parallel"``, the default; ``"threads"`` is its legacy
spelling) or inline in this process, one stage at a time in topo
order (``"serial"``).  Recording is *not* delegated: the runner
replays the serial skip/abort walk over the scheduler's outcomes in
topo order (:func:`~repro.campaign.scheduler.finalize_records`), so
the manifest is bit-identical across execution modes — same records
in the same order, same stage-cache keys, same resume behaviour.

Every stage result is memoized in a dedicated *stage-result* cache
under the task cache root, keyed by::

    task_key("campaign-stage", campaign_fingerprint, stage_id)

where the **campaign fingerprint** folds

* the spec hash (what the campaign computes — chaos excluded),
* the design fingerprint *including the resolved backend's
  fingerprint* and the numeric environment (NumPy build, kernel
  layout/dtype/backend),
* the corner token.

Kill the process mid-run — power cut, SIGKILL, the
:class:`~repro.runtime.chaos.KillAfterPuts` drill — and re-invoking
the same spec replays completed stages from the stage cache (and
partially completed sweeps from the task cache) to a bit-identical
outcome.  Checks are *always* re-evaluated, so tightening a criterion
re-judges cached results without re-measuring.

Chaos interplay: when the spec carries an active ``[chaos]`` block the
runner vandalizes task-cache entries up front
(:meth:`~repro.runtime.chaos.ChaosMonkey.corrupt_cache`), hands a
seeded monkey to the stages for worker-kill injection, and *bypasses
stage-cache reads* — a drill must actually re-execute its sweeps to
prove the runtime heals; the task cache underneath still does the
heavy lifting, which is exactly the claim under test.  Chaos drills
(and ``kill_after_puts``) run ``serial``: the armed cache and the
monkey's kill budget live in this process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.campaign.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    RESULTS_DIR,
    dump_json,
    provenance_info,
)
from repro.campaign.scheduler import (
    execute_outcomes,
    finalize_records,
    resolve_stage_workers,
)
from repro.campaign.schema import (
    CAMPAIGN_SCHEMA,
    EXECUTION_MODES,
    execution_mode,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.stages import NONDETERMINISTIC_KINDS, StageContext
from repro.errors import CampaignError
from repro.runtime.cache import ResultCache, design_fingerprint, \
    stable_hash
from repro.runtime.chaos import ChaosMonkey, KillAfterPuts

#: Subdirectory of the output dir holding the task + stage caches when
#: the caller does not supply a cache root explicitly.
CACHE_DIR = "cache"

#: Stage-result namespace under the task-cache root — separate so
#: seeded cache vandalism (which samples *task* entries) can never
#: corrupt a finished stage's payload.
STAGE_STORE = "stages"


@dataclass
class StageRecord:
    """One stage's manifest row."""

    id: str
    kind: str
    status: str            # ok | failed | error | skipped
    key: str
    deterministic: bool
    resumed: bool
    payload: Any
    checks: list
    volatile: dict
    artifact: str | None
    wall_s: float
    cpu_s: float

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class CampaignRun:
    """What :func:`run_campaign` hands back (and wrote to disk)."""

    spec: CampaignSpec
    fingerprint: str
    out_dir: Path
    records: list
    manifest: dict

    @property
    def outcome(self) -> str:
        return self.manifest["outcome"]

    @property
    def ok(self) -> bool:
        return self.outcome == "passed"

    def record(self, stage_id: str) -> StageRecord:
        for record in self.records:
            if record.id == stage_id:
                return record
        raise CampaignError(f"no stage record {stage_id!r}")


def campaign_fingerprint(spec: CampaignSpec, design: Any,
                         backend: Any) -> str:
    """The identity every stage key hangs off (see module docstring)."""
    return stable_hash((
        "campaign-fingerprint",
        spec.spec_hash(),
        design_fingerprint(design, backend=backend),
        spec.corner or "nominal",
    ))


def _corner_tech(spec: CampaignSpec, design: Any):
    if spec.corner is None:
        return None
    from repro.devices.corners import corner_by_name

    return corner_by_name(spec.corner).apply(design.tech)


def run_campaign(spec: CampaignSpec, *, out_dir: str | Path,
                 cache: ResultCache | str | None = None,
                 kill_after_puts: int | None = None,
                 execution: str | None = None,
                 stage_workers: int | None = None) -> CampaignRun:
    """Execute (or resume) a campaign; write results + manifest.

    Args:
        spec: A validated :class:`~repro.campaign.spec.CampaignSpec`.
        out_dir: Output directory; created if missing.  Holds
            ``results/<stage>.json``, ``manifest.json`` and (default)
            the cache root — point a re-invocation at the same
            directory and it resumes.
        cache: Task-cache root override (ResultCache or path).  The
            stage store lives under ``<root>/stages``.
        kill_after_puts: Crash-drill hook — SIGKILL this process after
            the Nth task-cache put (armed once via a marker file in
            ``out_dir``; see
            :class:`~repro.runtime.chaos.KillAfterPuts`).
        execution: Override the spec's ``runtime.execution`` mode
            (``serial`` / ``parallel``; ``threads`` reads as
            ``parallel``); None keeps the spec's choice.  Chaos drills
            (an active ``[chaos]`` block or ``kill_after_puts``) run
            ``serial`` — the armed cache and the seeded monkey live in
            *this* process, and a stage process would defuse the
            drill.
        stage_workers: Override the spec's ``runtime.stage_workers``
            stage-process count (0/None = default).

    Returns:
        The :class:`CampaignRun`; ``run.ok`` is the pass/fail verdict
        (stage errors and failed checks both fail a campaign).
    """
    from repro.backends import resolve_backend
    from repro.core.calibration import paper_design

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if cache is None:
        cache_root = out_dir / CACHE_DIR
    elif isinstance(cache, ResultCache):
        cache_root = cache.root
    else:
        cache_root = Path(cache)
    if kill_after_puts is not None:
        task_cache: ResultCache = KillAfterPuts(
            cache_root, kill_after=kill_after_puts,
            marker=out_dir / "chaos-kill.marker",
        )
    else:
        task_cache = ResultCache(cache_root)
    stage_store = ResultCache(cache_root / STAGE_STORE)

    design = paper_design()
    tech = _corner_tech(spec, design)
    backend = resolve_backend(spec.backend)
    fingerprint = campaign_fingerprint(spec, design, backend)

    chaos = spec.chaos
    monkey = None
    vandalized: tuple = ()
    if chaos is not None and chaos.active:
        monkey = ChaosMonkey(chaos.seed)
        if chaos.corrupt_cache > 0:
            # Clamped: a cold cache has nothing to vandalize yet.
            n = min(chaos.corrupt_cache, len(task_cache.entries()))
            if n:
                vandalized = tuple(
                    str(p) for p in
                    monkey.corrupt_cache(task_cache, n_entries=n)
                )

    ctx = StageContext(
        spec=spec, design=design, tech=tech, backend=backend,
        cache=task_cache, out_dir=out_dir, monkey=monkey,
        kill_tasks=chaos.kill_worker_tasks if chaos else 0,
        vandalized=vandalized,
    )

    results_dir = out_dir / RESULTS_DIR
    records: list[StageRecord] = []
    started = time.time()

    mode = execution_mode(spec.execution if execution is None
                          else execution)
    if mode not in EXECUTION_MODES:
        raise CampaignError(
            f"unknown execution mode {mode!r} "
            f"(expected one of {EXECUTION_MODES})"
        )
    if monkey is not None or kill_after_puts is not None:
        mode = "serial"
    outcomes = execute_outcomes(
        spec, ctx, stage_store=stage_store, fingerprint=fingerprint,
        execution=mode,
        stage_workers=resolve_stage_workers(spec, stage_workers),
    )

    # Recording replays the serial walk over the outcomes, so the
    # manifest below is bit-identical no matter which mode ran.
    for stage, status, outcome, key in finalize_records(
            spec, outcomes, fingerprint):
        deterministic = stage.kind not in NONDETERMINISTIC_KINDS
        if status == "skipped":
            records.append(StageRecord(
                id=stage.id, kind=stage.kind, status="skipped",
                key=key, deterministic=deterministic, resumed=False,
                payload=None, checks=[], volatile={}, artifact=None,
                wall_s=0.0, cpu_s=0.0,
            ))
            continue
        if status == "error":
            records.append(StageRecord(
                id=stage.id, kind=stage.kind, status="error",
                key=key, deterministic=deterministic, resumed=False,
                payload=None, checks=[], volatile=outcome.volatile,
                artifact=None, wall_s=outcome.wall_s,
                cpu_s=outcome.cpu_s,
            ))
            outcome.volatile["error"] = outcome.error
            continue
        dump_json(outcome.payload, results_dir / f"{stage.id}.json")
        records.append(StageRecord(
            id=stage.id, kind=stage.kind, status=status, key=key,
            deterministic=deterministic, resumed=outcome.resumed,
            payload=outcome.payload, checks=outcome.checks,
            volatile=outcome.volatile,
            artifact=f"{RESULTS_DIR}/{stage.id}.json",
            wall_s=outcome.wall_s, cpu_s=outcome.cpu_s,
        ))

    task_cache.flush_stats()
    n_ok = sum(1 for r in records if r.ok)
    outcome = "passed" if n_ok == len(records) else "failed"
    manifest = {
        "manifest_schema": MANIFEST_SCHEMA,
        "name": spec.name,
        "description": spec.description,
        "campaign_schema": CAMPAIGN_SCHEMA,
        "spec_source": spec.source,
        "spec_hash": spec.spec_hash(),
        "campaign_fingerprint": fingerprint,
        "backend": {
            "spec": spec.backend,
            "id": backend.id,
            "fingerprint": backend.fingerprint(),
        },
        "corner": spec.corner,
        "seed": spec.seed,
        "chaos_active": bool(monkey is not None),
        "provenance": provenance_info(),
        "outcome": outcome,
        "stages": [
            {
                "id": r.id,
                "kind": r.kind,
                "status": r.status,
                "key": r.key,
                "deterministic": r.deterministic,
                "resumed": r.resumed,
                "artifact": r.artifact,
                "checks": r.checks,
                "volatile": r.volatile,
                "wall_s": round(r.wall_s, 6),
                "cpu_s": round(r.cpu_s, 6),
            }
            for r in records
        ],
        "cache": {
            "root": str(task_cache.root),
            "lifetime": task_cache.lifetime_stats(),
        },
        "wall_s": round(time.time() - started, 6),
    }
    dump_json(manifest, out_dir / MANIFEST_NAME)
    return CampaignRun(spec=spec, fingerprint=fingerprint,
                       out_dir=out_dir, records=records,
                       manifest=manifest)
