"""The campaign-level stage scheduler: a ready-set executor over the
spec's DAG.

:func:`execute_outcomes` walks :meth:`~repro.campaign.spec.
CampaignSpec.topo_order` in one dispatch loop: every waiting stage
whose ``needs`` are all satisfied is read from the stage cache, and a
miss runs its body in one of two places, set by the execution mode:

* ``serial`` — inline, in the campaign process, with the campaign's
  own context (task cache, ``runtime.workers``, chaos monkey); the
  loop settles each body before it looks at the next waiting stage,
  so stages run one at a time in topo order.  Chaos drills (an active
  ``[chaos]`` block or an armed
  :class:`~repro.runtime.chaos.KillAfterPuts`) always run serial: the
  armed cache and the seeded monkey's kill budget live in the
  campaign process, and the drill must trip them there;
* ``parallel`` (default; ``threads`` is its legacy spelling) — in a
  *stage process*, on a :mod:`repro.runtime.pool` pool started at the
  first miss, so a fully resumed run starts no process.  It has
  ``stage_workers`` processes, or fewer when the DAG is too narrow to
  use them (a chain of stages gets one).  Pure-Python stages hold the
  GIL, so threads could not overlap them; processes can.  A stage
  process runs its stage's inner maps serially (``workers=1``): the
  stage pool is the campaign's only level of parallelism, and nested
  pools would only over-subscribe the CPUs.

Under ``parallel``, parent and stage process split each stage's
work: the parent reads the stage cache, evaluates the checks and
writes the stage cache; a stage process runs only the body and hands
back its :class:`StageOutcome` (and its profile phases, which the
parent merges).  A stage process that dies (SIGKILL, OOM) breaks the
pool; the scheduler then raises a :class:`~repro.errors.CampaignError`
naming the in-flight stages, and a re-invocation resumes from the
stages already stored.

Bit-identity discipline
-----------------------

Execution and *recording* are decoupled.  Stage bodies only
read/write the (on-disk) task cache and produce :class:`StageOutcome`
values; the runner then replays the serial runner's exact skip/abort
bookkeeping in topo order over those outcomes
(:func:`finalize_records`), so the manifest's stage records, statuses,
artifacts and check verdicts are byte-identical to a serial run no
matter what order stages completed in.

Failure semantics mirror the serial walk precisely:

* ``on_fail = "abort"``: once a stage at topo position *p* fails, no
  stage at a position after *p* is dispatched (in-flight stages drain;
  the finalization walk records them as ``skipped``, exactly as the
  serial runner — which never ran them — would have).  Stages *before*
  *p* still run: the serial walk would have completed them first.
* ``on_fail = "continue"``: only transitive dependents of a failure
  are skipped; independent stages keep dispatching.

Cache counters: each stage process gets its own
:class:`~repro.runtime.cache.ResultCache` instance over the task-cache
root and flushes it before returning, so the per-stage
``task_cache_delta`` in the manifest is exact and the root's lifetime
counters see every stage.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.campaign import stages as stage_kinds
from repro.campaign.criteria import evaluate_checks
from repro.campaign.spec import CampaignSpec, StageSpec
from repro.campaign.stages import NONDETERMINISTIC_KINDS, StageContext
from repro.errors import CampaignError, StageExecutionError
from repro.runtime.cache import ResultCache, task_key
from repro.runtime.profiling import phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.pool import WorkerPool

#: Stage processes when the spec and the CLI leave
#: ``runtime.stage_workers`` at 0.  Fixed rather than sized to the
#: host, so a spec starts the same processes everywhere: a CPU-bound
#: campaign gains at most ``min(this, CPUs)``, a dwell-bound one (a
#: stage waiting on a subprocess or an instrument) up to this many.
DEFAULT_STAGE_WORKERS = 4


def _start_pool(max_workers: int) -> WorkerPool:
    """The stage pool, made at the first stage-cache miss, so a fully
    resumed run loads neither it nor ``multiprocessing``."""
    from repro.runtime.pool import WorkerPool

    return WorkerPool(max_workers)


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


def _counts(cache: ResultCache) -> tuple[int, int, int]:
    return cache.hits, cache.misses, cache.errors


def _lookup(stage: StageSpec, key: str, stage_store: ResultCache, *,
            bypass: bool) -> StageOutcome | None:
    """Parent side: the stored outcome of a finished stage, or None
    when its body must run.  Chaos drills (``bypass``) must re-execute
    their sweeps, and nondeterministic kinds are never stored."""
    if bypass or stage.kind in NONDETERMINISTIC_KINDS:
        return None
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    with phase(f"campaign.stage.{stage.id}"):
        hit, payload = stage_store.get(key)
    if not hit:
        return None
    return StageOutcome(
        stage_id=stage.id, payload=payload, resumed=True,
        volatile={"task_cache_delta": {"hits": 0, "misses": 0,
                                       "errors": 0}},
        wall_s=time.perf_counter() - wall0,
        cpu_s=time.thread_time() - cpu0,
    )


def _run_body(ctx: StageContext, stage: StageSpec) -> StageOutcome:
    """Run one stage body where it is called — the campaign process
    under ``serial``, a stage process under ``parallel``.  CPU time is
    the calling thread's own."""
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    counts0 = _counts(ctx.cache)
    payload, volatile, error = None, {}, None
    with phase(f"campaign.stage.{stage.id}"):
        try:
            # Looked up through the module, which a tracer may rebind.
            payload, volatile = stage_kinds.execute_stage(ctx, stage)
        except StageExecutionError as exc:
            error = str(exc)
    volatile = dict(volatile)
    volatile["task_cache_delta"] = dict(zip(
        ("hits", "misses", "errors"),
        (b - a for a, b in zip(counts0, _counts(ctx.cache))),
    ))
    return StageOutcome(
        stage_id=stage.id, payload=payload, volatile=volatile,
        error=error, wall_s=time.perf_counter() - wall0,
        cpu_s=time.thread_time() - cpu0,
    )


def _stage_process(ctx: StageContext, stage: StageSpec) -> StageOutcome:
    """A stage-process task: one body."""
    try:
        return _run_body(ctx, stage)
    finally:
        # A pool worker never runs atexit hooks.
        ctx.cache.flush_stats()


def _pool_size(order: tuple[str, ...], stages: dict[str, StageSpec],
               workers: int) -> int:
    """Stage processes to start: ``workers``, capped at ``n - L + 1``.

    ``n`` is the number of stages and ``L`` the length of the longest
    ``needs`` chain.  Stages that run at once form an antichain, which
    holds at most one stage of that chain, so the cap is never below
    the DAG's widest antichain.  A chain gets one process.
    """
    depth: dict[str, int] = {}
    for sid in order:
        depth[sid] = 1 + max((depth[d] for d in stages[sid].needs),
                             default=0)
    return min(workers, len(order) - max(depth.values()) + 1)


def execute_outcomes(spec: CampaignSpec, ctx: StageContext, *,
                     stage_store: ResultCache, fingerprint: str,
                     execution: str, stage_workers: int,
                     ) -> dict[str, StageOutcome]:
    """Run the campaign DAG; returns ``{stage_id: StageOutcome}``.

    One ready-set loop for both modes.  Invariants that make the
    serial-semantics replay (:func:`finalize_records`) sound:

    * a stage is dispatched only when all its ``needs`` completed with
      status ``ok`` — so everything the serial walk would have run
      does run;
    * under ``on_fail = "abort"``, an observed failure at topo
      position *p* stops dispatch of stages positioned after
      ``min(p)`` (the serial walk would have aborted at or before the
      earliest failure), while earlier-positioned stages still
      dispatch — the serial walk reached them first;
    * a stage whose dependency failed/errored/was skipped is decided
      ``skipped`` without dispatching (under abort the barrier implies
      it).

    A ready stage found in the stage cache settles right here in the
    parent.  A miss runs its body inline under ``serial`` (settled
    before the next waiting stage is looked at, so stages run one at a
    time in topo order) and on the stage pool under ``parallel``.
    Only stages the serial walk would execute are guaranteed an
    outcome; under ``parallel`` a stage dispatched before an abort
    barrier moved ahead of it may *also* carry an outcome — the
    finalization walk ignores it (its payload stays in the stage
    cache, ready for a later resume).

    Raises:
        CampaignError: a stage process died.
    """
    bypass = ctx.monkey is not None
    inline = execution == "serial"
    order = spec.topo_order()
    pos = {sid: i for i, sid in enumerate(order)}
    stages = {sid: spec.stage(sid) for sid in order}
    keys = {sid: task_key("campaign-stage", fingerprint, sid)
            for sid in order}
    outcomes: dict[str, StageOutcome] = {}
    statuses: dict[str, str] = {}
    payloads: dict[str, Any] = {}
    waiting = list(order)
    in_flight: dict[Future, str] = {}
    abort = spec.on_fail == "abort"
    abort_pos = len(order)
    # Each stage process gets a fresh task-cache instance (exact
    # per-stage counters) and runs its inner maps serially.
    child_ctx = replace(ctx, cache=ResultCache(ctx.cache.root),
                        inner_workers=1)
    pool: WorkerPool | None = None

    def settle(sid: str, outcome: StageOutcome) -> None:
        nonlocal abort_pos
        stage = stages[sid]
        if outcome.error is None:
            if not outcome.resumed \
                    and stage.kind not in NONDETERMINISTIC_KINDS:
                stage_store.put(keys[sid], outcome.payload)
            payloads[sid] = outcome.payload
            outcome.checks = evaluate_checks(stage, outcome.payload,
                                             payloads)
        outcomes[sid] = outcome
        statuses[sid] = outcome.status
        if abort and outcome.status != "ok":
            abort_pos = min(abort_pos, pos[sid])

    def dispatch() -> str | None:
        """Decide every waiting stage that can be decided now; return
        the first one whose body must run inline, or None."""
        nonlocal pool
        progressed = True
        while progressed:
            progressed = False
            for sid in list(waiting):
                stage = stages[sid]
                dep_states = [statuses.get(d) for d in stage.needs]
                doomed = any(s is not None and s != "ok"
                             for s in dep_states) \
                    or (abort and pos[sid] > abort_pos)
                if doomed:
                    # Fate already decided: the serial walk skips it
                    # too.  No outcome recorded.
                    statuses[sid] = "skipped"
                elif any(s != "ok" for s in dep_states):
                    continue  # a dependency is still running
                elif (hit := _lookup(stage, keys[sid], stage_store,
                                     bypass=bypass)) is not None:
                    settle(sid, hit)
                elif inline:
                    waiting.remove(sid)
                    return sid
                else:
                    if pool is None:
                        pool = stack.enter_context(_start_pool(
                            _pool_size(order, stages, stage_workers)))
                    fut = pool.submit(_stage_process, child_ctx, stage)
                    in_flight[fut] = sid
                waiting.remove(sid)
                progressed = True
        return None

    with ExitStack() as stack:  # joins or kills the stage pool
        while waiting or in_flight:
            with phase("campaign.schedule"):
                sid = dispatch()
            if sid is not None:
                # Outside the schedule phase, so --profile books the
                # body as stage time, not scheduling.
                outcome = _run_body(ctx, stages[sid])
                with phase("campaign.schedule"):
                    settle(sid, outcome)
                continue
            if not in_flight:
                if waiting:  # pragma: no cover - defensive
                    raise CampaignError(
                        f"scheduler wedged with stages waiting: "
                        f"{waiting}"
                    )
                continue
            # Loaded with the pool, which any stage in flight started.
            from concurrent.futures.process import BrokenProcessPool

            done, _ = wait(list(in_flight),
                           return_when=FIRST_COMPLETED)
            with phase("campaign.schedule"):
                # Settle completions in topo order so check evaluation
                # and abort-barrier movement are deterministic even
                # when several futures land in the same wake-up.
                for fut in sorted(done, key=lambda f: pos[in_flight[f]]):
                    try:
                        outcome = pool.result(fut)
                    except BrokenProcessPool as exc:
                        lost = sorted(in_flight.values(), key=pos.get)
                        raise CampaignError(
                            f"a stage process died with stage(s) "
                            f"{lost} in flight; re-run the campaign "
                            f"to resume from the stored stages"
                        ) from exc
                    settle(in_flight.pop(fut), outcome)
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
