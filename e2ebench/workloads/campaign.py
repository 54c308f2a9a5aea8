"""``campaign`` and ``campaign-resume``: the CPU-bound campaign twin.

``campaign_cpu.toml`` runs nine kernel-backend stages on two stage
threads over a two-process task pool with one retry.  ``campaign``
times cold runs, each into an empty output directory (stage bodies,
the resilient executor, the scheduler).  ``campaign-resume`` times
re-invocations of one finished run, which replay every stage from the
stage cache (scheduler, cache reads and the manifest).  ``--seed``
becomes the spec's seed, which seeds the telemetry trace, the lot and
the s-curves.

A cold run must pass its checks and equal a serial run of the same
spec at ``float_tol=0``; a resume must mark every stage resumed and
equal the cold run at ``float_tol=0``.
"""

from __future__ import annotations

import shutil
import statistics
import tomllib
from pathlib import Path
from typing import Any

from e2ebench.common import (
    BENCH_DIR,
    Context,
    Outcome,
    digest,
    load_golden,
    probe_setup,
    scratch_dir,
)

SPEC_PATH = BENCH_DIR / "campaign_cpu.toml"


def ready(seed: int = 2009) -> tuple[Any, Any]:
    """Set-up: import the campaign layer, build the design, load the
    spec with ``seed``."""
    from repro.campaign import spec_from_mapping
    from repro.core.calibration import paper_design

    mapping = tomllib.loads(SPEC_PATH.read_text())
    mapping["seed"] = seed
    return spec_from_mapping(mapping, source=str(SPEC_PATH)), paper_design()


def _results(run: Any) -> list[tuple[str, str, Any]]:
    return [(r.id, r.status, r.payload) for r in run.records]


def _check(run: Any, *, resumed: bool) -> list[str]:
    problems = [f"stage {r.id}: {r.status}" for r in run.records
                if r.status != "ok"]
    if not run.ok:
        problems.append(f"campaign outcome {run.outcome}")
    if resumed and not all(r.resumed for r in run.records):
        problems.append("stages recomputed on resume: "
                        + ", ".join(r.id for r in run.records
                                    if not r.resumed))
    return problems


def _diff(run_dir: Path, golden_dir: Path) -> list[str]:
    from repro.campaign import diff_campaign

    report = diff_campaign(run_dir, golden_dir, float_tol=0.0)
    return [f"diverged from {golden_dir.name}: {d}"
            for d in report.divergences[:5]]


def run(ctx: Context, *, resume: bool) -> Outcome:
    # Calls go through the package attribute, which the tracer rebinds.
    import repro.campaign

    setups = ctx.setups(lambda: probe_setup(ctx.workload))
    spec, _design = ready(ctx.seed)
    n_stages = len(spec.stages)
    problems: list[str] = []
    state = {"units": 0, "failed": 0}

    with scratch_dir(ctx.workload) as root:
        serial_dir = root / "serial"
        serial = repro.campaign.run_campaign(spec, out_dir=serial_dir,
                                             execution="serial")
        problems += _check(serial, resumed=False)
        golden = load_golden()["campaign"].get(str(ctx.seed))
        if golden is not None and digest(_results(serial)) != golden:
            problems.append(f"serial results digest "
                            f"{digest(_results(serial))} differs from "
                            f"the golden {golden}")
        resume_dir = root / "resume"
        if resume:
            first = repro.campaign.run_campaign(spec, out_dir=resume_dir)
            problems += _check(first, resumed=False)
            problems += _diff(resume_dir, serial_dir)

        def unit() -> float:
            state["units"] += 1
            out_dir = (resume_dir if resume
                       else root / f"cold-{state['units']}")
            with ctx.timed() as timer:
                result = repro.campaign.run_campaign(spec, out_dir=out_dir)
            bad = _check(result, resumed=resume) + _diff(out_dir,
                                                         serial_dir)
            if bad:
                state["failed"] += 1
                problems.extend(bad)
            if not resume:
                shutil.rmtree(out_dir, ignore_errors=True)
            return timer.elapsed

        plain, traced = ctx.measure(unit)

    out = Outcome(
        setup_s=setups,
        unit_s=plain,
        run_s=statistics.median(plain),
        attempted=state["units"] * n_stages,
        failed=state["failed"] * n_stages,
        problems=problems[:20],
        detail={"stages": n_stages, "units": len(plain),
                "serial_stage_wall_s": {r.id: r.wall_s
                                        for r in serial.records}},
    )
    out.set_traced(traced)
    return out
