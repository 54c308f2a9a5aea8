"""Campaign scheduler: parallel-vs-serial bit-identity, failure
semantics, service execution, and stats-log compaction."""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CAMPAIGN_SCHEMA,
    EXECUTION_MODES,
    read_manifest,
    run_campaign,
    spec_from_mapping,
)
from repro.errors import CampaignSpecError

# -- helpers --------------------------------------------------------------


def synth(stage_id, *, needs=(), value=1.0, dwell_ms=0.0, fail=False,
          bad_check=False):
    """One synthetic stage dict; ``fail`` errors after the dwell,
    ``bad_check`` makes the stage run but fail its check."""
    stage = {
        "id": stage_id,
        "kind": "synthetic",
        "needs": list(needs),
        "params": {"value": value, "dwell_ms": dwell_ms},
        "checks": [{"kind": "equals", "field": "stage",
                    "value": stage_id if not bad_check else "nope"}],
    }
    if fail:
        stage["params"]["fail"] = True
    return stage


def make_spec(stages, **runtime):
    return spec_from_mapping({
        "schema": CAMPAIGN_SCHEMA,
        "name": "sched-test",
        "backend": {"spec": "kernel"},
        "runtime": runtime,
        "stages": stages,
    })


def stripped(manifest):
    """The manifest minus everything legitimately volatile: per-stage
    and total wall/cpu time, volatile counter blobs, and the cache
    root path (it embeds the per-run tmp dir).  Everything left must
    be bit-identical across execution modes."""
    out = dict(manifest)
    out.pop("wall_s", None)
    out.pop("cache", None)
    out["stages"] = [
        {k: v for k, v in s.items()
         if k not in ("wall_s", "cpu_s", "volatile")}
        for s in manifest["stages"]
    ]
    return out


def run_both(stages, **runtime):
    """The same spec through the serial oracle and the thread
    scheduler, each in a cold tree; returns both manifests."""
    spec = make_spec(stages, **runtime)
    work = Path(tempfile.mkdtemp(prefix="sched-prop-"))
    try:
        run_campaign(spec, out_dir=work / "ser", execution="serial")
        run_campaign(spec, out_dir=work / "par", execution="threads",
                     stage_workers=4)
        return (read_manifest(work / "ser"),
                read_manifest(work / "par"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- spec plumbing --------------------------------------------------------


def test_execution_modes_validated():
    with pytest.raises(CampaignSpecError, match="runtime.execution"):
        make_spec([synth("s0")], execution="warp")
    for mode in EXECUTION_MODES:
        assert make_spec([synth("s0")], execution=mode).execution == mode


def test_spec_hash_invariant_under_scheduling_knobs():
    base = make_spec([synth("s0"), synth("s1", needs=["s0"])])
    for mode in EXECUTION_MODES:
        twin = make_spec([synth("s0"), synth("s1", needs=["s0"])],
                         execution=mode, stage_workers=7)
        assert twin.spec_hash() == base.spec_hash()


def test_to_mapping_round_trips_spec_hash():
    spec = make_spec(
        [synth("s0", value=2.5), synth("s1", needs=["s0"], fail=True)],
        execution="service", stage_workers=3, on_fail="continue",
    )
    clone = spec_from_mapping(spec.to_mapping())
    assert clone.spec_hash() == spec.spec_hash()
    assert clone.execution == "service" and clone.stage_workers == 3
    assert clone.stage("s1").param("fail") is True


def test_synthetic_fail_param_is_an_error_status(tmp_path):
    run = run_campaign(make_spec([synth("s0", fail=True)]),
                       out_dir=tmp_path / "out")
    rec = run.record("s0")
    assert rec.status == "error" and not run.ok
    assert "synthetic failure" in rec.volatile["error"]


# -- parallel/serial parity ----------------------------------------------


def test_wide_dag_parity_and_both_ran(tmp_path):
    stages = [synth(f"s{i}", value=float(i), dwell_ms=20.0)
              for i in range(5)]
    stages.append(synth("join", needs=[s["id"] for s in stages]))
    ser, par = run_both(stages)
    assert stripped(ser) == stripped(par)
    assert all(s["status"] == "ok" for s in par["stages"])


def test_abort_drains_in_flight_and_skips_like_serial():
    # s0 fails *slowly*; s1 is independent and finishes first.  The
    # serial oracle never reaches s1 (abort), so the parallel run must
    # record s1 as skipped even though it actually completed.
    stages = [
        synth("s0", dwell_ms=150.0, fail=True),
        synth("s1", dwell_ms=5.0),
        synth("s2", needs=["s0"]),
    ]
    ser, par = run_both(stages, on_fail="abort")
    assert stripped(ser) == stripped(par)
    by_id = {s["id"]: s for s in par["stages"]}
    assert by_id["s0"]["status"] == "error"
    assert by_id["s1"]["status"] == "skipped"
    assert by_id["s2"]["status"] == "skipped"


def test_abort_still_runs_stages_before_the_failure():
    # s0 is slow but OK; s1 fails fast.  Serial runs s0 first (it
    # precedes the failure in topo order), so parallel must too.
    stages = [
        synth("s0", dwell_ms=120.0),
        synth("s1", dwell_ms=5.0, fail=True),
        synth("s2", dwell_ms=5.0),
    ]
    ser, par = run_both(stages, on_fail="abort")
    assert stripped(ser) == stripped(par)
    by_id = {s["id"]: s for s in par["stages"]}
    assert by_id["s0"]["status"] == "ok"
    assert by_id["s1"]["status"] == "error"
    assert by_id["s2"]["status"] == "skipped"


def test_continue_skips_only_transitive_dependents():
    stages = [
        synth("root", fail=True),
        synth("child", needs=["root"]),
        synth("grandchild", needs=["child"]),
        synth("free", dwell_ms=10.0),
        synth("failcheck", bad_check=True),
    ]
    ser, par = run_both(stages, on_fail="continue")
    assert stripped(ser) == stripped(par)
    by_id = {s["id"]: s for s in par["stages"]}
    assert by_id["root"]["status"] == "error"
    assert by_id["child"]["status"] == "skipped"
    assert by_id["grandchild"]["status"] == "skipped"
    assert by_id["free"]["status"] == "ok"
    assert by_id["failcheck"]["status"] == "failed"


def test_resume_across_execution_modes(tmp_path):
    # A serial run warms the stage store; a threads re-run of the same
    # tree resumes every stage (same keys, same fingerprint).
    spec = make_spec([synth("s0"), synth("s1", needs=["s0"])])
    first = run_campaign(spec, out_dir=tmp_path / "out",
                         execution="serial")
    second = run_campaign(spec, out_dir=tmp_path / "out",
                          execution="threads")
    assert first.ok and second.ok
    for sid in ("s0", "s1"):
        assert not first.record(sid).resumed
        assert second.record(sid).resumed
        assert second.record(sid).payload == first.record(sid).payload


def test_thread_stage_cpu_excludes_siblings(tmp_path):
    """Under threads a stage is charged its own CPU time only: one that
    sleeps while its sibling burns CPU reads near zero."""
    import time

    from repro.campaign.scheduler import execute_outcomes
    from repro.campaign.stages import StageContext
    from repro.runtime.cache import ResultCache

    def run_one(ctx, stage):
        if stage.id == "sleeper":
            time.sleep(0.4)
        else:
            end = time.perf_counter() + 0.4
            while time.perf_counter() < end:
                pass
        return {"stage": stage.id}, {}

    spec = make_spec([synth("sleeper"), synth("burner")])
    ctx = StageContext(spec=spec, design=None, tech=None, backend=None,
                       cache=ResultCache(tmp_path / "tasks"),
                       out_dir=tmp_path)
    outcomes = execute_outcomes(
        spec, ctx, stage_store=ResultCache(tmp_path / "stages"),
        fingerprint="cpu-split", execution="threads", stage_workers=2,
        share_ctx=False, run_one=run_one,
    )
    sleeper, burner = outcomes["sleeper"], outcomes["burner"]
    assert sleeper.wall_s >= 0.4
    assert sleeper.cpu_s < 0.05
    assert burner.cpu_s > 0.1


# -- the property test ----------------------------------------------------


@st.composite
def random_dags(draw):
    """A random campaign: random needs edges, random failure and
    failed-check placement, random dwells, random on_fail."""
    n = draw(st.integers(min_value=1, max_value=5))
    stages = []
    for i in range(n):
        needs = [f"s{j}" for j in range(i)
                 if draw(st.booleans())]
        stages.append(synth(
            f"s{i}",
            needs=needs,
            value=float(draw(st.integers(0, 99))),
            dwell_ms=float(draw(st.sampled_from([0, 5, 20]))),
            fail=draw(st.integers(0, 9)) == 0,
            bad_check=draw(st.integers(0, 9)) == 0,
        ))
    on_fail = draw(st.sampled_from(["abort", "continue"]))
    return stages, on_fail


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_dags())
def test_random_dag_manifests_bit_identical(dag):
    stages, on_fail = dag
    ser, par = run_both(stages, on_fail=on_fail)
    assert stripped(ser) == stripped(par)
    # Skip/abort sets match exactly, not just payloads.
    assert [(s["id"], s["status"]) for s in ser["stages"]] \
        == [(s["id"], s["status"]) for s in par["stages"]]


# -- service execution ----------------------------------------------------


def test_service_execution_matches_serial(tmp_path):
    from repro.campaign import diff_campaign

    spec = make_spec([synth("s0", value=3.0),
                      synth("s1", needs=["s0"], value=4.0)])
    ser = run_campaign(spec, out_dir=tmp_path / "ser",
                       execution="serial")
    svc = run_campaign(spec, out_dir=tmp_path / "svc",
                       execution="service")
    assert ser.ok and svc.ok
    report = diff_campaign(tmp_path / "svc", tmp_path / "ser",
                           float_tol=0.0)
    assert report.ok, [str(d) for d in report.divergences]
    # The road taken is recorded: each executed stage names the shard
    # fleet that served it.
    assert svc.record("s0").volatile["service"]["address"]


# -- stats-log compaction -------------------------------------------------


def test_stats_log_compacts_and_preserves_totals(tmp_path, monkeypatch):
    import repro.runtime.cache as C

    monkeypatch.setattr(C, "_STATS_COMPACT_LINES", 4)
    root = tmp_path / "cache"
    total = 40
    for i in range(total):
        cache = C.ResultCache(root)
        cache._count(hits=1, misses=2)
        cache.flush_stats()
    log = root / C.STATS_LOG_NAME
    lines = log.read_bytes().splitlines()
    # Bounded: compaction keeps the log near the threshold instead of
    # one line per flush.
    assert len(lines) <= 4 + 1 < total
    # Invariant: the fold never loses a count.
    stats = C.ResultCache(root).lifetime_stats()
    assert stats == {"hits": total, "misses": 2 * total, "errors": 0}


_WRITER = """
import sys
import repro.runtime.cache as C
C._STATS_COMPACT_LINES = 4
root = sys.argv[1]
for _ in range(30):
    cache = C.ResultCache(root)
    cache._count(hits=1, misses=1, errors=1)
    cache.flush_stats()
"""


def test_stats_log_compaction_is_cross_process_safe(tmp_path):
    """Concurrent flushers in separate processes, each folding at a
    tiny threshold: the flock must serialize append+fold so no
    process's deltas are lost and no torn line survives."""
    root = tmp_path / "cache"
    n_procs = 4
    procs = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(root)])
        for _ in range(n_procs)
    ]
    for p in procs:
        assert p.wait(timeout=120) == 0
    import repro.runtime.cache as C

    stats = C.ResultCache(root).lifetime_stats()
    expect = n_procs * 30
    assert stats == {"hits": expect, "misses": expect,
                     "errors": expect}
