"""Campaign scheduler: parallel-vs-serial bit-identity, failure
semantics, stage processes, and stats-log compaction."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tomllib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CAMPAIGN_SCHEMA,
    EXECUTION_MODES,
    STAGE_KINDS,
    diff_campaign,
    read_manifest,
    run_campaign,
    spec_from_mapping,
)
from repro.errors import CampaignError, CampaignSpecError

DATA = Path(__file__).parent / "data" / "campaigns"

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
    """The same spec through the serial oracle and the stage-process
    scheduler, each in a cold tree; returns both manifests."""
    spec = make_spec(stages, **runtime)
    work = Path(tempfile.mkdtemp(prefix="sched-prop-"))
    try:
        run_campaign(spec, out_dir=work / "ser", execution="serial")
        run_campaign(spec, out_dir=work / "par", execution="parallel",
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
    # The legacy spelling of the parallel mode still reads.
    assert make_spec([synth("s0")], execution="threads").execution \
        == "parallel"
    assert make_spec([synth("s0")]).execution == "parallel"
    with pytest.raises(CampaignError, match="execution mode"):
        run_campaign(make_spec([synth("s0")]), out_dir=tempfile.mkdtemp(),
                     execution="service")


def test_spec_hash_invariant_under_scheduling_knobs():
    base = make_spec([synth("s0"), synth("s1", needs=["s0"])])
    for mode in (*EXECUTION_MODES, "threads"):
        twin = make_spec([synth("s0"), synth("s1", needs=["s0"])],
                         execution=mode, stage_workers=7)
        assert twin.spec_hash() == base.spec_hash()


def test_both_spellings_keep_the_golden_spec_hash():
    """``threads`` and ``parallel`` hash alike, and to the committed
    golden's spec hash, which every stage key hangs off."""
    golden = json.loads((DATA / "golden_smoke" / "manifest.json")
                        .read_text())["spec_hash"]
    raw = tomllib.loads((DATA / "smoke.toml").read_text())
    for mode in (None, "threads", "parallel"):
        if mode is not None:
            raw["runtime"] = {"execution": mode}
        assert spec_from_mapping(raw).spec_hash() == golden


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
    # A serial run warms the stage store; a parallel re-run of the same
    # tree resumes every stage (same keys, same fingerprint).
    spec = make_spec([synth("s0"), synth("s1", needs=["s0"])])
    first = run_campaign(spec, out_dir=tmp_path / "out",
                         execution="serial")
    second = run_campaign(spec, out_dir=tmp_path / "out",
                          execution="parallel")
    assert first.ok and second.ok
    for sid in ("s0", "s1"):
        assert not first.record(sid).resumed
        assert second.record(sid).resumed
        assert second.record(sid).payload == first.record(sid).payload


def test_resumed_run_starts_no_stage_process(tmp_path, monkeypatch):
    import repro.campaign.scheduler as scheduler

    spec = make_spec([synth("s0"), synth("s1", needs=["s0"])])
    assert run_campaign(spec, out_dir=tmp_path / "out",
                        execution="parallel").ok

    def no_pool(*args, **kwargs):
        raise AssertionError("a resumed run started a stage pool")

    monkeypatch.setattr(scheduler, "_start_pool", no_pool)
    again = run_campaign(spec, out_dir=tmp_path / "out",
                         execution="parallel")
    assert again.ok
    assert all(r.resumed for r in again.records)


class _PoolStarted(Exception):
    pass


def _record_pool_sizes(monkeypatch, *, stop):
    """Patch the stage pool to record its ``max_workers``; ``stop``
    raises instead of starting it."""
    import repro.campaign.scheduler as scheduler

    sizes = []
    real = scheduler._start_pool

    def recording_pool(max_workers):
        sizes.append(max_workers)
        if stop:
            raise _PoolStarted
        return real(max_workers)

    monkeypatch.setattr(scheduler, "_start_pool", recording_pool)
    return sizes


def test_chain_gets_one_stage_process(tmp_path, monkeypatch):
    sizes = _record_pool_sizes(monkeypatch, stop=False)
    stages = [synth("s0")] + [synth(f"s{i}", needs=[f"s{i - 1}"])
                              for i in range(1, 6)]
    run = run_campaign(make_spec(stages), out_dir=tmp_path / "out",
                       execution="parallel", stage_workers=4)
    assert run.ok
    assert sizes == [1]


def test_pool_sized_by_widest_antichain(tmp_path, monkeypatch):
    # n = 5, longest chain a -> b -> d (L = 3): at most 3 processes,
    # and {b, c, e} really can run at once.
    sizes = _record_pool_sizes(monkeypatch, stop=True)
    spec = make_spec([synth("a"), synth("b", needs=["a"]),
                      synth("c", needs=["a"]), synth("d", needs=["b"]),
                      synth("e", needs=["a"])])
    with pytest.raises(_PoolStarted):
        run_campaign(spec, out_dir=tmp_path / "out",
                     execution="parallel", stage_workers=4)
    assert sizes == [3]


def test_cpu_campaign_keeps_both_stage_processes(tmp_path, monkeypatch):
    from repro.campaign import load_spec

    spec = load_spec(Path(__file__).parents[1] / "e2ebench"
                     / "campaign_cpu.toml")
    assert not any(stage.needs for stage in spec.stages)
    sizes = _record_pool_sizes(monkeypatch, stop=True)
    with pytest.raises(_PoolStarted):
        run_campaign(spec, out_dir=tmp_path / "out", execution="parallel")
    assert sizes == [2]


def _sleep_probe(ctx, stage):
    time.sleep(0.4)
    return {"stage": stage.id}, {}


def _burn_probe(ctx, stage):
    end = time.perf_counter() + 0.4
    while time.perf_counter() < end:
        pass
    return {"stage": stage.id}, {}


def test_stage_process_cpu_excludes_siblings(tmp_path, monkeypatch):
    """A stage is charged its own process's CPU time only: one that
    sleeps while its sibling burns CPU reads near zero."""
    monkeypatch.setitem(STAGE_KINDS, "sleep_probe", _sleep_probe)
    monkeypatch.setitem(STAGE_KINDS, "burn_probe", _burn_probe)
    spec = make_spec([{"id": "sleeper", "kind": "sleep_probe"},
                      {"id": "burner", "kind": "burn_probe"}])
    run = run_campaign(spec, out_dir=tmp_path / "out",
                       execution="parallel", stage_workers=2)
    assert run.ok
    sleeper, burner = run.record("sleeper"), run.record("burner")
    assert sleeper.wall_s >= 0.4
    assert sleeper.cpu_s < 0.05
    assert burner.cpu_s > 0.1


def _kill_once(ctx, stage):
    """SIGKILL the process running this stage, the first time only."""
    marker = Path(stage.param("marker"))
    if not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return {"stage": stage.id}, {}


def test_dead_stage_process_fails_loudly_and_resumes(tmp_path,
                                                     monkeypatch):
    monkeypatch.setitem(STAGE_KINDS, "kill_once", _kill_once)
    spec = make_spec([
        synth("s0", value=2.0),
        {"id": "victim", "kind": "kill_once", "needs": ["s0"],
         "params": {"marker": str(tmp_path / "killed.marker")}},
        synth("s2", needs=["victim"], value=3.0),
        synth("s3", value=4.0, dwell_ms=50.0),
    ])
    with pytest.raises(CampaignError, match="victim"):
        run_campaign(spec, out_dir=tmp_path / "par",
                     execution="parallel", stage_workers=2)
    assert not (tmp_path / "par" / "manifest.json").exists()

    resumed = run_campaign(spec, out_dir=tmp_path / "par",
                           execution="parallel", stage_workers=2)
    assert resumed.ok
    assert resumed.record("s0").resumed
    assert not resumed.record("victim").resumed
    serial = run_campaign(spec, out_dir=tmp_path / "ser",
                          execution="serial")
    report = diff_campaign(tmp_path / "par", tmp_path / "ser",
                           float_tol=0.0)
    assert serial.ok
    assert report.ok, [str(d) for d in report.divergences]


@pytest.fixture
def profiler():
    from repro.kernels import ladders
    from repro.runtime.profiling import PROFILER

    was = PROFILER.enabled
    PROFILER.enable()
    yield PROFILER, ladders
    PROFILER.enabled = was
    PROFILER.reset()


def test_profile_phases_match_across_modes(tmp_path, profiler):
    """Stage processes send their phases back: ``smoke.toml`` profiles
    to the same phase names under serial and parallel."""
    from repro.campaign import load_spec

    prof, ladders = profiler
    spec = load_spec(DATA / "smoke.toml")
    names = {}
    for mode in ("serial", "parallel"):
        # Each mode solves its ladders afresh, so kernel phases show.
        ladders.clear()
        prof.reset()
        assert run_campaign(spec, out_dir=tmp_path / mode,
                            execution=mode).ok
        names[mode] = set(prof.snapshot())
    assert names["serial"] == names["parallel"]
    assert {"campaign.stage.thresholds", "campaign.stage.ladder",
            "kernel.solve"} <= names["parallel"]


def test_serial_bodies_stay_out_of_the_schedule_phase(tmp_path,
                                                     profiler):
    """Serial stage bodies run inline in the campaign process, but
    ``--profile`` books them under their stage phases, not under
    ``campaign.schedule``."""
    prof, _ladders = profiler
    prof.reset()
    spec = make_spec([synth("s0", dwell_ms=150.0),
                      synth("s1", needs=["s0"], dwell_ms=150.0)])
    assert run_campaign(spec, out_dir=tmp_path / "out",
                        execution="serial").ok
    phases = prof.snapshot()
    stage_s = sum(phases[f"campaign.stage.{sid}"][1]
                  for sid in ("s0", "s1"))
    assert stage_s >= 0.3
    assert phases["campaign.schedule"][1] < 0.1


def bodies_run(out_dir):
    """Ids of the synthetic stages whose body ran in ``out_dir``: each
    body leaves one task-cache entry holding its ``value``, which
    these tests set to the stage's index."""
    import pickle

    from repro.campaign.runner import CACHE_DIR
    from repro.runtime.cache import ResultCache

    return {f"s{int(pickle.loads(path.read_bytes())['value'])}"
            for path in ResultCache(out_dir / CACHE_DIR).entries()}


#: s2 runs its body but fails its check; s3 and s4 depend on it.
WALK_STAGES = [
    synth("s0", value=0.0),
    synth("s1", value=1.0),
    synth("s2", value=2.0, bad_check=True),
    synth("s3", value=3.0, needs=["s2"]),
    synth("s4", value=4.0, needs=["s3"]),
    synth("s5", value=5.0),
    synth("s6", value=6.0, needs=["s0"]),
]


def test_serial_abort_runs_no_body_past_the_first_failure(tmp_path):
    spec = make_spec(WALK_STAGES, on_fail="abort")
    run = run_campaign(spec, out_dir=tmp_path / "out", execution="serial")
    order = spec.topo_order()
    first = order.index("s2")
    assert run.record("s2").status == "failed"
    assert bodies_run(tmp_path / "out") == set(order[:first + 1])


def test_serial_continue_skips_only_dependent_bodies(tmp_path):
    spec = make_spec(WALK_STAGES, on_fail="continue")
    run = run_campaign(spec, out_dir=tmp_path / "out", execution="serial")
    assert run.record("s2").status == "failed"
    assert bodies_run(tmp_path / "out") \
        == {"s0", "s1", "s2", "s5", "s6"}


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
