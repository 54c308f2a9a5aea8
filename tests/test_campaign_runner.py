"""Campaign runner: execution, resume, checks, manifests."""

from __future__ import annotations

import pytest

from repro.campaign import (
    CAMPAIGN_SCHEMA,
    MANIFEST_SCHEMA,
    read_manifest,
    read_stage_payload,
    run_campaign,
    spec_from_mapping,
)

SWEEP = {"id": "sweep", "kind": "threshold_sweep",
         "params": {"bits": [1, 2], "tol": 5e-3},
         "checks": [{"kind": "monotone", "field": "thresholds",
                     "strict": True}]}


def make_spec(stages=None, **overrides):
    raw = {
        "schema": CAMPAIGN_SCHEMA,
        "name": "runner-test",
        "stages": stages or [dict(SWEEP)],
    }
    raw.update(overrides)
    return spec_from_mapping(raw)


def test_run_produces_manifest_and_payloads(tmp_path):
    run = run_campaign(make_spec(), out_dir=tmp_path / "out")
    assert run.ok and run.outcome == "passed"
    manifest = read_manifest(tmp_path / "out")
    assert manifest["manifest_schema"] == MANIFEST_SCHEMA
    assert manifest["campaign_schema"] == CAMPAIGN_SCHEMA
    assert manifest["spec_hash"] == run.spec.spec_hash()
    assert manifest["outcome"] == "passed"
    assert manifest["cache"]["lifetime"]["misses"] >= 2
    (stage,) = manifest["stages"]
    assert stage["id"] == "sweep" and stage["status"] == "ok"
    assert stage["deterministic"] and not stage["resumed"]
    assert all(c["ok"] for c in stage["checks"])
    payload = read_stage_payload(tmp_path / "out", "sweep")
    assert len(payload["thresholds"]) == 2
    assert payload["thresholds"][0] < payload["thresholds"][1]


def test_resume_replays_from_stage_cache(tmp_path):
    spec = make_spec()
    first = run_campaign(spec, out_dir=tmp_path / "out")
    second = run_campaign(spec, out_dir=tmp_path / "out")
    rec1, rec2 = first.record("sweep"), second.record("sweep")
    assert not rec1.resumed and rec2.resumed
    assert rec2.payload == rec1.payload
    # Checks are re-evaluated fresh on every run, resumed or not.
    assert rec2.checks == rec1.checks
    # A different out_dir but the same cache root also resumes.
    third = run_campaign(spec, out_dir=tmp_path / "elsewhere",
                         cache=tmp_path / "out" / "cache")
    assert third.record("sweep").resumed
    assert third.record("sweep").payload == rec1.payload


def test_spec_change_invalidates_stage_cache(tmp_path):
    cache = tmp_path / "cache"
    a = run_campaign(make_spec(), out_dir=tmp_path / "a", cache=cache)
    stages = [dict(SWEEP, params={"bits": [1, 2], "tol": 1e-3})]
    b = run_campaign(make_spec(stages=stages),
                     out_dir=tmp_path / "b", cache=cache)
    assert not b.record("sweep").resumed
    assert b.record("sweep").payload != a.record("sweep").payload


def test_failed_check_fails_campaign_and_aborts_dependents(tmp_path):
    stages = [
        dict(SWEEP, checks=[{"kind": "bounds", "field": "thresholds",
                             "min": 100.0}]),
        {"id": "ladder", "kind": "characterization",
         "needs": ["sweep"], "params": {"codes": [3]}},
    ]
    run = run_campaign(make_spec(stages=stages),
                       out_dir=tmp_path / "out")
    assert not run.ok and run.outcome == "failed"
    assert run.record("sweep").status == "failed"
    assert run.record("ladder").status == "skipped"
    assert run.record("ladder").artifact is None


def test_on_fail_continue_runs_independent_stages(tmp_path):
    stages = [
        dict(SWEEP, checks=[{"kind": "bounds", "field": "thresholds",
                             "min": 100.0}]),
        {"id": "solo", "kind": "threshold_sweep",
         "params": {"bits": [3], "tol": 5e-3}},
        {"id": "dep", "kind": "characterization",
         "needs": ["sweep"], "params": {"codes": [3]}},
    ]
    run = run_campaign(
        make_spec(stages=stages, runtime={"on_fail": "continue"}),
        out_dir=tmp_path / "out")
    assert not run.ok
    assert run.record("sweep").status == "failed"
    # Independent of the failure: still runs under on_fail=continue.
    assert run.record("solo").status == "ok"
    # Downstream of the failure: skipped either way.
    assert run.record("dep").status == "skipped"


def test_corner_changes_results_and_fingerprint(tmp_path):
    nominal = run_campaign(make_spec(), out_dir=tmp_path / "tt")
    slow = run_campaign(make_spec(design={"corner": "SS"}),
                        out_dir=tmp_path / "ss")
    t_nom = nominal.record("sweep").payload["thresholds"]
    t_ss = slow.record("sweep").payload["thresholds"]
    assert t_nom != t_ss
    assert nominal.fingerprint != slow.fingerprint
    assert read_manifest(tmp_path / "ss")["corner"] == "SS"


def test_parity_check_against_oracle_stage(tmp_path):
    stages = [
        {"id": "a", "kind": "threshold_sweep",
         "params": {"bits": [1, 2], "tol": 5e-3}},
        {"id": "b", "kind": "threshold_sweep", "needs": ["a"],
         "params": {"bits": [1, 2], "tol": 5e-3},
         "checks": [{"kind": "parity", "field": "thresholds",
                     "stage": "a", "tol": 0.0}]},
    ]
    run = run_campaign(make_spec(stages=stages),
                       out_dir=tmp_path / "out")
    assert run.ok, run.record("b").checks
    (check,) = run.record("b").checks
    assert check["ok"] and check["kind"] == "parity"


def test_chaos_run_is_bit_identical_but_not_resumed(tmp_path):
    cache = tmp_path / "cache"
    base = {
        "schema": CAMPAIGN_SCHEMA, "name": "chaos-id",
        "runtime": {"workers": 2, "retries": 2},
        "stages": [dict(SWEEP)],
    }
    clean = run_campaign(spec_from_mapping(base),
                         out_dir=tmp_path / "clean", cache=cache)
    chaotic_spec = spec_from_mapping(
        {**base, "chaos": {"corrupt_cache": 1,
                           "kill_worker_tasks": 1}})
    assert chaotic_spec.spec_hash() == clean.spec.spec_hash()
    chaotic = run_campaign(chaotic_spec, out_dir=tmp_path / "chaos",
                           cache=cache)
    assert chaotic.ok
    rec = chaotic.record("sweep")
    # Chaos bypasses the stage cache (the drill must re-execute) ...
    assert not rec.resumed
    # ... and still lands on the clean run's exact numbers.
    assert rec.payload == clean.record("sweep").payload
    assert rec.volatile["crashes"] >= 1


def test_stage_error_is_recorded_not_raised(tmp_path):
    stages = [{"id": "screen", "kind": "fault_screen",
               "params": {"faults": [{"fault": "not_a_fault",
                                      "bit": 2}]}}]
    run = run_campaign(make_spec(stages=stages),
                       out_dir=tmp_path / "out")
    assert not run.ok
    rec = run.record("screen")
    assert rec.status == "error"
    assert "not_a_fault".upper() in rec.volatile.get("error", "")


@pytest.mark.parametrize("kind", ["telemetry", "fault_screen"])
def test_other_stage_kinds_execute(tmp_path, kind):
    params = {"telemetry": {"n_samples": 400, "n_droops": 1},
              "fault_screen": {"faults": [{"fault": "out_stuck_fail",
                                           "bit": 2}]}}[kind]
    stages = [{"id": "s", "kind": kind, "params": params}]
    run = run_campaign(make_spec(stages=stages),
                       out_dir=tmp_path / "out")
    assert run.ok, run.record("s").volatile


def test_cap_sweep_stage_matches_direct_sweep(tmp_path):
    """A ``cap_sweep`` stage's payload is the Fig. 4 sweep the kernel
    driver gives when called directly."""
    from repro.core.calibration import paper_design
    from repro.core.characterization import threshold_vs_capacitance

    caps_ff = [4.0, 12.5, 30.0]
    stages = [{"id": "s", "kind": "cap_sweep",
               "params": {"caps_ff": caps_ff, "code": 2, "tol": 1e-3}}]
    run = run_campaign(make_spec(stages=stages), out_dir=tmp_path / "out",
                       execution="serial")
    assert run.ok, run.record("s").volatile
    rows = threshold_vs_capacitance(
        paper_design(), [c * 1e-15 for c in caps_ff], code=2,
        backend="kernel", tol=1e-3)
    assert run.record("s").payload == {
        "code": 2,
        "caps_ff": caps_ff,
        "thresholds": [thr for _cap, thr in rows],
    }
    assert read_stage_payload(tmp_path / "out", "s") == \
        run.record("s").payload


def test_telemetry_stage_runs_no_quantile_estimator(tmp_path, monkeypatch):
    """The stage's payload reads totals and events only, so it builds
    no P² estimator, and its payload is the default pipeline's."""
    from repro.core.calibration import paper_design
    from repro.telemetry import (
        TelemetryPipeline,
        array_source,
        synthetic_droop_trace,
    )
    from repro.telemetry.aggregate import P2Quantile

    params = {"n_samples": 6000, "n_droops": 2, "noise_rms": 2e-3}
    stages = [{"id": "s", "kind": "telemetry", "params": params}]
    spec = make_spec(stages=stages)

    def no_p2(self, values):
        raise AssertionError("the telemetry stage ran a P² estimator")

    with monkeypatch.context() as patch:
        patch.setattr(P2Quantile, "update_block", no_p2)
        run = run_campaign(spec, out_dir=tmp_path / "out",
                           execution="serial")
    assert run.ok, run.record("s").volatile

    times, volts, starts = synthetic_droop_trace(
        n_samples=6000, n_droops=2, depth=0.15, noise_rms=2e-3,
        seed=spec.seed,
    )
    pipeline = TelemetryPipeline(paper_design(), code=3, chunk=1024)
    snapshot = pipeline.run(array_source("site0", times, volts,
                                         block=1024))
    assert snapshot["sites"]["site0"]["quantiles"]  # P² did run here
    assert run.record("s").payload == {
        "n_samples": 6000,
        "n_droops_injected": 2,
        "seed": spec.seed,
        "code": 3,
        "droop_starts_injected": [float(t) for t in starts],
        "totals": snapshot["totals"],
        "events": [
            {"site": e.site, "start": float(e.start),
             "end": float(e.end), "n_samples": int(e.n_samples),
             "depth_v": float(e.depth_v),
             "worst_rung": int(e.worst_rung)}
            for e in pipeline.events
        ],
    }
    assert snapshot["totals"]["events"] > 0
