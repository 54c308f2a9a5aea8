"""Declarative campaign orchestration with provenance and resume.

The paper's workflow is campaign-shaped — characterize an INV+FF
array, sweep supplies, trim, re-measure across corners and lots — and
production test practice scripts such flows declaratively: a spec
binds drivers, sweeps and pass/fail criteria, and a runner executes
it repeatably.  This package is that layer for the reproduction:

* :mod:`~repro.campaign.schema` — the versioned ``campaign/v1`` spec
  shape and its validation;
* :mod:`~repro.campaign.spec` — frozen :class:`CampaignSpec`
  dataclasses with a stable :meth:`~CampaignSpec.spec_hash`
  (chaos excluded: injection must never change the answers);
* :mod:`~repro.campaign.stages` — the stage verbs (characterization,
  cap/threshold sweeps, yield studies, s-curves, telemetry, fault
  screens, service load drills), each bound to a
  :class:`~repro.backends.SensorBackend`;
* :mod:`~repro.campaign.criteria` — declarative checks (bounds,
  monotonicity, parity-vs-oracle, quality-mix floors);
* :mod:`~repro.campaign.runner` — resumable DAG execution on the
  resilient runtime: stage results keyed by a campaign fingerprint
  (spec hash + design/backend fingerprint), so a SIGKILLed campaign
  re-invoked with the same spec finishes from cache bit-identically;
* :mod:`~repro.campaign.scheduler` — the ready-set stage executor
  that runs independent DAG stages in a bounded pool of stage
  processes, with recording replayed in serial topo order so every
  mode's manifest is bit-identical;
* :mod:`~repro.campaign.manifest` — the provenance manifest (spec
  hash, engine versions, per-stage timings/counters/artifacts);
* :mod:`~repro.campaign.diff` — golden-result diffing separating
  regression (divergence) from numerics drift (provenance).

Quickstart::

    from repro.campaign import load_spec, run_campaign, diff_campaign

    spec = load_spec("examples/campaigns/corner_lot.toml")
    run = run_campaign(spec, out_dir="out/corner_lot")
    assert run.ok
    report = diff_campaign(run.out_dir, "golden/corner_lot")
    report.raise_on_divergence()

CLI: ``repro campaign validate|run|resume|diff``.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "CAMPAIGN_SCHEMA": ".schema",
    "CampaignRun": ".runner",
    "CampaignSpec": ".spec",
    "ChaosSpec": ".spec",
    "CheckSpec": ".spec",
    "DEFAULT_STAGE_WORKERS": ".scheduler",
    "DiffReport": ".diff",
    "Divergence": ".diff",
    "EXECUTION_MODES": ".schema",
    "MANIFEST_SCHEMA": ".manifest",
    "NONDETERMINISTIC_KINDS": ".stages",
    "STAGE_KINDS": ".stages",
    "StageOutcome": ".scheduler",
    "StageRecord": ".runner",
    "StageSpec": ".spec",
    "campaign_fingerprint": ".runner",
    "diff_campaign": ".diff",
    "execute_outcomes": ".scheduler",
    "finalize_records": ".scheduler",
    "load_spec": ".spec",
    "provenance_info": ".manifest",
    "read_manifest": ".manifest",
    "read_stage_payload": ".manifest",
    "run_campaign": ".runner",
    "spec_from_mapping": ".spec",
    "validate_spec_mapping": ".schema",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
