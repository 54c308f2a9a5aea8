"""The ``campaign/v1`` spec schema: shape validation with exact paths.

A campaign spec is a plain mapping (parsed from TOML or JSON — see
:mod:`repro.campaign.spec`) whose shape this module pins down *before*
any dataclass is built, so every authoring mistake surfaces as a
:class:`~repro.errors.CampaignSpecError` naming the offending key —
never as a downstream ``KeyError`` three layers into a sweep.

Versioning mirrors the trace layer: every spec carries a ``schema``
tag, and a tag this library does not know is refused outright
(``campaign/v2`` semantics silently reinterpreted under v1 rules could
run the wrong physics).

Top-level shape::

    schema = "campaign/v1"      # mandatory version tag
    name   = "corner-lot"       # campaign id (manifest + artifacts)
    seed   = 2024               # campaign-default seed

    [design]   corner = "SS"                    # optional corner
    [backend]  spec = "kernel"                  # driver registry spec
    [runtime]  workers / retries / task_timeout / failure_policy
               / on_fail / execution / stage_workers
    [chaos]    seed / corrupt_cache / kill_worker_tasks
               # fault injection; EXCLUDED from the spec hash --
               # chaos must never change what the campaign computes

    [[stages]] id / kind / needs / params / checks

Stage ``kind`` must name a registered executor
(:data:`repro.campaign.stages.STAGE_KINDS`); ``checks`` are the
declarative pass/fail criteria of :mod:`repro.campaign.criteria`.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import CampaignSpecError

#: The spec schema version this library reads and writes.
CAMPAIGN_SCHEMA = "campaign/v1"

#: Schema tags this library can run.
_KNOWN_SCHEMAS = (CAMPAIGN_SCHEMA,)

_TOP_KEYS = {"schema", "name", "description", "seed", "design",
             "backend", "runtime", "chaos", "stages"}
_DESIGN_KEYS = {"corner"}
_BACKEND_KEYS = {"spec"}
_RUNTIME_KEYS = {"workers", "retries", "task_timeout",
                 "failure_policy", "on_fail", "execution",
                 "stage_workers"}
_CHAOS_KEYS = {"seed", "corrupt_cache", "kill_worker_tasks"}
_STAGE_KEYS = {"id", "kind", "needs", "params", "checks"}

#: Declarative check kinds and their allowed option keys (beyond
#: ``kind``).  See :mod:`repro.campaign.criteria` for semantics.
CHECK_KINDS: dict[str, set[str]] = {
    "bounds": {"field", "min", "max"},
    "monotone": {"field", "strict"},
    "equals": {"field", "value"},
    "parity": {"field", "stage", "tol"},
    "quality_mix": {"floors", "ceilings"},
}

_FAILURE_POLICIES = ("raise", "partial")
_ON_FAIL = ("abort", "continue")

#: Stage-scheduler execution modes (see
#: :mod:`repro.campaign.scheduler`): ``serial`` runs every stage body
#: in the campaign process, one at a time (the oracle); ``parallel``
#: (default) runs them in stage processes.  Excluded from the spec
#: hash — scheduling never changes what a campaign computes.
EXECUTION_MODES = ("serial", "parallel")


def execution_mode(mode: str) -> str:
    """``mode`` with the legacy spelling ``threads`` read as
    ``parallel``, which older specs and CLI calls still use."""
    return "parallel" if mode == "threads" else mode


def _fail(path: str, message: str, *, source: str) -> None:
    raise CampaignSpecError(f"{source}: {path}: {message}")


def _require(mapping: Mapping[str, Any], key: str, path: str, *,
             source: str) -> Any:
    if key not in mapping:
        _fail(path, f"missing required key {key!r}", source=source)
    return mapping[key]


def _check_keys(mapping: Mapping[str, Any], allowed: set[str],
                path: str, *, source: str) -> None:
    if not isinstance(mapping, Mapping):
        _fail(path, f"expected a table, got {type(mapping).__name__}",
              source=source)
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        _fail(path, f"unknown key(s) {unknown} "
                    f"(allowed: {sorted(allowed)})", source=source)


def _check_type(value: Any, types: tuple, path: str, label: str, *,
                source: str) -> None:
    # bool is an int subclass; reject it where a number is expected.
    if isinstance(value, bool) and bool not in types:
        _fail(path, f"{label} must not be a boolean", source=source)
    if not isinstance(value, types):
        names = "/".join(t.__name__ for t in types)
        _fail(path, f"{label} must be {names}, "
                    f"got {type(value).__name__}", source=source)


def _validate_check(raw: Mapping[str, Any], path: str, *,
                    stage_ids: list[str], source: str) -> None:
    if not isinstance(raw, Mapping):
        _fail(path, "each check must be a table", source=source)
    kind = _require(raw, "kind", path, source=source)
    if kind not in CHECK_KINDS:
        _fail(path, f"unknown check kind {kind!r} "
                    f"(known: {sorted(CHECK_KINDS)})", source=source)
    _check_keys(raw, CHECK_KINDS[kind] | {"kind"}, path, source=source)
    if kind in ("bounds", "monotone", "parity"):
        field = _require(raw, "field", path, source=source)
        _check_type(field, (str,), path, "field", source=source)
    if kind == "bounds" and "min" not in raw and "max" not in raw:
        _fail(path, "bounds check needs min and/or max", source=source)
    if kind == "equals" and "field" not in raw:
        _fail(path, "equals check needs a field", source=source)
    if kind == "parity":
        stage = _require(raw, "stage", path, source=source)
        if stage not in stage_ids:
            _fail(path, f"parity oracle stage {stage!r} is not a "
                        f"declared stage id", source=source)
        tol = raw.get("tol", 0.0)
        _check_type(tol, (int, float), path, "tol", source=source)
        if tol < 0:
            _fail(path, "tol must be >= 0", source=source)
    if kind == "quality_mix":
        if "floors" not in raw and "ceilings" not in raw:
            _fail(path, "quality_mix needs floors and/or ceilings",
                  source=source)
        for side in ("floors", "ceilings"):
            table = raw.get(side, {})
            if not isinstance(table, Mapping):
                _fail(f"{path}.{side}", "must be a table of counters",
                      source=source)
            for metric, bound in table.items():
                _check_type(bound, (int,), f"{path}.{side}.{metric}",
                            "bound", source=source)


def _validate_stage(raw: Mapping[str, Any], path: str, *,
                    stage_ids: list[str], source: str) -> None:
    _check_keys(raw, _STAGE_KEYS, path, source=source)
    sid = _require(raw, "id", path, source=source)
    _check_type(sid, (str,), path, "id", source=source)
    if not sid:
        _fail(path, "id must be non-empty", source=source)
    kind = _require(raw, "kind", path, source=source)
    from repro.campaign.stages import STAGE_KINDS

    if kind not in STAGE_KINDS:
        _fail(path, f"unknown stage kind {kind!r} "
                    f"(known: {sorted(STAGE_KINDS)})", source=source)
    needs = raw.get("needs", [])
    if not isinstance(needs, (list, tuple)):
        _fail(f"{path}.needs", "must be a list of stage ids",
              source=source)
    for dep in needs:
        if dep not in stage_ids:
            _fail(f"{path}.needs", f"unknown dependency {dep!r}",
                  source=source)
        if dep == sid:
            _fail(f"{path}.needs", "a stage cannot need itself",
                  source=source)
    params = raw.get("params", {})
    if not isinstance(params, Mapping):
        _fail(f"{path}.params", "must be a table", source=source)
    checks = raw.get("checks", [])
    if not isinstance(checks, (list, tuple)):
        _fail(f"{path}.checks", "must be an array of check tables",
              source=source)
    for i, check in enumerate(checks):
        _validate_check(check, f"{path}.checks[{i}]",
                        stage_ids=stage_ids, source=source)


def _topo_sort(ids: list[str], needs: dict[str, list[str]], *,
               source: str) -> list[str]:
    """Dependency-respecting stage order (declaration order among
    ready stages, so runs are stable); cycles are refused."""
    done: list[str] = []
    placed: set[str] = set()
    remaining = list(ids)
    while remaining:
        ready = [sid for sid in remaining
                 if all(d in placed for d in needs[sid])]
        if not ready:
            _fail("stages", f"dependency cycle among {remaining}",
                  source=source)
        for sid in ready:
            done.append(sid)
            placed.add(sid)
        remaining = [sid for sid in remaining if sid not in placed]
    return done


def validate_spec_mapping(raw: Mapping[str, Any], *,
                          source: str = "<spec>") -> list[str]:
    """Validate a raw spec mapping against ``campaign/v1``.

    Returns the topological stage order (the runner's execution
    order).

    Raises:
        CampaignSpecError: any structural problem, with the offending
            key path in the message.
    """
    _check_keys(raw, _TOP_KEYS, "spec", source=source)
    schema = _require(raw, "schema", "spec", source=source)
    if schema not in _KNOWN_SCHEMAS:
        _fail("schema", f"unknown campaign schema {schema!r} "
                        f"(this library reads {_KNOWN_SCHEMAS})",
              source=source)
    name = _require(raw, "name", "spec", source=source)
    _check_type(name, (str,), "name", "name", source=source)
    if not name:
        _fail("name", "must be non-empty", source=source)
    if "description" in raw:
        _check_type(raw["description"], (str,), "description",
                    "description", source=source)
    if "seed" in raw:
        _check_type(raw["seed"], (int,), "seed", "seed", source=source)

    design = raw.get("design", {})
    _check_keys(design, _DESIGN_KEYS, "design", source=source)
    if "corner" in design:
        from repro.devices.corners import CORNERS

        corner = design["corner"]
        if not isinstance(corner, str) \
                or corner.upper() not in CORNERS:
            _fail("design.corner", f"unknown corner {corner!r} "
                                   f"(known: {sorted(CORNERS)})",
                  source=source)

    backend = raw.get("backend", {})
    _check_keys(backend, _BACKEND_KEYS, "backend", source=source)
    if "spec" in backend:
        _check_type(backend["spec"], (str,), "backend.spec", "spec",
                    source=source)

    runtime = raw.get("runtime", {})
    _check_keys(runtime, _RUNTIME_KEYS, "runtime", source=source)
    for key in ("workers", "retries", "stage_workers"):
        if key in runtime:
            _check_type(runtime[key], (int,), f"runtime.{key}", key,
                        source=source)
            if runtime[key] < 0:
                _fail(f"runtime.{key}", "must be >= 0", source=source)
    if "task_timeout" in runtime:
        _check_type(runtime["task_timeout"], (int, float),
                    "runtime.task_timeout", "task_timeout",
                    source=source)
        if runtime["task_timeout"] <= 0:
            _fail("runtime.task_timeout",
                  "must be positive (omit to disable)", source=source)
    if runtime.get("failure_policy", "raise") not in _FAILURE_POLICIES:
        _fail("runtime.failure_policy",
              f"must be one of {_FAILURE_POLICIES}", source=source)
    if runtime.get("on_fail", "abort") not in _ON_FAIL:
        _fail("runtime.on_fail", f"must be one of {_ON_FAIL}",
              source=source)
    if execution_mode(runtime.get("execution", "parallel")) \
            not in EXECUTION_MODES:
        _fail("runtime.execution",
              f"must be one of {EXECUTION_MODES}", source=source)

    chaos = raw.get("chaos")
    if chaos is not None:
        _check_keys(chaos, _CHAOS_KEYS, "chaos", source=source)
        for key in _CHAOS_KEYS:
            if key in chaos:
                _check_type(chaos[key], (int,), f"chaos.{key}", key,
                            source=source)
        for key in ("corrupt_cache", "kill_worker_tasks"):
            if chaos.get(key, 0) < 0:
                _fail(f"chaos.{key}", "must be >= 0", source=source)
        if chaos.get("kill_worker_tasks", 0) > 0:
            if runtime.get("workers", 0) < 2:
                _fail("chaos.kill_worker_tasks",
                      "worker-kill chaos needs runtime.workers >= 2 "
                      "(a serial sweep would kill the campaign "
                      "process itself)", source=source)
            if runtime.get("retries", 0) < 1:
                _fail("chaos.kill_worker_tasks",
                      "worker-kill chaos needs runtime.retries >= 1 "
                      "so the killed task can recover", source=source)

    stages = _require(raw, "stages", "spec", source=source)
    if not isinstance(stages, (list, tuple)) or not stages:
        _fail("stages", "must be a non-empty array of stage tables",
              source=source)
    ids: list[str] = []
    for i, stage in enumerate(stages):
        if not isinstance(stage, Mapping):
            _fail(f"stages[{i}]", "must be a table", source=source)
        sid = stage.get("id")
        if isinstance(sid, str):
            if sid in ids:
                _fail(f"stages[{i}].id", f"duplicate stage id {sid!r}",
                      source=source)
            ids.append(sid)
    for i, stage in enumerate(stages):
        label = stage.get("id", i)
        _validate_stage(stage, f"stages[{label}]", stage_ids=ids,
                        source=source)
        for check in stage.get("checks", []):
            if check.get("kind") == "parity" \
                    and check.get("stage") not in stage.get("needs", []):
                _fail(f"stages[{label}]",
                      f"parity check against {check.get('stage')!r} "
                      f"requires it in needs (ordering)", source=source)
    needs = {s["id"]: list(s.get("needs", [])) for s in stages}
    return _topo_sort(ids, needs, source=source)
