"""Parsed campaign specs: frozen dataclasses with a stable hash.

:func:`load_spec` reads TOML (stdlib ``tomllib``, Python >= 3.11) or
JSON, validates the raw mapping against ``campaign/v1``
(:mod:`repro.campaign.schema`) and freezes it into a
:class:`CampaignSpec` — the single object the runner, manifest and
diff layers share.

Identity rule: :meth:`CampaignSpec.spec_hash` folds everything that
changes *what the campaign computes* — stages, params, checks, seed,
corner, backend, runtime knobs — and deliberately **excludes the chaos
block**.  Chaos injection (cache vandalism, worker kills) must never
change the answers, only the road taken; a chaos drill therefore
shares its spec hash (and so its campaign fingerprint and cache
entries) with the clean run it is checked against.  That exclusion is
what makes "kill it, re-run it, diff against the clean golden" a
one-spec workflow.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.campaign.schema import (
    CAMPAIGN_SCHEMA,
    execution_mode,
    validate_spec_mapping,
)
from repro.errors import CampaignSpecError
from repro.runtime.cache import stable_hash


def _freeze(value: Any) -> Any:
    """Recursively convert parsed JSON/TOML values into hashable-by-
    :func:`~repro.runtime.cache.stable_hash` shapes (lists stay lists —
    stable_hash walks them — but mappings become sorted tuples so
    frozen dataclasses holding them stay hashable and order-free)."""
    if isinstance(value, Mapping):
        return tuple(sorted(
            (str(k), _freeze(v)) for k, v in value.items()
        ))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for params access: tuple-of-pairs
    back to dicts, tuples back to lists."""
    if isinstance(value, tuple) and value \
            and all(isinstance(p, tuple) and len(p) == 2
                    and isinstance(p[0], str) for p in value):
        return {k: _thaw(v) for k, v in value}
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class CheckSpec:
    """One declarative pass/fail criterion attached to a stage."""

    kind: str
    options: tuple = ()

    def option(self, key: str, default: Any = None) -> Any:
        for k, v in self.options:
            if k == key:
                return _thaw(v)
        return default


@dataclass(frozen=True)
class StageSpec:
    """One node of the campaign DAG."""

    id: str
    kind: str
    needs: tuple = ()
    params: tuple = ()
    checks: tuple = ()

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return _thaw(v)
        return default

    def params_dict(self) -> dict[str, Any]:
        return {k: _thaw(v) for k, v in self.params}


@dataclass(frozen=True)
class ChaosSpec:
    """Fault-injection plan: excluded from the spec hash by
    construction (see module docstring)."""

    seed: int = 1337
    corrupt_cache: int = 0
    kill_worker_tasks: int = 0

    @property
    def active(self) -> bool:
        return self.corrupt_cache > 0 or self.kill_worker_tasks > 0


@dataclass(frozen=True)
class CampaignSpec:
    """A fully validated ``campaign/v1`` spec.

    Attributes mirror the schema tables (see
    :mod:`repro.campaign.schema`); ``stages`` is kept in declaration
    order, :meth:`topo_order` gives the execution order.  The spec is
    frozen, so :meth:`spec_hash` and :meth:`topo_order` are computed
    once per spec and then read back.
    """

    name: str
    description: str = ""
    seed: int = 2009
    corner: str | None = None
    backend: str = "kernel"
    workers: int = 0
    retries: int = 0
    task_timeout: float | None = None
    failure_policy: str = "raise"
    on_fail: str = "abort"
    execution: str = "parallel"
    stage_workers: int = 0
    stages: tuple = ()
    chaos: ChaosSpec | None = None
    source: str = field(default="<spec>", compare=False)

    def spec_hash(self) -> str:
        """Stable identity of *what this campaign computes*.

        Chaos and the source path are excluded: neither changes the
        answers, and a drill must share cache entries with its clean
        counterpart.  The scheduling knobs (``execution``,
        ``stage_workers``) are normalized out for the same reason —
        a serial run and its parallel twin must share the spec hash,
        the campaign fingerprint, and every stage-cache key, or
        resume and golden diffing across modes would break.  They
        normalize to ``execution = "threads"``, the old default's
        spelling, so every hash and stage key written before the mode
        was renamed ``parallel`` still holds.
        """
        return self._spec_hash

    @functools.cached_property
    def _spec_hash(self) -> str:
        return stable_hash((
            CAMPAIGN_SCHEMA,
            dataclasses.replace(self, chaos=None, source="<spec>",
                                execution="threads", stage_workers=0),
        ))

    def stage(self, stage_id: str) -> StageSpec:
        for stage in self.stages:
            if stage.id == stage_id:
                return stage
        raise CampaignSpecError(
            f"{self.source}: no stage {stage_id!r} in campaign "
            f"{self.name!r}"
        )

    def topo_order(self) -> tuple[str, ...]:
        """Dependency-respecting execution order (validated acyclic)."""
        return self._topo_order

    @functools.cached_property
    def _topo_order(self) -> tuple[str, ...]:
        raw = {"schema": CAMPAIGN_SCHEMA, "name": self.name,
               "stages": [{"id": s.id, "kind": s.kind,
                           "needs": list(s.needs)}
                          for s in self.stages]}
        return tuple(validate_spec_mapping(raw, source=self.source))


def spec_from_mapping(raw: Mapping[str, Any], *,
                      source: str = "<spec>") -> CampaignSpec:
    """Validate a raw mapping and freeze it into a
    :class:`CampaignSpec`.

    Raises:
        CampaignSpecError: on any schema violation (the message names
            the offending key path and the source file).
    """
    validate_spec_mapping(raw, source=source)
    runtime = raw.get("runtime", {})
    chaos_raw = raw.get("chaos")
    chaos = None
    if chaos_raw is not None:
        chaos = ChaosSpec(
            seed=int(chaos_raw.get("seed", 1337)),
            corrupt_cache=int(chaos_raw.get("corrupt_cache", 0)),
            kill_worker_tasks=int(chaos_raw.get("kill_worker_tasks", 0)),
        )
    stages = tuple(
        StageSpec(
            id=s["id"],
            kind=s["kind"],
            needs=tuple(s.get("needs", [])),
            params=_freeze(s.get("params", {})),
            checks=tuple(
                CheckSpec(
                    kind=c["kind"],
                    options=_freeze({k: v for k, v in c.items()
                                     if k != "kind"}),
                )
                for c in s.get("checks", [])
            ),
        )
        for s in raw["stages"]
    )
    timeout = raw.get("runtime", {}).get("task_timeout")
    return CampaignSpec(
        name=raw["name"],
        description=raw.get("description", ""),
        seed=int(raw.get("seed", 2009)),
        corner=raw.get("design", {}).get("corner"),
        backend=raw.get("backend", {}).get("spec", "kernel"),
        workers=int(runtime.get("workers", 0)),
        retries=int(runtime.get("retries", 0)),
        task_timeout=float(timeout) if timeout is not None else None,
        failure_policy=runtime.get("failure_policy", "raise"),
        on_fail=runtime.get("on_fail", "abort"),
        execution=execution_mode(runtime.get("execution", "parallel")),
        stage_workers=int(runtime.get("stage_workers", 0)),
        stages=stages,
        chaos=chaos,
        source=source,
    )


def load_spec(path: str | Path) -> CampaignSpec:
    """Read, validate and freeze a spec file (``.toml`` or ``.json``).

    Raises:
        CampaignSpecError: unreadable file, unknown extension, parse
            error, or any schema violation.
    """
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise CampaignSpecError(
            f"cannot read campaign spec {path}: {exc}"
        ) from exc
    if path.suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError as exc:  # pragma: no cover - py3.10
            raise CampaignSpecError(
                f"{path}: TOML specs need Python >= 3.11 (stdlib "
                f"tomllib); rewrite the spec as JSON"
            ) from exc
        try:
            raw = tomllib.loads(raw_bytes.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise CampaignSpecError(
                f"{path}: not valid TOML: {exc}"
            ) from exc
    elif path.suffix == ".json":
        try:
            raw = json.loads(raw_bytes)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CampaignSpecError(
                f"{path}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(raw, Mapping):
            raise CampaignSpecError(
                f"{path}: top level must be an object"
            )
    else:
        raise CampaignSpecError(
            f"{path}: unknown spec extension {path.suffix!r} "
            f"(expected .toml or .json)"
        )
    return spec_from_mapping(raw, source=str(path))
