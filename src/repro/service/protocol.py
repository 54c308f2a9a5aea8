"""The JSONL request/response wire protocol of the job server.

One JSON object per line, both directions.  A request names a tenant,
a request ``kind`` and its parameters; every request eventually gets
**exactly one terminal response** carrying a ``quality`` tag:

=============  ============================================================
quality        meaning
=============  ============================================================
``full``       computed fresh through the shard's measurement backend
``cached``     served from the per-tenant :class:`~repro.runtime.cache.
               ResultCache` (breaker open, deadline near, or a warm hit)
``degraded``   reduced-resolution nominal decode via
               :class:`~repro.core.degraded.DegradedArray`
``rejected``   shed before execution (admission, quota, breaker, deadline)
=============  ============================================================

``status`` is ``ok`` (quality full/cached/degraded), ``rejected``
(quality rejected, with the :class:`~repro.errors.ServiceError` subtype
in ``error.type``), or ``error`` (the request itself was poison — its
execution raised; the exception type and message come back, never a
traceback over the wire).

Floats are serialized as plain JSON numbers; NaN thresholds (degraded-
mode masked bits) become ``null`` so the stream stays strict JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ProtocolError

#: Protocol version tag, echoed in every hello and response envelope.
SERVICE_PROTOCOL = "service/v1"

#: Request kinds the dispatcher understands.
REQUEST_KINDS = ("ping", "measure", "characterize", "s_curve", "yield",
                 "window")

#: Terminal qualities.
QUALITIES = ("full", "cached", "degraded", "rejected")


def _json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats with None (strict JSON)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@dataclass(frozen=True)
class Request:
    """One parsed client request.

    Attributes:
        id: Client-chosen correlation id (echoed in the response).
        kind: One of :data:`REQUEST_KINDS`.
        tenant: Rate-limiting / cache-isolation principal.
        params: Kind-specific parameters (die, code, level, ...).
        deadline_s: Wall-clock budget from admission, seconds
            (``None``: the server default applies).
    """

    id: str
    kind: str
    tenant: str = "default"
    params: dict = field(default_factory=dict)
    deadline_s: float | None = None


def parse_request(line: str) -> Request:
    """Parse one JSONL request line.

    Raises:
        ProtocolError: malformed JSON, missing/unknown fields — the
            server answers these with an ``error`` response instead of
            dropping the connection.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed request line: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    if "id" not in obj:
        raise ProtocolError("request missing 'id'")
    kind = obj.get("kind")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(
            f"unknown request kind {kind!r}; expected one of "
            f"{', '.join(REQUEST_KINDS)}"
        )
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    deadline = obj.get("deadline_s")
    if deadline is not None:
        deadline = float(deadline)
        if deadline <= 0:
            raise ProtocolError("'deadline_s' must be positive")
    tenant = str(obj.get("tenant", "default"))
    return Request(id=str(obj["id"]), kind=str(kind), tenant=tenant,
                   params=params, deadline_s=deadline)


def encode_request(id: str, kind: str, *, tenant: str = "default",
                   params: dict | None = None,
                   deadline_s: float | None = None) -> str:
    """One request as a JSONL line (clients and the load generator)."""
    obj: dict[str, Any] = {"id": id, "kind": kind, "tenant": tenant}
    if params:
        obj["params"] = _json_safe(params)
    if deadline_s is not None:
        obj["deadline_s"] = deadline_s
    return json.dumps(obj, sort_keys=True) + "\n"


def make_response(request_id: str | None, *, status: str,
                  quality: str | None = None,
                  result: dict | None = None,
                  error: BaseException | None = None,
                  shard: int | None = None,
                  attempts: int | None = None,
                  queued_ms: float | None = None,
                  service_ms: float | None = None) -> dict:
    """Build a terminal response envelope (not yet serialized)."""
    obj: dict[str, Any] = {
        "proto": SERVICE_PROTOCOL,
        "id": request_id,
        "status": status,
    }
    if quality is not None:
        obj["quality"] = quality
    if result is not None:
        obj["result"] = _json_safe(result)
    if error is not None:
        obj["error"] = {
            "type": type(error).__name__,
            "message": str(error),
        }
    if shard is not None:
        obj["shard"] = shard
    if attempts is not None:
        obj["attempts"] = attempts
    if queued_ms is not None:
        obj["timing"] = {"queued_ms": round(queued_ms, 3),
                         "service_ms": round(service_ms or 0.0, 3)}
    return obj


def encode_response(obj: dict) -> bytes:
    """Serialize a response envelope as one JSONL line."""
    return (json.dumps(_json_safe(obj), sort_keys=True) + "\n").encode()


def parse_response(line: str | bytes) -> dict:
    """Parse one response line (client side)."""
    if isinstance(line, bytes):
        line = line.decode()
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed response line: {exc}") from None
    if not isinstance(obj, dict) or "status" not in obj:
        raise ProtocolError("response must be an object with 'status'")
    return obj
