"""Sensing as a service: the fault-tolerant asyncio job server.

The serving stack over the measurement backends — many concurrent
clients, a sharded virtual-die fleet, and an explicit robustness
surface: bounded admission queues (the telemetry overflow policies),
per-tenant token buckets, per-request deadlines with cooperative
cancellation, per-shard circuit breakers, bounded retries with the
resilient runtime's deterministic backoff, and graceful degradation
through the result cache and reduced-resolution decodes.  See
:mod:`repro.service.server` for the full dataflow.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "AdmissionQueue": ".admission",
    "AsyncServiceClient": ".client",
    "BreakerState": ".breaker",
    "CircuitBreaker": ".breaker",
    "Fleet": ".fleet",
    "FleetConfig": ".fleet",
    "JobServer": ".server",
    "LoadReport": ".chaos",
    "QUALITIES": ".protocol",
    "REQUEST_KINDS": ".protocol",
    "Request": ".protocol",
    "SERVICE_PROTOCOL": ".protocol",
    "TokenBucket": ".admission",
    "build_load": ".chaos",
    "die_sample": ".fleet",
    "encode_request": ".protocol",
    "execute_job": ".fleet",
    "make_response": ".protocol",
    "parse_address": ".client",
    "parse_request": ".protocol",
    "parse_response": ".protocol",
    "run_load": ".chaos",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
