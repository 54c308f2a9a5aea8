"""Service-level chaos drills: seeded fault-laden load generation.

Extends the runtime chaos layer (:class:`~repro.runtime.chaos.
ChaosMonkey`) up to the serving stack: :func:`build_load` produces a
deterministic mixed workload where a seeded fraction of requests carry
chaos directives — kill the worker mid-job (pool executor only; the
:class:`~repro.runtime.chaos.KillOnceTask` marker idiom keeps the
retry alive), stall past the deadline, or poison the request outright.
:func:`run_load` drives it through real sockets and audits the
server's core promises:

* **exactly one** terminal response per request (no drops, no dupes);
* every response is a terminal quality (full / cached / degraded /
  rejected) or an explicit error — the server never goes dark;
* availability (non-error fraction) is measurable, so drills can
  assert graceful degradation instead of hoping for it.

Everything is deterministic given the monkey's seed; a drill is a
reproducible failure schedule, not a flaky test.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.calibration import paper_design
from repro.errors import ConfigurationError
from repro.runtime.chaos import ChaosMonkey
from repro.service.client import AsyncServiceClient
from repro.service.fleet import FleetConfig

#: Default request-kind rotation of the mixed load (measure-heavy, the
#: serving hot path, with periodic heavier studies mixed in).
DEFAULT_MIX = ("measure", "measure", "measure", "characterize",
               "measure", "window", "measure", "s_curve")


def _params_for(kind: str, i: int, config: FleetConfig,
                vdd: float) -> dict:
    """Deterministic per-request parameters (no RNG: index-driven)."""
    if kind == "measure":
        # Sweep the decode span; irrational stride avoids aliasing the
        # ladder so cache hits come from repeats, not coincidence.
        frac = (i * 0.381966) % 1.0
        return {"level": round(vdd - 0.28 + 0.30 * frac, 6),
                "code": 3}
    if kind == "characterize":
        return {"die": i % config.n_dies, "code": 3}
    if kind == "window":
        return {"n_samples": 512, "seed": i, "code": 3}
    if kind == "s_curve":
        return {"bit": (i % 7) + 1, "n_per_level": 20, "seed": i,
                "code": 3}
    if kind == "yield":
        return {"n_dies": 4, "code": 3}
    return {}


def build_load(monkey: ChaosMonkey | int, n_requests: int, *,
               config: FleetConfig | None = None,
               mix: tuple[str, ...] = DEFAULT_MIX,
               kill_rate: float = 0.0,
               marker_dir: str | None = None,
               slow_rate: float = 0.0,
               slow_s: float = 0.2,
               poison_rate: float = 0.0,
               tenants: tuple[str, ...] = ("default",),
               deadline_s: float | None = None) -> list[dict]:
    """Build a deterministic fault-laden request list.

    Returns request dicts (``id`` / ``kind`` / ``tenant`` / ``params``
    / ``deadline_s``) for :func:`run_load`.  Chaos directives ride in
    ``params["chaos"]``.

    Args:
        monkey: The seeded fault schedule (or a seed for one).
        kill_rate: Fraction of requests whose worker SIGKILLs itself
            once (requires ``marker_dir``; **pool executor only** —
            an inline worker thread shares the server's process).
        slow_rate / slow_s: Fraction of requests stalled, and for how
            long (deadline pressure).
        poison_rate: Fraction of requests that are defective by
            construction (execution raises).
    """
    if isinstance(monkey, int):
        monkey = ChaosMonkey(monkey)
    if kill_rate > 0 and marker_dir is None:
        raise ConfigurationError(
            "kill_rate needs marker_dir for the armed-once markers"
        )
    config = config or FleetConfig()
    vdd = paper_design().tech.vdd_nominal
    requests: list[dict] = []
    for i in range(n_requests):
        kind = mix[i % len(mix)]
        params = _params_for(kind, i, config, vdd)
        chaos: dict = {}
        if kill_rate and monkey.should(kill_rate):
            chaos["kill_marker"] = str(
                Path(marker_dir) / f"kill-{i}.marker"
            )
        if slow_rate and monkey.should(slow_rate):
            chaos["sleep_s"] = slow_s
        if poison_rate and monkey.should(poison_rate):
            chaos["poison"] = True
        if chaos:
            params = dict(params, chaos=chaos)
        requests.append({
            "id": f"r{i}",
            "kind": kind,
            "tenant": tenants[i % len(tenants)],
            "params": params,
            "deadline_s": deadline_s,
        })
    return requests


@dataclass
class LoadReport:
    """What actually happened to a driven load."""

    n_sent: int = 0
    responses: dict = field(default_factory=dict)
    latencies: dict = field(default_factory=dict)
    duplicates: list = field(default_factory=list)
    closed_early: int = 0
    elapsed_s: float = 0.0

    @property
    def by_quality(self) -> Counter:
        return Counter(r.get("quality", "-")
                       for r in self.responses.values())

    @property
    def by_status(self) -> Counter:
        return Counter(r.get("status", "-")
                       for r in self.responses.values())

    @property
    def availability(self) -> float:
        """Fraction of requests answered ``ok`` (any quality)."""
        if not self.n_sent:
            return 0.0
        return self.by_status.get("ok", 0) / self.n_sent

    @property
    def throughput_rps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return len(self.responses) / self.elapsed_s

    def latency_quantile(self, q: float) -> float:
        """Client-observed latency quantile, seconds."""
        values = sorted(self.latencies.values())
        if not values:
            return float("nan")
        pos = min(len(values) - 1, int(q * (len(values) - 1) + 0.5))
        return values[pos]

    def problems(self) -> list[str]:
        """Violations of the exactly-one-terminal-response contract.

        Empty list == the drill's invariants held.
        """
        problems = []
        if self.duplicates:
            problems.append(
                f"duplicate terminal responses for {self.duplicates}"
            )
        missing = self.n_sent - len(self.responses)
        if missing:
            problems.append(f"{missing} requests never answered")
        if self.closed_early:
            problems.append(
                f"{self.closed_early} connections closed early"
            )
        for rid, resp in self.responses.items():
            status = resp.get("status")
            if status not in ("ok", "rejected", "error"):
                problems.append(f"{rid}: non-terminal status {status!r}")
            elif status == "ok" and resp.get("quality") not in \
                    ("full", "cached", "degraded"):
                problems.append(
                    f"{rid}: ok with quality {resp.get('quality')!r}"
                )
        return problems


async def _drive_client(address: str, requests: list[dict],
                        depth: int, report: LoadReport) -> None:
    client = await AsyncServiceClient(address).connect()
    inflight: dict[str, float] = {}
    queue = list(requests)
    outstanding = len(queue)
    try:
        async def send_next() -> None:
            req = queue.pop(0)
            inflight[req["id"]] = time.monotonic()
            await client.send(
                req["id"], req["kind"],
                tenant=req.get("tenant", "default"),
                params=req.get("params") or {},
                deadline_s=req.get("deadline_s"),
            )

        while queue and len(inflight) < depth:
            await send_next()
        while outstanding:
            response = await client.read_response()
            if response is None:
                report.closed_early += 1
                return
            rid = response.get("id")
            now = time.monotonic()
            if rid in report.responses:
                report.duplicates.append(rid)
            report.responses[rid] = response
            started = inflight.pop(rid, None)
            if started is not None:
                report.latencies[rid] = now - started
            outstanding -= 1
            if queue:
                await send_next()
    finally:
        await client.close()


async def run_load(address: str, requests: list[dict], *,
                   n_clients: int = 4, depth: int = 1,
                   timeout_s: float = 120.0) -> LoadReport:
    """Drive ``requests`` at the server over ``n_clients`` sockets.

    ``depth`` is the per-client pipeline depth: 1 is a closed loop
    (honest per-request latency, the benchmark default); larger values
    burst requests to build queue pressure for admission-control
    drills.
    """
    if n_clients < 1 or depth < 1:
        raise ConfigurationError(
            "n_clients and depth must be at least 1"
        )
    report = LoadReport(n_sent=len(requests))
    lanes: list[list[dict]] = [[] for _ in range(n_clients)]
    for i, req in enumerate(requests):
        lanes[i % n_clients].append(req)
    started = time.monotonic()
    await asyncio.wait_for(
        asyncio.gather(*(
            _drive_client(address, lane, depth, report)
            for lane in lanes if lane
        )),
        timeout=timeout_s,
    )
    report.elapsed_s = time.monotonic() - started
    return report
