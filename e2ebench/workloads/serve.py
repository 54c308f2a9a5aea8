"""``serve``: real ``repro serve`` processes under a seeded mixed load.

Each server is ``repro serve --unix`` with ``DIES`` virtual dies over
``SHARDS`` shards, the inline executor and no result cache, so no
request is served from a cache or a pool.  The load is
``repro.service.build_load``'s ``DEFAULT_MIX`` (measure-heavy, with
characterize, window and s_curve requests), shifted and shuffled by
``--seed``; the seed is also the fleet's variation seed.

The set-up starts three servers (the ``setup_s`` samples), and each
gets a ``WARMUP``-request warm-up.  One unit is then a closed-loop
round of ``ROUND`` requests over ``CONNECTIONS`` connections, each
keeping ``DEPTH`` requests in flight, on the next server in turn:
``run_s`` is the median round time, the inverse of throughput.  The
last ``OPEN_SHARE`` of the run is an open loop at ``OPEN_RATE`` req/s
whose latencies are timed from each request's due time; they are
reported, not gated, because they vary more than any bound on a
shared 2-CPU host.

Client and servers never share a CPU, as on separate machines: the
client keeps the first usable CPU and the servers get the rest (one on
a 2-CPU host), where the host-speed probe runs too.  The inline
executor's server holds the GIL, so it keeps one CPU busy either way.
Free to move, its threads would hand the GIL from CPU to CPU: rounds
measured about 15 % slower that way, and their time then depends on
how fast a shared host wakes an idle CPU.

Every request must get exactly one ``ok``/``full`` response, and the
first ``PARITY_PER_KIND`` warm-up responses of each kind must equal an
in-process ``execute_job`` call.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from e2ebench.common import (
    BENCH_DIR,
    ROOT,
    Context,
    Outcome,
    child_env,
    digest,
    load_golden,
    run_scratch,
)

DIES, SHARDS = 16, 2
CONNECTIONS, DEPTH = 2, 8
WARMUP = 500
ROUND = 500
OPEN_RATE = 200.0
OPEN_SHARE = 0.2
PARITY_PER_KIND = 8


def ready() -> Any:
    """Set-up of the client side: the service layer and the design."""
    import repro.service  # noqa: F401
    from repro.core.calibration import paper_design

    return paper_design()


def cpu_split() -> tuple[set[int] | None, set[int] | None]:
    """(client CPUs, server CPUs); ``None`` where affinity is unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


class Server:
    """One ``repro serve`` subprocess on a unix socket."""

    def __init__(self, name: str, seed: int, *,
                 cpus: set[int] | None = None,
                 trace_out: Path | None = None) -> None:
        scratch = run_scratch()
        self.sock = scratch / f"{name}.sock"
        self.stats_out = scratch / f"{name}-stats.json"
        self.cpus = cpus
        self.trace_out = trace_out
        self.seed = seed
        self.proc: subprocess.Popen | None = None

    @property
    def address(self) -> str:
        # Relative: a unix socket path must stay under ~100 bytes.
        return "unix:" + os.path.relpath(self.sock)

    def start(self) -> float:
        """Spawn the server; seconds until its socket accepts."""
        cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py")]
        if self.cpus is not None:
            cmd += ["--cpus", ",".join(map(str, sorted(self.cpus)))]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        cmd += ["--", "--unix", os.path.relpath(self.sock, ROOT),
                "--dies", str(DIES), "--shards", str(SHARDS),
                "--seed", str(self.seed),
                "--stats-out", str(self.stats_out)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.DEVNULL)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with "
                                   f"{self.proc.returncode} before "
                                   f"accepting")
            try:
                with socket.socket(socket.AF_UNIX) as probe:
                    probe.connect(os.path.relpath(self.sock))
                return time.perf_counter() - t0
            except OSError:
                if time.perf_counter() - t0 > 120:
                    self.stop()
                    raise RuntimeError("server did not accept in 120 s")
                time.sleep(0.002)

    def cpu_s(self) -> float:
        """CPU seconds the server process has used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> dict[str, Any]:
        """SIGINT the server, wait for it, return its ``--stats-out``."""
        if self.proc is None:
            return {}
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        try:
            return json.loads(self.stats_out.read_text())
        except (OSError, ValueError):
            return {}


def build_requests(seed: int, start: int, n: int) -> list[dict]:
    """Requests ``start..start+n`` of the seed's load, shuffled."""
    from repro.service import FleetConfig, build_load

    offset = (seed % 997) * 8  # whole DEFAULT_MIX cycles
    load = build_load(seed, offset + start + n,
                      config=FleetConfig(n_dies=DIES, n_shards=SHARDS,
                                         seed=seed))
    requests = load[offset + start:]
    random.Random(f"{seed}:{start}").shuffle(requests)
    return requests


def _normalize(value: Any) -> Any:
    """JSON-comparable body: non-finite floats as null, tuples as lists,
    and no ``coalesced`` key (it records batching, not the answer)."""
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()
                if k != "coalesced"}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def bodies_digest(responses: dict[str, dict]) -> str:
    """Digest of the normalized response bodies, keyed and sorted."""
    return digest(json.dumps({rid: _normalize(r.get("result"))
                              for rid, r in responses.items()},
                             sort_keys=True))


def _response_problems(requests: list[dict],
                       responses: dict[str, dict]) -> list[str]:
    problems = []
    missing = len({r["id"] for r in requests} - set(responses))
    if missing:
        problems.append(f"{missing} requests never answered")
    bad = [rid for rid, resp in responses.items()
           if (resp.get("status"), resp.get("quality")) != ("ok", "full")]
    if bad:
        problems.append(f"{len(bad)} responses not ok/full, e.g. "
                        f"{responses[bad[0]]}")
    return problems


def _parity_problems(seed: int, requests: list[dict],
                     responses: dict[str, dict]) -> list[str]:
    """Served bodies vs in-process ``execute_job`` on the same payload."""
    from dataclasses import asdict

    from repro.service import FleetConfig, execute_job

    fleet = asdict(FleetConfig(n_dies=DIES, n_shards=SHARDS, seed=seed))
    seen: dict[str, int] = {}
    problems = []
    for req in sorted(requests, key=lambda r: int(r["id"][1:])):
        if seen.get(req["kind"], 0) >= PARITY_PER_KIND:
            continue
        seen[req["kind"]] = seen.get(req["kind"], 0) + 1
        payload = {"kind": req["kind"], "params": dict(req["params"]),
                   "fleet": fleet}
        local = _normalize(json.loads(json.dumps(
            _normalize(execute_job(payload)))))
        served = _normalize(responses[req["id"]].get("result"))
        if local != served:
            problems.append(f"{req['id']} ({req['kind']}): served body "
                            f"differs from execute_job")
    return problems


def _closed_round(address: str, requests: list[dict]) -> tuple[float,
                                                                 Any]:
    from repro.service import run_load

    t0 = time.perf_counter()
    report = asyncio.run(run_load(address, requests,
                                  n_clients=CONNECTIONS, depth=DEPTH,
                                  timeout_s=120.0))
    return time.perf_counter() - t0, report


async def _open_loop(address: str, requests: list[dict],
                     rate: float) -> tuple[dict[str, float],
                                           dict[str, dict], float]:
    """Send on a fixed schedule; latency counts from each due time."""
    from repro.service import AsyncServiceClient

    clients = [await AsyncServiceClient(address).connect()
               for _ in range(CONNECTIONS)]
    loop = asyncio.get_running_loop()
    due: dict[str, float] = {}
    latency: dict[str, float] = {}
    responses: dict[str, dict] = {}
    late_max = 0.0
    start = loop.time() + 0.01

    async def send() -> None:
        nonlocal late_max
        for i, req in enumerate(requests):
            when = start + i / rate
            if when > loop.time():
                await asyncio.sleep(when - loop.time())
            late_max = max(late_max, loop.time() - when)
            due[req["id"]] = when
            await clients[i % CONNECTIONS].send(
                req["id"], req["kind"], tenant=req["tenant"],
                params=req["params"])

    async def receive(client: Any, expected: int) -> None:
        for _ in range(expected):
            resp = await client.read_response()
            if resp is None:
                return
            rid = resp.get("id")
            latency.setdefault(rid, loop.time() - due.get(rid, start))
            responses.setdefault(rid, resp)

    try:
        await asyncio.wait_for(asyncio.gather(send(), *(
            receive(c, len(requests[i::CONNECTIONS]))
            for i, c in enumerate(clients))), timeout=120.0)
    finally:
        for client in clients:
            await client.close()
    return latency, responses, late_max


def _tail(values: list[float]) -> tuple[float, float]:
    """(q, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    q = max(0.5, 1.0 - 10.0 / len(ordered))
    return q, ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _service_counters(stats: list[dict], responses: int,
                      cpu_s: float) -> dict[str, float]:
    """The servers' ``--stats-out`` counters, pooled, and their CPU cost
    of the closed-loop rounds."""
    counters = [s.get("counters", {}) for s in stats]
    shards = [sh for s in stats for sh in s.get("shards", [])]
    executed = sum(sh.get("executed", 0) for sh in shards)
    served = sum(c.get("responses", 0) for c in counters)
    return {
        "service.req_per_cpu_s": responses / cpu_s if cpu_s else 0.0,
        "service.coalesce_ratio": served / executed if executed else 0.0,
        "service.queue_hwm": max((sh["queue"]["high_watermark"]
                                  for sh in shards), default=0),
        "service.rejected": sum(c.get("rejected", 0) for c in counters),
        "service.retries": sum(c.get("retries", 0) for c in counters),
    }


def run(ctx: Context) -> Outcome:
    client_cpus, server_cpus = cpu_split()
    if client_cpus is not None:
        os.sched_setaffinity(0, client_cpus)
    ctx.speed.cpus = server_cpus
    ready()
    problems: list[str] = []
    servers: list[Server] = []

    def start_server() -> float:
        servers.append(Server(f"server-{len(servers)}", ctx.seed,
                              cpus=server_cpus))
        return servers[-1].start()

    warmup = build_requests(ctx.seed, 0, WARMUP)
    round_requests = build_requests(ctx.seed, WARMUP, ROUND)
    state = {"sent": 0, "failed": 0, "rounds": 0}

    def round_on(address: str, requests: list[dict]) -> float:
        elapsed, report = _closed_round(address, requests)
        state["sent"] += len(requests)
        bad = report.problems() + _response_problems(requests,
                                                     report.responses)
        if bad:
            state["failed"] += len(requests)
            problems.extend(bad)
        return elapsed

    def next_round() -> float:
        # Rounds rotate over every set-up server, so no one process's
        # luck (memory layout, hash seed) sets the median.
        state["rounds"] += 1
        server = servers[state["rounds"] % len(servers)]
        return round_on(server.address, round_requests)

    detail: dict[str, Any] = {"round_requests": ROUND,
                              "connections": CONNECTIONS,
                              "depth": DEPTH}
    try:
        setups = ctx.setups(start_server)
        for i, server in enumerate(servers):
            _, report = _closed_round(server.address, warmup)
            state["sent"] += len(warmup)
            bad = report.problems() + _response_problems(
                warmup, report.responses)
            problems += bad
            if i == 0 and not bad:
                problems += _parity_problems(ctx.seed, warmup,
                                             report.responses)
                golden = load_golden()["serve"].get(str(ctx.seed))
                got = bodies_digest(report.responses)
                if golden is not None and got != golden:
                    problems.append(f"warm-up bodies digest {got} "
                                    f"differs from the golden {golden}")
        closed_s = (ctx.seconds / 2 if ctx.trace
                    else ctx.seconds * (1 - OPEN_SHARE))
        cpu_before = sum(server.cpu_s() for server in servers)
        plain = ctx.repeat(closed_s, next_round)
        cpu_s = sum(server.cpu_s() for server in servers) - cpu_before
        if not ctx.trace:
            detail["open_loop"] = _open_phase(ctx, state, problems,
                                              servers[0].address)
    finally:
        stats = [server.stop() for server in servers]
    detail["closed_loop_rps"] = ROUND / statistics.median(plain)
    out = Outcome(setup_s=setups, unit_s=plain,
                  run_s=statistics.median(plain), attempted=0, failed=0,
                  counters=_service_counters(stats, len(plain) * ROUND,
                                             cpu_s),
                  detail=detail)
    if ctx.trace:
        _traced_phase(ctx, out, warmup, round_requests, round_on)
    out.attempted, out.failed = state["sent"], state["failed"]
    out.problems = problems[:20]
    return out


def _open_phase(ctx: Context, state: dict, problems: list[str],
                address: str) -> dict[str, float]:
    n_open = max(1, int(OPEN_RATE * ctx.seconds * OPEN_SHARE))
    requests = build_requests(ctx.seed, WARMUP + ROUND, n_open)
    latency, responses, late = asyncio.run(
        _open_loop(address, requests, OPEN_RATE))
    state["sent"] += len(requests)
    bad = _response_problems(requests, responses)
    if bad:
        state["failed"] += len(requests) - sum(
            1 for r in responses.values() if r.get("status") == "ok")
        problems.extend(bad)
    values = list(latency.values())
    q, tail = _tail(values)
    return {
        "rate_rps": OPEN_RATE, "samples": len(values),
        "p50_ms": statistics.median(values) * 1e3,
        "tail_quantile": q, "tail_ms": tail * 1e3,
        "gen_late_ms_max": late * 1e3,
    }


def _traced_phase(ctx: Context, out: Outcome, warmup: list[dict],
                  round_requests: list[dict], round_on: Any) -> None:
    """The warm-up and closed-loop rounds again, on a traced server."""
    from e2ebench.tracer import load_spans

    trace_file = run_scratch() / "server-trace.json"
    traced = Server("traced", ctx.seed, cpus=ctx.speed.cpus,
                    trace_out=trace_file)
    traced.start()
    try:
        wall = round_on(traced.address, warmup)
        times = ctx.repeat(
            ctx.seconds / 2,
            lambda: round_on(traced.address, round_requests))
    finally:
        stats = traced.stop()
    out.spans, out.hook_counters, out.call_counts = load_spans(trace_file)
    served = stats.get("counters", {}).get("responses", 0)
    out.traced_run_s = statistics.median(times)
    out.traced_units = served / ROUND
    out.traced_wall_s = wall + sum(times)
