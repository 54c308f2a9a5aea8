"""End-to-end JobServer tests: real sockets, mixed load, chaos.

The contract under test is the service layer's headline promise:
whatever faults fire mid-load — killed pool workers, stalling
backends, poison requests, full queues, tripped breakers — every
request gets **exactly one** terminal response, accepted work comes
back as full/cached/degraded, shed work comes back REJECTED naming
the ServiceError that shed it, and the server shuts down cleanly.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

import pytest

from repro.backends import FaultInjectingBackend, SimBackend
from repro.runtime.cache import ResultCache
from repro.runtime.resilient import RetryPolicy
from repro.service import FleetConfig, JobServer, build_load, run_load
from repro.service.chaos import LoadReport


def drive(server: JobServer, requests, *, n_clients=2, depth=2,
          unix_path=None, timeout_s=90.0) -> LoadReport:
    """Start the server, push the load, stop — one event loop."""

    async def _run():
        address = await server.start(unix_path=unix_path)
        try:
            return await run_load(address, requests,
                                  n_clients=n_clients, depth=depth,
                                  timeout_s=timeout_s)
        finally:
            await server.stop()

    return asyncio.run(_run())


SMALL = FleetConfig(n_dies=8, n_shards=2)


def test_mixed_load_is_served_full_quality(tmp_path):
    server = JobServer(backend="sim", config=SMALL,
                       default_deadline_s=60.0)
    requests = build_load(11, 12, config=SMALL)
    report = drive(server, requests,
                   unix_path=str(tmp_path / "svc.sock"))
    assert report.problems() == []
    assert report.by_status == {"ok": 12}
    assert set(report.by_quality) == {"full"}
    counters = server.stats()["counters"]
    assert counters["requests"] == 12
    assert counters["responses"] == 12
    assert counters["dropped_connections"] == 0


def test_yield_and_ping_kinds(tmp_path):
    # 'yield' needs lot_thresholds, which sim does not offer.
    server = JobServer(backend="kernel", config=SMALL)
    requests = [
        {"id": "p", "kind": "ping", "params": {}},
        {"id": "y", "kind": "yield",
         "params": {"n_dies": 3, "code": 3}},
    ]
    report = drive(server, requests, n_clients=1, depth=1,
                   unix_path=str(tmp_path / "svc.sock"))
    assert report.problems() == []
    assert report.responses["p"]["result"] == {"pong": True}
    y = report.responses["y"]
    assert y["status"] == "ok"
    assert len(y["result"]["threshold_sigma_mv"]) == 7
    assert y["result"]["worst_sigma_mv"] > 0


def test_protocol_garbage_gets_error_and_connection_survives(tmp_path):
    server = JobServer(backend="sim", config=SMALL)

    async def _run():
        address = await server.start(
            unix_path=str(tmp_path / "svc.sock"))
        reader, writer = await asyncio.open_unix_connection(
            str(tmp_path / "svc.sock"))
        try:
            writer.write(b"this is not json\n")
            writer.write(b'{"id": "ok1", "kind": "ping"}\n')
            await writer.drain()
            import json
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            return first, second
        finally:
            writer.close()
            await server.stop()

    first, second = asyncio.run(_run())
    assert first["status"] == "error"
    assert first["error"]["type"] == "ProtocolError"
    assert second["id"] == "ok1" and second["status"] == "ok"
    assert server.counters["protocol_errors"] == 1


def test_drop_oldest_sheds_explicitly(tmp_path):
    server = JobServer(backend="sim", config=SMALL,
                       queue_depth=2, queue_policy="drop_oldest",
                       coalesce=1)
    # One connection bursting far past the queue depth guarantees
    # evictions; every eviction still owes a REJECTED response.
    requests = build_load(5, 24, config=SMALL,
                          mix=("window",),  # slow enough to pile up
                          )
    report = drive(server, requests, n_clients=1, depth=24,
                   unix_path=str(tmp_path / "svc.sock"))
    assert report.problems() == []
    shed = [r for r in report.responses.values()
            if r["status"] == "rejected"]
    assert shed, "burst past a depth-2 queue must shed something"
    assert all(r["error"]["type"] == "AdmissionRejectedError"
               for r in shed)
    queues = [s["queue"] for s in server.stats()["shards"]]
    assert sum(q["dropped"] for q in queues) == len(shed)


def test_tenant_token_bucket_isolation(tmp_path):
    server = JobServer(backend="sim", config=SMALL,
                       tenant_rate=0.001, tenant_burst=2)
    requests = [
        {"id": f"a{i}", "kind": "ping", "tenant": "alice",
         "params": {}} for i in range(4)
    ] + [
        {"id": f"b{i}", "kind": "ping", "tenant": "bob",
         "params": {}} for i in range(2)
    ]
    # ping bypasses admission, so use measure for the quota surface.
    for req in requests:
        req["kind"] = "measure"
        req["params"] = {"level": 1.05, "code": 3}
    report = drive(server, requests, n_clients=1, depth=1,
                   unix_path=str(tmp_path / "svc.sock"))
    assert report.problems() == []
    alice = [report.responses[f"a{i}"] for i in range(4)]
    bob = [report.responses[f"b{i}"] for i in range(2)]
    assert [r["status"] for r in alice] == \
        ["ok", "ok", "rejected", "rejected"]
    assert all(r["error"]["type"] == "TenantQuotaError"
               for r in alice[2:])
    # Alice exhausting her bucket never touches Bob's.
    assert [r["status"] for r in bob] == ["ok", "ok"]
    tenants = server.stats()["tenants"]
    assert tenants["alice"]["refused"] == 2
    assert tenants["bob"]["refused"] == 0


def test_breaker_opens_and_load_degrades(tmp_path):
    """A backend that always faults: retries exhaust, the breaker
    trips, and every measure request still gets an 'ok' answer —
    quality 'degraded', never a crash or a silent drop."""
    server = JobServer(
        backend=lambda: FaultInjectingBackend(SimBackend(),
                                              error_rate=1.0),
        config=SMALL,
        retry_policy=RetryPolicy(retries=1, backoff_base=0.001),
        breaker_threshold=2, breaker_cooldown_s=30.0,
    )
    requests = build_load(13, 10, config=SMALL, mix=("measure",))
    report = drive(server, requests,
                   unix_path=str(tmp_path / "svc.sock"))
    assert report.problems() == []
    assert report.by_status == {"ok": 10}
    assert set(report.by_quality) == {"degraded"}
    breakers = [s["breaker"] for s in server.stats()["shards"]]
    assert any(b["opens"] >= 1 for b in breakers)
    degraded = report.responses["r0"]["result"]
    assert degraded["resolution"] < degraded["full_resolution"]


def test_degraded_decode_still_brackets_the_level(tmp_path):
    server = JobServer(
        backend=lambda: FaultInjectingBackend(SimBackend(),
                                              error_rate=1.0),
        config=SMALL,
        retry_policy=RetryPolicy(retries=0, backoff_base=0.001),
        breaker_threshold=1,
    )
    level = 1.05
    requests = [{"id": "m", "kind": "measure",
                 "params": {"level": level, "code": 3}}]
    report = drive(server, requests, n_clients=1, depth=1,
                   unix_path=str(tmp_path / "svc.sock"))
    m = report.responses["m"]
    assert m["quality"] == "degraded"
    measure = m["result"]["measures"][0]
    lo = measure["lo"] if measure["lo"] is not None else -1e9
    hi = measure["hi"] if measure["hi"] is not None else 1e9
    assert lo < level <= hi


def test_cache_hits_and_tenant_isolation(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    server = JobServer(backend="sim", config=SMALL, cache=cache,
                       coalesce=1)
    req = {"kind": "measure", "params": {"level": 1.05, "code": 3}}
    requests = [
        dict(req, id="first", tenant="alice"),
        dict(req, id="repeat", tenant="alice"),
        dict(req, id="other-tenant", tenant="bob"),
    ]
    report = drive(server, requests, n_clients=1, depth=1,
                   unix_path=str(tmp_path / "svc.sock"))
    assert report.problems() == []
    assert report.responses["first"]["quality"] == "full"
    assert report.responses["repeat"]["quality"] == "cached"
    # Same request, different tenant: an isolated cache key.
    assert report.responses["other-tenant"]["quality"] == "full"
    assert report.responses["repeat"]["result"] == \
        report.responses["first"]["result"]
    assert cache.hits == 1


def test_measure_coalescing_batches_compatible_requests(tmp_path):
    server = JobServer(backend="sim",
                       config=FleetConfig(n_dies=8, n_shards=1),
                       coalesce=8)
    requests = [{"id": f"m{i}", "kind": "measure",
                 "params": {"level": 1.00 + 0.01 * i, "code": 3}}
                for i in range(8)]
    report = drive(server, requests, n_clients=1, depth=8,
                   unix_path=str(tmp_path / "svc.sock"))
    assert report.problems() == []
    assert report.by_status == {"ok": 8}
    shard = server.stats()["shards"][0]
    # Burst of 8 served in fewer backend calls than requests.
    assert shard["executed"] < 8
    # Each response still carries its own level's decode.
    for i in range(8):
        result = report.responses[f"m{i}"]["result"]
        assert result["levels"] == [pytest.approx(1.00 + 0.01 * i)]


def test_chaos_drill_pool_survives_kills_slow_and_poison(tmp_path):
    """The headline drill: pool executor, seeded worker kills armed
    once, stalls, and poison requests — under concurrent clients."""
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    server = JobServer(
        backend="kernel", executor="pool", pool_workers=1,
        config=SMALL,
        retry_policy=RetryPolicy(retries=2, backoff_base=0.01),
        default_deadline_s=60.0,
    )
    requests = build_load(
        2009, 24, config=SMALL,
        mix=("measure", "characterize", "measure", "window"),
        kill_rate=0.15, marker_dir=str(marker_dir),
        slow_rate=0.1, slow_s=0.05,
        poison_rate=0.1,
    )
    n_poison = sum(1 for r in requests
                   if r["params"].get("chaos", {}).get("poison"))
    n_kills = sum(1 for r in requests
                  if "kill_marker" in r["params"].get("chaos", {}))
    assert n_kills >= 1 and n_poison >= 1, "seed must inject both"
    report = drive(server, requests, n_clients=3, depth=3,
                   unix_path=str(tmp_path / "svc.sock"))
    # The invariants: exactly one terminal response each, no dupes,
    # no dropped connections, clean shutdown (drive() stopped it).
    assert report.problems() == []
    counters = server.stats()["counters"]
    assert counters["responses"] == len(requests)
    assert counters["dropped_connections"] == 0
    # Poison surfaces as per-request errors, not as dead air.
    errors = [r for r in report.responses.values()
              if r["status"] == "error"]
    assert len(errors) == n_poison
    # Killed workers were rebuilt and their jobs retried to success.
    assert counters["crashes"] >= n_kills
    rebuilds = sum(s["pool_rebuilds"]
                   for s in server.stats()["shards"])
    assert rebuilds == counters["crashes"]
    assert report.availability >= (len(requests) - n_poison) \
        / len(requests) - 1e-9


def test_stop_rejects_still_queued_jobs(tmp_path):
    server = JobServer(backend="sim", config=SMALL)

    async def _run():
        await server.start(unix_path=str(tmp_path / "svc.sock"))
        # Enqueue directly, then stop before the shard loop runs.
        from repro.service.protocol import Request
        from repro.service.server import _Connection

        class _NullWriter:
            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

            async def wait_closed(self):
                pass

        conn = _Connection(_NullWriter())
        job = server._job_for(
            Request(id="q1", kind="measure",
                    params={"level": 1.05, "code": 3}), conn)
        for shard in server.shards:
            shard.task.cancel()
        await asyncio.sleep(0)
        await server.shards[job.shard].queue.put(job)
        await server.stop()
        return job

    job = asyncio.run(_run())
    assert job.responded
    assert server.counters["rejected"] == 1


def test_serve_stats_out_includes_cache_lifetime(tmp_path):
    """``repro serve --stats-out`` must report the ResultCache's
    cross-process lifetime counters — the server flushes its deltas
    to the cache root's stats log on stop, so the dump (and any later
    ``repro cache`` call) sees the run's true totals."""
    import json
    import pathlib
    import subprocess
    import sys
    import time

    from repro.service.chaos import run_load

    repo = pathlib.Path(__file__).parent.parent
    sock = tmp_path / "svc.sock"
    stats_path = tmp_path / "stats.json"
    cache_root = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(repo / "src"), os.environ.get("PYTHONPATH"))
        if p))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--unix", str(sock), "--backend", "sim",
         "--dies", "8", "--shards", "2",
         "--cache-dir", str(cache_root),
         "--max-requests", "3",
         "--stats-out", str(stats_path)],
        env=env,
    )
    try:
        for _ in range(300):
            if sock.exists():
                break
            time.sleep(0.1)
        else:
            raise RuntimeError("server socket never appeared")
        req = {"kind": "measure", "params": {"level": 1.05, "code": 3}}
        requests = [dict(req, id=f"r{i}") for i in range(3)]
        report = asyncio.run(run_load(
            f"unix:{sock}", requests, n_clients=1, depth=1,
            timeout_s=120))
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()

    assert report.problems() == []
    assert server.returncode == 0
    stats = json.loads(stats_path.read_text())
    cache_stats = stats["cache"]
    assert cache_stats is not None, "serve dropped its cache stats"
    lifetime = cache_stats["lifetime"]
    # Identical requests: one miss computes, the repeats hit.
    assert lifetime["misses"] >= 1
    assert lifetime["hits"] >= 1
    assert lifetime["errors"] == 0

    # The stop() flush persisted the counters: a *fresh* process
    # reading the same root sees the same lifetime totals.
    probe = ResultCache(cache_root)
    assert probe.lifetime_stats() == lifetime


def test_cli_submit_round_trip_against_live_server(tmp_path):
    """``repro submit`` drives one request through a live server."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    async def _run():
        server = JobServer(backend="kernel", config=SMALL)
        address = await server.start(
            unix_path=str(tmp_path / "svc.sock"))
        try:
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro", "submit", address,
                "ping", env=env, stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.PIPE)
            out, err = await asyncio.wait_for(proc.communicate(), 60)
        finally:
            await server.stop()
        return proc.returncode, out.decode(), err.decode()

    code, out, err = asyncio.run(_run())
    assert code == 0, err
    response = json.loads(out)
    assert response["status"] == "ok"
    assert response["result"] == {"pong": True}
