"""Deadline, cancellation and breaker-probe edge cases.

The edges that kill real services:

* a client vanishing while its batch is mid-flight on a worker — the
  server must absorb the dead socket and keep serving;
* a deadline expiring *inside* the retry loop's backoff — the request
  must fail fast with DeadlineExceededError, not sleep past its
  budget;
* a deadline expiring mid-execution — cooperative cancellation: the
  caller gets its (degraded) answer on time while the worker finishes
  in the background;
* a deadline expiring on the pool executor — the same cooperative
  abandonment: the worker is not killed, because killing it would kill
  sibling jobs too; only a crash rebuild kills the old pool's workers;
* a half-open breaker probe racing newly admitted work — exactly one
  probe executes; everything else answers from the degradation ladder
  without touching the backend.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

import numpy as np

from repro.backends import SimBackend
from repro.backends.base import SensorBackend
from repro.backends.faults import InjectedFaultError
from repro.runtime.resilient import RetryPolicy
from repro.service import FleetConfig, JobServer
from repro.service.client import AsyncServiceClient

ONE_SHARD = FleetConfig(n_dies=8, n_shards=1)


class FailFirstN(SensorBackend):
    """Fails the first ``n`` measure calls (retryably), then heals."""

    id = "fail-first-n"

    def __init__(self, n: int) -> None:
        super().__init__()
        self.inner = SimBackend()
        self.remaining = n
        self.calls = 0

    def configure(self, design, *, rail=None, tech=None) -> None:
        super().configure(design, rail=rail, tech=tech)
        self.inner.configure(design, rail=self.rail, tech=tech)

    def _flake(self) -> None:
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise InjectedFaultError(
                f"flaky: {self.remaining} failures left"
            )

    def measure_batch(self, levels, *, code: int) -> np.ndarray:
        self._flake()
        return self.inner.measure_batch(levels, code=code)

    def s_curve(self, bit, **kwargs):
        self._flake()
        return self.inner.s_curve(bit, **kwargs)


async def _serve(server: JobServer, tmp_path):
    return await server.start(unix_path=str(tmp_path / "svc.sock"))


def _measure(rid: str, level: float = 1.05, *, deadline_s=None,
             chaos=None) -> dict:
    params = {"level": level, "code": 3}
    if chaos:
        params["chaos"] = chaos
    return {"id": rid, "kind": "measure", "params": params,
            "deadline_s": deadline_s}


def test_client_disconnect_mid_flight_leaves_server_healthy(tmp_path):
    """The request's batch keeps running after the client vanishes;
    its terminal response hits a dead socket (counted, not raised)
    and the very next client is served normally."""
    server = JobServer(backend="sim", config=ONE_SHARD)

    async def run():
        address = await _serve(server, tmp_path)
        ghost = await AsyncServiceClient(address).connect()
        await ghost.send("ghost", "measure",
                         params={"level": 1.05, "code": 3,
                                 "chaos": {"sleep_s": 0.3}})
        await asyncio.sleep(0.05)  # the batch is now in flight
        await ghost.close()
        # The in-flight job completes against a dead socket.
        for _ in range(100):
            if server.counters["dropped_connections"]:
                break
            await asyncio.sleep(0.02)
        live = await AsyncServiceClient(address).connect()
        await live.send("live", "ping")
        response = await live.read_response()
        await live.close()
        await server.stop()
        return response

    response = asyncio.run(run())
    assert server.counters["dropped_connections"] == 1
    assert server.counters["responses"] == 2  # both were terminal
    assert response["id"] == "live" and response["status"] == "ok"


def test_deadline_expires_mid_execution_cooperative_cancel(tmp_path):
    """A worker stalled past the deadline: the caller gets a degraded
    answer at the deadline, not after the stall."""
    stall = 1.5
    server = JobServer(backend="sim", config=ONE_SHARD,
                       retry_policy=RetryPolicy(retries=0))

    async def run():
        address = await _serve(server, tmp_path)
        client = await AsyncServiceClient(address).connect()
        started = time.monotonic()
        await client.send("m", "measure",
                          params={"level": 1.05, "code": 3,
                                  "chaos": {"sleep_s": stall}},
                          deadline_s=0.15)
        response = await client.read_response()
        elapsed = time.monotonic() - started
        await client.close()
        await server.stop()
        return response, elapsed

    response, elapsed = asyncio.run(run())
    assert response["status"] == "ok"
    assert response["quality"] == "degraded"
    # Cooperative: answered around the deadline, not after the stall.
    assert elapsed < stall * 0.8
    assert server.counters["deadline"] >= 1


def test_deadline_expiring_inside_retry_backoff(tmp_path):
    """Retries are deadline-aware: when the next backoff sleep would
    overshoot the budget, the request fails *now* with
    DeadlineExceededError instead of sleeping through it."""
    flaky = FailFirstN(10)  # always failing within this test
    server = JobServer(
        backend=lambda: flaky, config=ONE_SHARD,
        # First backoff delay alone exceeds the whole deadline.
        retry_policy=RetryPolicy(retries=3, backoff_base=5.0),
    )

    async def run():
        address = await _serve(server, tmp_path)
        client = await AsyncServiceClient(address).connect()
        started = time.monotonic()
        # s_curve has no degraded fallback: the deadline error is
        # visible as the terminal REJECTED response.
        await client.send("s", "s_curve",
                          params={"bit": 4, "n_per_level": 5,
                                  "code": 3, "seed": 1,
                                  "chaos": {"poison": False}},
                          deadline_s=0.4)
        response = await client.read_response()
        elapsed = time.monotonic() - started
        await client.close()
        await server.stop()
        return response, elapsed

    response, elapsed = asyncio.run(run())
    assert response["status"] == "rejected"
    assert response["error"]["type"] == "DeadlineExceededError"
    assert "backoff" in response["error"]["message"]
    assert elapsed < 2.0  # never slept the 5 s backoff
    assert response["attempts"] == 1


def test_expired_while_queued_falls_back_without_execution(tmp_path):
    """A stalled shard starves the queue; the job behind the stall
    expires while queued and is answered from the degradation ladder
    without ever reaching the backend."""
    flaky = FailFirstN(0)
    server = JobServer(backend=lambda: flaky, config=ONE_SHARD,
                       coalesce=1)

    async def run():
        address = await _serve(server, tmp_path)
        client = await AsyncServiceClient(address).connect()
        await client.send("slow", "measure",
                          params={"level": 1.05, "code": 3,
                                  "chaos": {"sleep_s": 0.4}})
        await client.send("starved", "measure",
                          params={"level": 1.05, "code": 3},
                          deadline_s=0.1)
        responses = {}
        for _ in range(2):
            r = await client.read_response()
            responses[r["id"]] = r
        await client.close()
        await server.stop()
        return responses

    responses = asyncio.run(run())
    assert responses["slow"]["quality"] == "full"
    starved = responses["starved"]
    assert starved["status"] == "ok"
    assert starved["quality"] == "degraded"
    # Only the slow job's batch reached the backend.
    assert flaky.calls == 1


def test_half_open_probe_races_new_admissions(tmp_path):
    """Trip the breaker, wait out the cooldown, then burst requests:
    exactly one executes as the probe (and fails, re-tripping the
    breaker); the rest answer degraded without a backend call."""
    flaky = FailFirstN(2)  # the trip + the failed probe
    server = JobServer(
        backend=lambda: flaky, config=ONE_SHARD, coalesce=1,
        retry_policy=RetryPolicy(retries=0),
        breaker_threshold=1, breaker_cooldown_s=0.2,
    )

    async def run():
        address = await _serve(server, tmp_path)
        client = await AsyncServiceClient(address).connect()
        await client.send("trip", "measure",
                          params={"level": 1.05, "code": 3})
        first = await client.read_response()
        await asyncio.sleep(0.3)  # cooldown elapses: half-open
        for i in range(4):
            await client.send(f"race{i}", "measure",
                              params={"level": 1.05, "code": 3})
        racers = [await client.read_response() for _ in range(4)]
        await client.close()
        await server.stop()
        return first, racers

    first, racers = asyncio.run(run())
    assert first["quality"] == "degraded"  # the trip, retries=0
    assert all(r["status"] == "ok" and r["quality"] == "degraded"
               for r in racers)
    # One call tripped it, exactly one more was the half-open probe.
    assert flaky.calls == 2
    breaker = server.stats()["shards"][0]["breaker"]
    assert breaker["probes"] == 1
    assert breaker["opens"] == 2  # initial trip + failed probe


def test_half_open_probe_success_closes_and_recovers(tmp_path):
    """A healed backend: the probe succeeds, the breaker closes, and
    subsequent requests are served full-quality again."""
    flaky = FailFirstN(1)
    server = JobServer(
        backend=lambda: flaky, config=ONE_SHARD, coalesce=1,
        retry_policy=RetryPolicy(retries=0),
        breaker_threshold=1, breaker_cooldown_s=0.1,
    )

    async def run():
        address = await _serve(server, tmp_path)
        client = await AsyncServiceClient(address).connect()
        await client.send("trip", "measure",
                          params={"level": 1.05, "code": 3})
        await client.read_response()
        await asyncio.sleep(0.2)
        await client.send("probe", "measure",
                          params={"level": 1.05, "code": 3})
        probe = await client.read_response()
        await client.send("after", "measure",
                          params={"level": 1.06, "code": 3})
        after = await client.read_response()
        await client.close()
        await server.stop()
        return probe, after

    probe, after = asyncio.run(run())
    assert probe["quality"] == "full"   # the probe itself succeeded
    assert after["quality"] == "full"   # breaker closed again
    breaker = server.stats()["shards"][0]["breaker"]
    assert breaker["closes"] == 1
    assert breaker["state"] == "closed"


def _new_children(before: set[int]) -> list:
    return [p for p in multiprocessing.active_children()
            if p.pid not in before]


def test_pool_deadline_abandons_the_job_but_keeps_the_pool(tmp_path):
    """``executor="pool"``: a job abandoned at its deadline is answered
    on time, and its worker keeps running — killing it would also kill
    sibling jobs, which the server cannot requeue.  The next job on the
    shard completes in full, and each request gets one response."""
    stall = 1.0
    server = JobServer(backend="kernel", executor="pool", pool_workers=2,
                       config=ONE_SHARD, retry_policy=RetryPolicy(retries=0))
    before = {p.pid for p in multiprocessing.active_children()}

    async def run():
        address = await _serve(server, tmp_path)
        client = await AsyncServiceClient(address).connect()
        await client.send("slow", "measure",
                          params={"level": 1.05, "code": 3,
                                  "chaos": {"sleep_s": stall}},
                          deadline_s=0.15)
        slow = await client.read_response()
        workers = _new_children(before)
        await client.send("next", "measure",
                          params={"level": 1.05, "code": 3})
        after = await client.read_response()
        alive = [p for p in workers if p.is_alive()]
        await client.close()
        await server.stop()
        return slow, after, workers, alive

    slow, after, workers, alive = asyncio.run(run())
    assert slow["quality"] == "degraded"
    assert after["quality"] == "full"
    assert len(workers) == 2 and alive == workers
    assert server.counters["responses"] == 2
    assert server.counters["deadline"] >= 1
    assert server.stats()["shards"][0]["pool_rebuilds"] == 0


def test_crash_rebuild_leaves_no_worker_of_the_old_pool_alive(tmp_path):
    """``rebuild_pool`` kills the old pool's workers, the busy worker of
    an abandoned job included; the next job runs on a fresh pool."""
    server = JobServer(backend="kernel", executor="pool", pool_workers=2,
                       config=ONE_SHARD, retry_policy=RetryPolicy(retries=0))
    before = {p.pid for p in multiprocessing.active_children()}

    async def run():
        address = await _serve(server, tmp_path)
        client = await AsyncServiceClient(address).connect()
        await client.send("stuck", "measure",
                          params={"level": 1.05, "code": 3,
                                  "chaos": {"sleep_s": 60.0}},
                          deadline_s=0.15)
        await client.read_response()
        old = _new_children(before)
        server.shards[0].rebuild_pool()
        for proc in old:
            proc.join(timeout=5)
        await client.send("next", "measure",
                          params={"level": 1.05, "code": 3})
        after = await client.read_response()
        await client.close()
        await server.stop()
        return old, after

    old, after = asyncio.run(run())
    assert len(old) == 2
    assert [p.pid for p in old if p.is_alive()] == []
    assert after["quality"] == "full"
    assert server.stats()["shards"][0]["pool_rebuilds"] == 1
