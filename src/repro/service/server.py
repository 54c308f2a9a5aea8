"""The fault-tolerant asyncio job server (sensing as a service).

Many concurrent clients speak the JSONL protocol
(:mod:`repro.service.protocol`) over TCP or a unix socket; the server
routes their requests through the pluggable backend layer across a
sharded virtual-die fleet.  The robustness surface is the point — the
dataflow for every request is::

    tenant token bucket ──rejected──▶ REJECTED (TenantQuotaError)
        │ admitted
    shard admission queue (drop_oldest | block | error)
        │ queued                       └─▶ REJECTED (AdmissionRejectedError)
    deadline / breaker gate ──▶ ResultCache ──▶ DegradedArray ──▶ REJECTED
        │ execute (inline thread or shard process pool)
    bounded retries + backoff ──crash──▶ pool rebuild, attempt charged
        │ ok                  └─exhausted─▶ cache / degraded / error
    terminal response (quality: full | cached | degraded | rejected)

Guarantees the chaos drill asserts:

* every request receives **exactly one** terminal response (the
  ``Job.responded`` latch), whatever faults fire mid-flight;
* the server never crashes on poison requests, slow backends or
  killed workers — those surface as structured responses and counter
  increments;
* all shed paths are *explicit*: an evicted, over-quota or
  breaker-refused request gets a REJECTED reply naming the
  :class:`~repro.errors.ServiceError` subtype that shed it.

Deadlines are cooperative: the shard loop stops *awaiting* work at the
deadline (``asyncio.wait_for`` cancels the waiter); an inline worker
thread or pool process finishes its kernel batch in the background and
the result is discarded.  Only a crash rebuild kills a shard pool:
killing an abandoned job's worker would kill sibling jobs the server
cannot requeue.  Retry backoff reuses the resilient runtime's
deterministic :class:`~repro.runtime.resilient.RetryPolicy` schedule.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import itertools
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.backends import SensorBackend, resolve_backend
from repro.backends.faults import InjectedFaultError
from repro.core.calibration import paper_design
from repro.core.degraded import DegradedArray
from repro.errors import (
    AdmissionRejectedError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    ServiceError,
    TenantQuotaError,
)
from repro.runtime.cache import ResultCache, design_fingerprint, \
    resolve_cache, stable_hash, task_key
from repro.runtime.pool import WorkerPool
from repro.runtime.resilient import RetryPolicy
from repro.service.admission import AdmissionQueue, TokenBucket
from repro.service.breaker import CircuitBreaker
from repro.service.fleet import Fleet, FleetConfig, execute_job
from repro.service.protocol import (
    Request,
    encode_response,
    make_response,
    parse_request,
)

#: Request kinds that can fall back to a reduced-resolution nominal
#: decode when the full path is unavailable.
DEGRADABLE_KINDS = ("measure", "characterize")

#: Kinds whose results are pure functions of the request (cacheable).
CACHEABLE_KINDS = ("measure", "characterize", "s_curve", "yield",
                   "window")


class _Connection:
    """One client socket: serialized writes, monotonic ids."""

    _ids = itertools.count(1)

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.id = next(self._ids)
        self.writer = writer
        self.lock = asyncio.Lock()
        self.open = True

    async def send(self, obj: dict) -> bool:
        """Write one response line; False when the peer is gone."""
        if not self.open:
            return False
        try:
            async with self.lock:
                self.writer.write(encode_response(obj))
                await self.writer.drain()
            return True
        except (ConnectionError, RuntimeError, OSError):
            self.open = False
            return False


@dataclass
class Job:
    """One admitted request in flight."""

    request: Request
    conn: _Connection
    shard: int
    payload: dict
    cache_key: str | None
    admitted_at: float
    deadline: float | None
    responded: bool = field(default=False)
    attempts: int = 0


class _Shard:
    """One shard: queue + breaker + its execution engine."""

    def __init__(self, index: int, *, queue: AdmissionQueue,
                 breaker: CircuitBreaker,
                 backend: SensorBackend | None,
                 pool_workers: int) -> None:
        self.index = index
        self.queue = queue
        self.breaker = breaker
        self.backend = backend          # inline mode
        self.pool = WorkerPool(pool_workers)  # pool mode; started lazily
        self.task: asyncio.Task | None = None
        self.pool_rebuilds = 0
        self.executed = 0

    def rebuild_pool(self) -> None:
        """After a crash: the next job starts fresh workers."""
        self.pool.kill()
        self.pool_rebuilds += 1


def _retryable(exc: BaseException) -> bool:
    """Transient failures retry; deterministic request bugs do not.

    Injected backend faults and worker crashes are weather; a
    :class:`~repro.errors.ReproError` other than those is the request
    (or driver capability) being wrong — retrying replays the same
    failure, so it surfaces immediately.
    """
    if isinstance(exc, (InjectedFaultError, BrokenProcessPool)):
        return True
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, Exception)


class JobServer:
    """Sensing-as-a-service over a sharded virtual-die fleet.

    Args:
        config: Fleet shape/seed (dies, shards, mismatch sigmas).
        backend: Measurement driver — a registry spec (``"kernel"``,
            ``"sim"``), a ready instance (shared by every shard), or a
            zero-arg factory (one instance per shard; how chaos drills
            install :class:`~repro.backends.FaultInjectingBackend`).
        executor: ``"inline"`` (worker threads; the default) or
            ``"pool"`` (one process pool per shard — survives worker
            SIGKILL via rebuild + retry; requires ``backend`` to be a
            spec string so pool workers can resolve their own driver).
        pool_workers: Processes per shard pool.
        queue_depth / queue_policy: Admission bound per shard and its
            overflow policy (``drop_oldest`` / ``block`` / ``error``).
        tenant_rate / tenant_burst: Token-bucket rate limit per
            tenant, requests/s and burst (``None``: unlimited).
        breaker_threshold / breaker_cooldown_s: Per-shard circuit
            breaker tuning.
        retry_policy: Backoff schedule for transient failures
            (default: 2 retries, 10 ms exponential base).
        cache: :class:`~repro.runtime.cache.ResultCache`, a directory
            path, or ``None`` (no caching, no cached fallbacks).
        default_deadline_s: Deadline applied to requests that name
            none (``None``: no implicit deadline).
        degrade_margin_s: When the remaining budget at execution time
            is below this, skip the full path and answer from
            cache/degraded immediately ("deadline is near").
        coalesce: Max compatible ``measure`` requests batched into a
            single backend call (1 disables coalescing).
    """

    def __init__(self, *, config: FleetConfig | None = None,
                 backend: "SensorBackend | str | Callable[[], SensorBackend]" = "kernel",
                 executor: str = "inline",
                 pool_workers: int = 2,
                 queue_depth: int = 32,
                 queue_policy: str = "block",
                 tenant_rate: float | None = None,
                 tenant_burst: float | None = None,
                 breaker_threshold: int = 5,
                 breaker_cooldown_s: float = 0.5,
                 retry_policy: RetryPolicy | None = None,
                 cache: "ResultCache | str | None" = None,
                 default_deadline_s: float | None = None,
                 degrade_margin_s: float = 0.0,
                 coalesce: int = 8,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if executor not in ("inline", "pool"):
            raise ConfigurationError(
                f"executor must be 'inline' or 'pool', got {executor!r}"
            )
        if executor == "pool" and not isinstance(backend, str):
            raise ConfigurationError(
                "executor='pool' needs a backend spec string (pool "
                "workers resolve their own driver instance)"
            )
        if coalesce < 1:
            raise ConfigurationError("coalesce must be at least 1")
        if (tenant_rate is None) != (tenant_burst is None) \
                and tenant_burst is None:
            tenant_burst = tenant_rate
        self.config = config or FleetConfig()
        self.fleet = Fleet(self.config)
        self.executor = executor
        self.backend_arg = backend
        self.retry_policy = retry_policy or RetryPolicy(
            retries=2, backoff_base=0.01
        )
        self.cache = resolve_cache(cache)
        self.default_deadline_s = default_deadline_s
        self.degrade_margin_s = float(degrade_margin_s)
        self.coalesce = int(coalesce)
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self._clock = clock
        self._design = paper_design()
        self._buckets: dict[str, TokenBucket] = {}
        self._rr = itertools.count()
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._running = False
        self.shards = [
            _Shard(
                i,
                queue=AdmissionQueue(queue_depth, policy=queue_policy),
                breaker=CircuitBreaker(breaker_threshold,
                                       breaker_cooldown_s,
                                       clock=clock),
                backend=(None if executor == "pool"
                         else self._make_backend(backend)),
                pool_workers=pool_workers,
            )
            for i in range(self.config.n_shards)
        ]
        ref = self.shards[0].backend if executor == "inline" \
            else resolve_backend(backend)
        self._fingerprint = stable_hash((
            design_fingerprint(self._design, backend=ref),
            self.config,
        ))
        # Terminal-response bookkeeping (the chaos-drill invariants).
        self.counters: dict[str, int] = {
            "requests": 0, "responses": 0, "dropped_connections": 0,
            "protocol_errors": 0,
            "full": 0, "cached": 0, "degraded": 0, "rejected": 0,
            "errors": 0, "retries": 0, "crashes": 0, "deadline": 0,
        }

    def _make_backend(self, backend) -> SensorBackend:
        if callable(backend) and not isinstance(backend, SensorBackend):
            bk = backend()
        else:
            bk = resolve_backend(backend)
        bk.configure(self._design)
        return bk

    # -- degraded fallback -------------------------------------------------

    @functools.cached_property
    def _degraded_array(self) -> DegradedArray:
        """Nominal reduced-resolution array: every even stage masked.

        Half the rungs answer — twice the uncertainty, a fraction of
        the work, and no dependence on the (possibly broken) backend.
        """
        masked = tuple(range(2, self._design.n_bits + 1, 2))
        return DegradedArray(self._design, masked_bits=masked)

    def _degrade(self, job: Job) -> dict | None:
        """Reduced-resolution nominal answer, or None if not degradable."""
        if job.request.kind not in DEGRADABLE_KINDS:
            return None
        arr = self._degraded_array
        params = job.payload.get("params", {})
        code = int(params.get("code", 3))
        if job.request.kind == "measure":
            levels = params.get("levels")
            if levels is None:
                levels = [params.get("level")]
            measures = []
            for level in [float(v) for v in levels]:
                d = arr.measure(code, vdd_n=level)
                measures.append({"word": d.word, "lo": d.decoded.lo,
                                 "hi": d.decoded.hi})
            return {
                "code": code, "levels": [float(v) for v in levels],
                "measures": measures,
                "resolution": arr.n_bits,
                "full_resolution": self._design.n_bits,
            }
        # characterize: the surviving rungs of the nominal ladder.
        return {
            "die": params.get("die"),
            "code": code,
            "thresholds": list(arr.supply_thresholds(code)),
            "bits": list(arr.surviving_bits),
            "resolution": arr.n_bits,
            "full_resolution": self._design.n_bits,
            "per_die": False,
        }

    # -- terminal responses ------------------------------------------------

    async def _respond(self, job: Job, *, status: str,
                       quality: str | None = None,
                       result: dict | None = None,
                       error: BaseException | None = None) -> None:
        """The single exit: every job passes here exactly once."""
        if job.responded:
            return
        job.responded = True
        now = self._clock()
        obj = make_response(
            job.request.id, status=status, quality=quality,
            result=result, error=error, shard=job.shard,
            attempts=job.attempts or None,
            queued_ms=(now - job.admitted_at) * 1e3,
            service_ms=0.0,
        )
        self.counters["responses"] += 1
        if quality in ("full", "cached", "degraded", "rejected"):
            self.counters[quality] += 1
        if status == "error":
            self.counters["errors"] += 1
        if not await job.conn.send(obj):
            self.counters["dropped_connections"] += 1

    async def _reject(self, job: Job, error: ServiceError) -> None:
        await self._respond(job, status="rejected", quality="rejected",
                            error=error)

    async def _fallback(self, job: Job,
                        error: BaseException) -> None:
        """Cache → degraded → the error itself, in that order."""
        if self.cache is not None and job.cache_key is not None:
            hit, value = self.cache.get(job.cache_key)
            if hit:
                await self._respond(job, status="ok", quality="cached",
                                    result=value)
                return
        degraded = await asyncio.to_thread(self._degrade, job)
        if degraded is not None:
            await self._respond(job, status="ok", quality="degraded",
                                result=degraded)
            return
        if isinstance(error, ServiceError):
            await self._reject(job, error)
        else:
            await self._respond(job, status="error", error=error)

    # -- admission ---------------------------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket | None:
        if self.tenant_rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.tenant_rate,
                                 self.tenant_burst or self.tenant_rate,
                                 clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket

    def _route(self, request: Request) -> int:
        die = request.params.get("die")
        if die is not None:
            return self.fleet.shard_of(int(die))
        return next(self._rr) % self.config.n_shards

    def _job_for(self, request: Request, conn: _Connection) -> Job:
        shard = self._route(request)
        payload: dict[str, Any] = {
            "kind": request.kind,
            "params": dict(request.params),
            "fleet": dataclasses.asdict(self.config),
        }
        if self.executor == "pool":
            payload["backend"] = self.backend_arg
        chaos = payload["params"].pop("chaos", None)
        if chaos:
            payload["chaos"] = chaos
        cache_key = None
        if request.kind in CACHEABLE_KINDS and chaos is None:
            cache_key = task_key(
                "service", request.tenant, request.kind,
                payload["params"], self._fingerprint,
            )
        deadline_s = request.deadline_s or self.default_deadline_s
        now = self._clock()
        return Job(
            request=request, conn=conn, shard=shard, payload=payload,
            cache_key=cache_key, admitted_at=now,
            deadline=(now + deadline_s) if deadline_s else None,
        )

    async def _admit(self, request: Request, conn: _Connection) -> None:
        self.counters["requests"] += 1
        if request.kind == "ping":
            job = Job(request=request, conn=conn, shard=-1, payload={},
                      cache_key=None, admitted_at=self._clock(),
                      deadline=None)
            await self._respond(job, status="ok", quality="full",
                                result={"pong": True})
            return
        bucket = self._bucket(request.tenant)
        if bucket is not None and not bucket.try_take():
            job = Job(request=request, conn=conn, shard=-1, payload={},
                      cache_key=None, admitted_at=self._clock(),
                      deadline=None)
            await self._reject(job, TenantQuotaError(
                f"tenant {request.tenant!r} over its "
                f"{self.tenant_rate:g}/s rate (burst "
                f"{self.tenant_burst or self.tenant_rate:g})"
            ))
            return
        try:
            job = self._job_for(request, conn)
        except ReproError as exc:
            stub = Job(request=request, conn=conn, shard=-1, payload={},
                       cache_key=None, admitted_at=self._clock(),
                       deadline=None)
            await self._respond(stub, status="error", error=exc)
            return
        shard = self.shards[job.shard]
        try:
            evicted = await shard.queue.put(job)
        except AdmissionRejectedError as exc:
            await self._reject(job, exc)
            return
        if evicted is not None:
            await self._reject(evicted, AdmissionRejectedError(
                f"shed from shard {job.shard}: queue full "
                f"(drop_oldest admitted a fresher request)"
            ))

    # -- execution ---------------------------------------------------------

    def _remaining(self, deadline: float | None) -> float | None:
        if deadline is None:
            return None
        return deadline - self._clock()

    async def _run_once(self, shard: _Shard, payload: dict,
                        timeout: float | None) -> dict:
        shard.executed += 1
        if self.executor == "inline":
            return await asyncio.wait_for(
                asyncio.to_thread(execute_job, payload, shard.backend),
                timeout=timeout)
        fut = shard.pool.submit(execute_job, payload)
        await asyncio.wait_for(asyncio.wrap_future(fut), timeout=timeout)
        return shard.pool.result(fut)

    async def _execute(self, shard: _Shard, jobs: list[Job],
                       payload: dict, deadline: float | None) -> dict:
        """Retry loop: transient failures back off on the resilient
        runtime's deterministic schedule, bounded by the deadline.

        Raises the final failure (DeadlineExceededError, the last
        transient error, or a deterministic request error).
        """
        attempt = 0
        while True:
            attempt += 1
            for job in jobs:
                job.attempts = attempt
            remaining = self._remaining(deadline)
            if remaining is not None and remaining <= 0:
                raise DeadlineExceededError(
                    f"deadline passed before attempt {attempt} could "
                    f"start (shard {shard.index})"
                )
            try:
                return await self._run_once(shard, payload, remaining)
            except (asyncio.TimeoutError, TimeoutError):
                self.counters["deadline"] += 1
                raise DeadlineExceededError(
                    f"deadline expired mid-execution on shard "
                    f"{shard.index} (attempt {attempt}; worker "
                    f"abandoned cooperatively)"
                ) from None
            except BrokenProcessPool as exc:
                self.counters["crashes"] += 1
                shard.rebuild_pool()
                last: BaseException = exc
            except Exception as exc:
                if not _retryable(exc):
                    raise
                last = exc
            if attempt > self.retry_policy.retries:
                raise last
            delay = self.retry_policy.delay(shard.index, attempt)
            remaining = self._remaining(deadline)
            if remaining is not None and delay >= remaining:
                self.counters["deadline"] += 1
                raise DeadlineExceededError(
                    f"deadline would expire during the {delay * 1e3:.0f}"
                    f" ms backoff after attempt {attempt} "
                    f"(shard {shard.index})"
                ) from last
            self.counters["retries"] += 1
            await asyncio.sleep(delay)

    @staticmethod
    def _split_batch(jobs: list[Job], result: dict) -> list[dict]:
        """Distribute a coalesced measure result back to its jobs."""
        if len(jobs) == 1:
            return [result]
        out = []
        cursor = 0
        for job in jobs:
            n = len(job.payload["params"].get("levels") or [1])
            out.append({
                "code": result["code"],
                "levels": result["levels"][cursor:cursor + n],
                "measures": result["measures"][cursor:cursor + n],
                "coalesced": len(jobs),
            })
            cursor += n
        return out

    async def _serve_batch(self, shard: _Shard,
                           jobs: list[Job]) -> None:
        # Queue-expired jobs fall back before any work is spent.
        live: list[Job] = []
        for job in jobs:
            remaining = self._remaining(job.deadline)
            if remaining is not None \
                    and remaining <= self.degrade_margin_s:
                self.counters["deadline"] += 1
                await self._fallback(job, DeadlineExceededError(
                    f"deadline {'passed' if remaining <= 0 else 'near'}"
                    f" while queued on shard {shard.index}"
                ))
            else:
                live.append(job)
        if not live:
            return

        # Warm cache hits never consume breaker probes or backend work.
        pending: list[Job] = []
        for job in live:
            if self.cache is not None and job.cache_key is not None:
                hit, value = self.cache.get(job.cache_key)
                if hit:
                    await self._respond(job, status="ok",
                                        quality="cached", result=value)
                    continue
            pending.append(job)
        if not pending:
            return

        if not shard.breaker.allow():
            for job in pending:
                await self._fallback(job, CircuitOpenError(
                    f"shard {shard.index} circuit is "
                    f"{shard.breaker.state.value} "
                    f"(after {shard.breaker.opens} open(s))"
                ))
            return

        payload = pending[0].payload
        if len(pending) > 1:
            payload = dict(payload)
            payload["params"] = dict(payload["params"])
            merged: list[float] = []
            for job in pending:
                p = job.payload["params"]
                merged.extend(p.get("levels")
                              or [float(p.get("level"))])
            payload["params"]["levels"] = merged
            payload["params"].pop("level", None)
        deadlines = [j.deadline for j in pending
                     if j.deadline is not None]
        deadline = min(deadlines) if deadlines else None

        try:
            result = await self._execute(shard, pending, payload,
                                         deadline)
        except Exception as exc:
            # Infrastructure failures (injected faults, crashes,
            # deadlines) charge the breaker and earn the degradation
            # ladder; deterministic request errors (poison, bad
            # params, capability misses) mean the shard itself is
            # healthy — resolve any probe as a success and answer
            # with the error itself.
            transient = _retryable(exc) \
                or isinstance(exc, DeadlineExceededError)
            if transient:
                shard.breaker.record_failure()
            else:
                shard.breaker.record_success()
            for job in pending:
                if transient:
                    await self._fallback(job, exc)
                else:
                    await self._respond(job, status="error", error=exc)
            return
        shard.breaker.record_success()
        for job, body in zip(pending,
                             self._split_batch(pending, result)):
            if self.cache is not None and job.cache_key is not None:
                self.cache.put(job.cache_key, body)
            await self._respond(job, status="ok", quality="full",
                                result=body)

    def _coalescable(self, job: Job) -> bool:
        params = job.payload.get("params", {})
        return (job.request.kind == "measure"
                and "chaos" not in job.payload
                and (params.get("levels") or params.get("level"))
                is not None)

    async def _shard_loop(self, shard: _Shard) -> None:
        while True:
            job = await shard.queue.get()
            batch = [job]
            if self.coalesce > 1 and self._coalescable(job):
                code = job.payload["params"].get("code", 3)
                batch += shard.queue.drain_nowait(
                    self.coalesce - 1,
                    want=lambda j: (
                        self._coalescable(j)
                        and j.payload["params"].get("code", 3) == code
                    ),
                )
            try:
                await self._serve_batch(shard, batch)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # pragma: no cover - last resort
                for job in batch:
                    await self._respond(job, status="error", error=exc)

    # -- connections -------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode().strip()
                if not text:
                    continue
                try:
                    request = parse_request(text)
                except ProtocolError as exc:
                    self.counters["protocol_errors"] += 1
                    await conn.send(make_response(
                        None, status="error", error=exc,
                    ))
                    continue
                await self._admit(request, conn)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown while waiting for the next line: a normal end
            # of this connection, not an error to surface.
            pass
        finally:
            conn.open = False
            self._connections.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- lifecycle ---------------------------------------------------------

    async def start(self, *, unix_path: str | None = None,
                    host: str = "127.0.0.1",
                    port: int = 0) -> str:
        """Bind and start serving; returns the bound address
        (``unix:<path>`` or ``host:port``)."""
        if self._running:
            raise ConfigurationError("server already started")
        if unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle, path=unix_path)
            address = f"unix:{unix_path}"
        else:
            self._server = await asyncio.start_server(
                self._handle, host=host, port=port)
            bound = self._server.sockets[0].getsockname()
            address = f"{bound[0]}:{bound[1]}"
        for shard in self.shards:
            shard.task = asyncio.create_task(self._shard_loop(shard))
        self._running = True
        return address

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, answer queued jobs with
        explicit REJECTED replies, tear down pools."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in list(self._connections):
            conn.open = False
            try:
                conn.writer.close()
            except (ConnectionError, OSError):
                pass
        for shard in self.shards:
            if shard.task is not None:
                shard.task.cancel()
        for shard in self.shards:
            if shard.task is not None:
                try:
                    await shard.task
                except (asyncio.CancelledError, Exception):
                    pass
                shard.task = None
            while len(shard.queue):
                job = await shard.queue.get()
                await self._reject(job, AdmissionRejectedError(
                    "server shutting down"
                ))
            shard.pool.join()
        if self.cache is not None:
            # Persist this process's hit/miss deltas to the cache
            # root's cross-process stats log before exit, so a
            # post-mortem reader (``repro cache``, a campaign
            # manifest's service drill) sees the server's lifetime
            # counters even though the server process is gone.
            self.cache.flush_stats()
        self._running = False

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ConfigurationError("start() the server first")
        await self._server.serve_forever()

    def stats(self) -> dict:
        """Observable state: the service-layer counters registry."""
        return {
            "config": dataclasses.asdict(self.config),
            "executor": self.executor,
            "counters": dict(self.counters),
            "shards": [
                {
                    "index": s.index,
                    "queue": s.queue.counters(),
                    "breaker": s.breaker.counters(),
                    "executed": s.executed,
                    "pool_rebuilds": s.pool_rebuilds,
                }
                for s in self.shards
            ],
            "tenants": {
                name: {"granted": b.granted, "refused": b.refused}
                for name, b in sorted(self._buckets.items())
            },
            "cache": (self.cache.stats() if self.cache is not None
                      else None),
        }
