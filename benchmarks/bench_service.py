"""Service-layer throughput: the tracked BENCH_service.json.

The job server (:mod:`repro.service`) promises exactly-one terminal
response per request under load; this bench enforces that ordering —
correctness gates first, timing second:

* every clean load must come back ``ok`` at ``full`` quality with
  zero problems (duplicates, missing ids, early closes);
* the chaos load (seeded injected faults, stalls, poison requests,
  a shedding drop-oldest queue) must still answer every request.

Only then is throughput measured: sustained requests/s through a
kernel-backed and a sim-backed server over the same measurement-heavy
load (the ratio is the service-level speedup the backend seam buys),
p50/p99 end-to-end latency, and the shed/degraded/error fractions of
the chaos scenario.

Run standalone (``python -m benchmarks.bench_service`` or
``repro bench service``) with ``--smoke`` for the CI-sized load and
``--assert-speedup N`` to enforce a kernel-over-sim floor; the JSON
lands in ``benchmarks/reports/BENCH_service.json`` and, with
``--out``, at a tracked path (the repo commits ``BENCH_service.json``
at the root).
"""

from __future__ import annotations

import argparse
import asyncio
import tempfile
from pathlib import Path
from typing import Any

from benchmarks._perf import time_workload, write_bench_json
from benchmarks._report import emit, fmt_rows

CODE = 3
N_CLIENTS = 4


def _clean_requests(n: int, levels_per: int, config) -> list[dict]:
    """Measurement-heavy load: each request decodes a ladder of
    ``levels_per`` supply levels, so backend time dominates and the
    kernel/sim ratio reflects the drivers, not socket overhead."""
    requests = []
    for i in range(n):
        base = 0.90 + 0.02 * (i % 5)
        levels = [round(base + 0.30 * j / levels_per, 6)
                  for j in range(levels_per)]
        requests.append({"id": f"m{i}", "kind": "measure",
                         "params": {"levels": levels, "code": CODE}})
    return requests


def _drive(server_kwargs: dict, requests: list[dict], *,
           n_clients: int = N_CLIENTS, depth: int = 2):
    """One full service lifecycle: start, push the load, stop."""
    from repro.service import JobServer, run_load

    server = JobServer(**server_kwargs)
    with tempfile.TemporaryDirectory() as tmp:

        async def _run():
            address = await server.start(
                unix_path=str(Path(tmp) / "bench.sock"))
            try:
                return await run_load(address, requests,
                                      n_clients=n_clients,
                                      depth=depth, timeout_s=600.0)
            finally:
                await server.stop()

        report = asyncio.run(_run())
    assert report.problems() == [], report.problems()
    return report


def _chaos_scenario(config, *, smoke: bool) -> dict[str, Any]:
    """Seeded faults, stalls, poison and a shedding queue: the payload
    is the quality mix, not the wall clock."""
    from repro.backends import FaultInjectingBackend, KernelBackend
    from repro.runtime.resilient import RetryPolicy
    from repro.service import build_load

    n = 24 if smoke else 96
    # Burst depth ~2x the aggregate queue capacity: sustained
    # overload with enough admitted work to exercise the ladder.
    depth = 12 if smoke else 8
    requests = build_load(2009, n, config=config, mix=("measure",),
                          slow_rate=0.2, slow_s=0.002,
                          poison_rate=0.1)
    report = _drive(
        {
            "backend": lambda: FaultInjectingBackend(
                KernelBackend(), monkey=2009, error_rate=0.3),
            "config": config,
            # No retries: every injected fault exercises the
            # degradation ladder instead of being absorbed.
            "retry_policy": RetryPolicy(retries=0, backoff_base=0.001),
            "queue_depth": 6,
            "queue_policy": "drop_oldest",
            "coalesce": 1,
        },
        requests, n_clients=2, depth=depth,  # burst forces shedding
    )
    by_quality = dict(report.by_quality)
    by_status = dict(report.by_status)
    return {
        "n_requests": n,
        "by_quality": by_quality,
        "by_status": by_status,
        "shed_fraction": by_quality.get("rejected", 0) / n,
        "degraded_fraction": by_quality.get("degraded", 0) / n,
        "error_fraction": by_status.get("error", 0) / n,
        "availability": report.availability,
        "throughput_rps": report.throughput_rps,
    }


def run(*, smoke: bool = False, repeats: int = 3,
        out: str | None = None) -> dict[str, Any]:
    """Gate exactly-once delivery, then time sustained req/s."""
    from repro.service import FleetConfig

    config = FleetConfig(n_dies=16, n_shards=2)
    n = 8 if smoke else 32
    levels_per = 8 if smoke else 16
    requests = _clean_requests(n, levels_per, config)

    last: dict[str, Any] = {}

    def _pass(backend: str):
        report = _drive({"backend": backend, "config": config},
                        requests)
        assert set(report.by_quality) == {"full"}, report.by_quality
        last[backend] = report

    kernel_timing = time_workload(lambda: _pass("kernel"),
                                  repeats=repeats, points=n)
    sim_timing = time_workload(lambda: _pass("sim"),
                               repeats=repeats, points=n)
    chaos = _chaos_scenario(config, smoke=smoke)

    kernel_report = last["kernel"]
    speedup = (kernel_timing["points_per_s"]
               / sim_timing["points_per_s"])
    payload: dict[str, Any] = {
        "bench": "service",
        "mode": "smoke" if smoke else "full",
        "load": {
            "n_requests": n,
            "levels_per_request": levels_per,
            "code": CODE,
            "n_clients": N_CLIENTS,
            "n_shards": config.n_shards,
        },
        "kernel": {
            **kernel_timing,
            "latency_p50_ms": kernel_report.latency_quantile(0.5) * 1e3,
            "latency_p99_ms": kernel_report.latency_quantile(0.99) * 1e3,
        },
        "sim": sim_timing,
        "chaos": chaos,
        "kernel_over_sim_speedup": speedup,
    }
    write_bench_json("BENCH_service", payload, out=out)

    rows = [
        ["kernel", f"{kernel_timing['best_s'] * 1e3:.2f}",
         f"{kernel_timing['points_per_s']:.3g}"],
        ["sim", f"{sim_timing['best_s'] * 1e3:.2f}",
         f"{sim_timing['points_per_s']:.3g}"],
    ]
    emit("service_perf", fmt_rows(
        ["backend", "best ms", "req/s"], rows,
    ))
    print(f"service kernel-over-sim speedup: {speedup:.1f}x; chaos "
          f"shed {chaos['shed_fraction']:.0%}, degraded "
          f"{chaos['degraded_fraction']:.0%}, availability "
          f"{chaos['availability']:.0%}")
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="sensing-service throughput bench"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized load")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the kernel-backed server "
                             "beats the sim-backed one by X times")
    parser.add_argument("--out", default=None,
                        help="extra path to mirror BENCH_service.json "
                             "to (e.g. the tracked repo-root copy)")
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke, repeats=args.repeats, out=args.out)
    if args.assert_speedup is not None:
        speedup = payload["kernel_over_sim_speedup"]
        if speedup < args.assert_speedup:
            print(f"FAIL: kernel-backed server only {speedup:.2f}x "
                  f"over sim, floor {args.assert_speedup:g}x")
            return 1
    return 0


# -- pytest wrapper (runs with `pytest benchmarks`) -----------------------


def test_service_perf_bench(benchmark):
    payload = benchmark.pedantic(
        lambda: run(smoke=True, repeats=1), rounds=1, iterations=1,
    )
    # Every chaos request was answered exactly once (gated in _drive);
    # the overload must also have exercised the degradation ladder:
    # some requests served in full, some shed by the queue.
    quality = payload["chaos"]["by_quality"]
    assert quality.get("full", 0) >= 1, quality
    assert quality.get("rejected", 0) >= 1, quality
    assert payload["kernel"]["latency_p99_ms"] > 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    import sys

    sys.exit(main())
