"""Campaign-scheduler perf regression: the tracked BENCH_campaign.json.

Three DAG shapes through :func:`~repro.campaign.run_campaign`, gated
on bit-identity *before* any timing claim; each workload names what
bounds it:

* ``wide_dag`` (``"bound": "latency"``) — eight mutually independent
  ``synthetic`` stages, each emulating an instrument dwell by
  sleeping, plus one join stage needing all eight.  Serial pays the
  dwells end to end; the ready-set scheduler overlaps them across its
  stage processes, so the expected speedup on 4 workers is ~wave
  count: ``8 dwells / ceil(8/4) waves`` ≈ 3-4x — on any host,
  because the stages sleep rather than compute.  Gate:
  :func:`~repro.campaign.diff_campaign` between the serial and
  parallel trees at ``float_tol=0`` reports zero divergences.
* ``chain_dag`` (``"bound": "latency"``) — six sleeping stages in a
  straight dependency chain: zero exploitable parallelism, so the
  scheduler starts one stage process, not ``STAGE_WORKERS``, and
  ``parallel - serial`` wall-clock is its pure overhead (one
  stage-process start, pickling, ready-set scans).  Same gate.
* ``cpu_bound`` (``"bound": "cpu"``) — the nine kernel-backend stages
  of ``e2ebench/campaign_cpu.toml`` (telemetry stream, threshold
  sweeps, ladder, cap sweep, lot, s-curves, fault screen), read as
  committed.  The stages compute, so the parallel speed-up is bounded
  by the host's CPUs; the report records ``cpu_count`` next to it and
  the number holds only for that count.  Same gate.

Every timed call runs cold — fresh out dir and cache root per
invocation — so resume hits can never flatter either side.

Run standalone (``python -m benchmarks.bench_campaign`` or ``repro
bench campaign``) with ``--smoke`` for CI-sized dwells and
``--assert-speedup N`` to enforce a wide-DAG floor; the JSON lands in
``benchmarks/reports/BENCH_campaign.json`` and, with ``--out``, at a
tracked repo-root copy.
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import tomllib
from pathlib import Path
from typing import Any

from benchmarks._perf import time_workload, write_bench_json
from benchmarks._report import emit, fmt_rows
from repro.campaign import (
    CAMPAIGN_SCHEMA,
    diff_campaign,
    run_campaign,
    spec_from_mapping,
)

#: Stage-worker pool width the parallel legs of the sleeping DAGs run
#: with (the acceptance criterion's "4 workers").
STAGE_WORKERS = 4

#: The CPU-bound twin: nine kernel-backend stages on two stage workers.
CPU_SPEC = Path(__file__).resolve().parents[1] / "e2ebench" \
    / "campaign_cpu.toml"


def _wide_spec(n_stages: int, dwell_ms: float, join_dwell_ms: float):
    """``n_stages`` independent dwell stages + one join needing all."""
    stages: list[dict[str, Any]] = [
        {
            "id": f"corner{i}",
            "kind": "synthetic",
            "params": {"value": 1.0 + 0.25 * i, "dwell_ms": dwell_ms},
            "checks": [
                {"kind": "equals", "field": "stage",
                 "value": f"corner{i}"},
                {"kind": "bounds", "field": "scaled", "min": 0.0},
            ],
        }
        for i in range(n_stages)
    ]
    stages.append({
        "id": "join",
        "kind": "synthetic",
        "needs": [s["id"] for s in stages],
        "params": {"value": 99.0, "dwell_ms": join_dwell_ms},
        "checks": [{"kind": "equals", "field": "value",
                    "value": 99.0}],
    })
    return spec_from_mapping({
        "schema": CAMPAIGN_SCHEMA,
        "name": "bench-wide-dag",
        "description": f"{n_stages} independent dwell stages + join",
        "seed": 2009,
        "backend": {"spec": "kernel"},
        "runtime": {"stage_workers": STAGE_WORKERS},
        "stages": stages,
    }, source="<bench>")


def _chain_spec(n_stages: int, dwell_ms: float):
    """A straight chain: no parallelism for the scheduler to find."""
    stages = [
        {
            "id": f"link{i}",
            "kind": "synthetic",
            "needs": [f"link{i - 1}"] if i else [],
            "params": {"value": float(i), "dwell_ms": dwell_ms},
        }
        for i in range(n_stages)
    ]
    return spec_from_mapping({
        "schema": CAMPAIGN_SCHEMA,
        "name": "bench-chain-dag",
        "description": f"{n_stages}-stage chain (overhead probe)",
        "seed": 2009,
        "backend": {"spec": "kernel"},
        "runtime": {"stage_workers": STAGE_WORKERS},
        "stages": stages,
    }, source="<bench>")


def _cpu_spec():
    """``e2ebench/campaign_cpu.toml`` as committed."""
    return spec_from_mapping(tomllib.loads(CPU_SPEC.read_text()),
                             source=str(CPU_SPEC))


def _run_cold(spec, execution: str, out_dir: Path | None = None) -> None:
    """One cold campaign run: fresh out dir + cache, no resume hits.

    ``out_dir`` given: keep the tree (for the bit-identity gate);
    omitted: run in scratch and delete it (the timed form).
    """
    scratch = None
    if out_dir is None:
        scratch = Path(tempfile.mkdtemp(prefix="bench-campaign-"))
        out_dir = scratch / "out"
    try:
        run = run_campaign(spec, out_dir=out_dir,
                           execution=execution)
        assert run.ok, f"{spec.name} {execution}: {run.outcome}"
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _parity_gate(spec, work: Path) -> int:
    """Serial vs parallel at float_tol=0; returns stages compared."""
    _run_cold(spec, "serial", work / "serial")
    _run_cold(spec, "parallel", work / "parallel")
    report = diff_campaign(work / "parallel", work / "serial",
                           float_tol=0.0)
    assert report.ok, [str(d) for d in report.divergences]
    return len(report.compared_stages)


def run(*, smoke: bool = False, repeats: int = 2,
        out: str | None = None) -> dict[str, Any]:
    """Gate bit-identity, then time serial vs parallel; persist."""
    n_wide = 8
    n_chain = 6
    dwell_ms = 150.0 if smoke else 400.0
    join_ms = 30.0 if smoke else 60.0
    chain_ms = 25.0 if smoke else 50.0

    wide = _wide_spec(n_wide, dwell_ms, join_ms)
    chain = _chain_spec(n_chain, chain_ms)
    cpu = _cpu_spec()

    gate_dir = Path(tempfile.mkdtemp(prefix="bench-campaign-gate-"))
    try:
        wide_compared = _parity_gate(wide, gate_dir / "wide")
        chain_compared = _parity_gate(chain, gate_dir / "chain")
        cpu_compared = _parity_gate(cpu, gate_dir / "cpu")
    finally:
        shutil.rmtree(gate_dir, ignore_errors=True)

    def both(spec) -> dict[str, Any]:
        return {mode: time_workload(lambda m=mode: _run_cold(spec, m),
                                    repeats=repeats, warmup=0)
                for mode in ("serial", "parallel")}

    workloads: dict[str, Any] = {
        "wide_dag": {
            **both(wide),
            "bound": "latency",
            "grid": {"independent_stages": n_wide, "join_stages": 1,
                     "dwell_ms": dwell_ms,
                     "stage_workers": STAGE_WORKERS},
            "stages_compared": wide_compared,
        },
        "chain_dag": {
            **both(chain),
            "bound": "latency",
            "grid": {"chain_stages": n_chain, "dwell_ms": chain_ms,
                     "stage_workers": STAGE_WORKERS},
            "stages_compared": chain_compared,
        },
        "cpu_bound": {
            **both(cpu),
            "bound": "cpu",
            "cpu_count": os.cpu_count(),
            "grid": {"spec": "e2ebench/campaign_cpu.toml",
                     "stages": len(cpu.stages),
                     "stage_workers": cpu.stage_workers},
            "stages_compared": cpu_compared,
        },
    }
    for w in workloads.values():
        w["speedup"] = w["serial"]["best_s"] / w["parallel"]["best_s"]
    workloads["chain_dag"]["scheduler_overhead_s"] = (
        workloads["chain_dag"]["parallel"]["best_s"]
        - workloads["chain_dag"]["serial"]["best_s"]
    )

    payload: dict[str, Any] = {
        "bench": "campaign",
        "mode": "smoke" if smoke else "full",
        "stage_workers": STAGE_WORKERS,
        "workloads": workloads,
        "parity": {
            "float_tol": 0.0,
            "wide_stages_compared": wide_compared,
            "chain_stages_compared": chain_compared,
            "cpu_stages_compared": cpu_compared,
            "divergences": 0,
        },
    }
    write_bench_json("BENCH_campaign", payload, out=out)

    rows = [
        [name, w["bound"],
         f"{w['serial']['best_s'] * 1e3:.0f}",
         f"{w['parallel']['best_s'] * 1e3:.0f}",
         f"{w['speedup']:.2f}x"]
        for name, w in workloads.items()
    ]
    emit("campaign_perf", fmt_rows(
        ["workload", "bound", "serial ms", "parallel ms", "speedup"],
        rows,
    ) + (
        f"\nchain overhead: "
        f"{workloads['chain_dag']['scheduler_overhead_s'] * 1e3:+.0f}ms "
        f"(parallel minus serial on a no-parallelism DAG)"
        f"\ncpu_bound speedup holds for cpu_count="
        f"{workloads['cpu_bound']['cpu_count']} only"
        "\ngate: serial-vs-parallel diff_campaign at float_tol=0, "
        "zero divergences"
    ))
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="campaign scheduler: serial vs parallel DAG wall-clock"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized dwells (fast)")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the wide DAG beats X times "
                             "the serial runner")
    parser.add_argument("--out", default=None,
                        help="extra path to mirror BENCH_campaign.json "
                             "to (e.g. the tracked repo-root copy)")
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke, repeats=args.repeats, out=args.out)
    if args.assert_speedup is not None:
        speedup = payload["workloads"]["wide_dag"]["speedup"]
        if speedup < args.assert_speedup:
            print(f"FAIL: wide-DAG speedup {speedup:.2f}x below the "
                  f"{args.assert_speedup}x floor")
            return 1
    return 0


# -- pytest wrapper (runs with `pytest benchmarks`) -----------------------


def test_campaign_bench(benchmark):
    payload = benchmark.pedantic(
        lambda: run(smoke=True, repeats=1), rounds=1, iterations=1,
    )
    assert payload["workloads"]["wide_dag"]["speedup"] > 1.5
    assert payload["parity"]["divergences"] == 0


if __name__ == "__main__":
    raise SystemExit(main())
