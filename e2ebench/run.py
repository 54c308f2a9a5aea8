"""End-to-end benchmark of the reproduction.

    python3 e2ebench/run.py --workload paper [--seed 2009] [--seconds 10]
                            [--trace 0|1]

Runs one workload in this fresh interpreter, checks that its outputs
are correct, and prints every metric by name and unit as a table,
then (last line) one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end``
ones, their times scaled to the reference host by the run's
host-speed probes (``common.HostSpeed``); the wall times are in the
document.  With ``--trace 1`` the run is split into an untraced and a
traced half and the metrics are its ``per_layer`` ones.  The full
document goes to ``e2ebench/reports/E2E_<workload>.json`` and, when
tracing, the spans to ``e2ebench/reports/TRACE_<workload>.json``.
Exit status: 0 when correct, 1 when a correctness gate failed, 2 when
the system under test is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from e2ebench.common import (  # noqa: E402
    REPORT_DIR,
    ROOT,
    CheckoutError,
    Context,
    ensure_checkout,
    host_fingerprint,
    peak_rss_mb,
    quartiles,
    run_scratch,
)
from e2ebench.workloads import WORKLOADS, load  # noqa: E402

#: End-to-end metric -> unit.
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def declared_metrics(trace: bool) -> dict[str, str]:
    """BENCHMARK.json's metric names and units for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, which the
    program's shared-memory pools start and which would otherwise
    outlive this process."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark (see e2ebench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=2009)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ensure_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_scratch()  # its exit cleanup must run after every cache's

    from e2ebench.layers import TABLE, metric_units, per_layer_metrics
    from e2ebench.tracer import Tracer, rollup, write_trace

    tracer = Tracer(TABLE) if args.trace else None
    ctx = Context(args.workload, args.seed, args.seconds, tracer=tracer)
    _module, run = load(args.workload)
    started = time.perf_counter()
    try:
        out = run(ctx)
    finally:
        _stop_resource_tracker()
    problems = list(out.problems)

    if args.trace:
        spans = out.spans or tracer.spans
        hooks = out.hook_counters or dict(tracer.counters)
        calls = out.call_counts or tracer.call_counts()
        roll = rollup(spans)
        problems += roll.problems
        overhead = out.traced_run_s / out.run_s - 1
        values = per_layer_metrics(
            roll, hooks, calls, out.counters, units=out.traced_units,
            wall_s=out.traced_wall_s, overhead_frac=overhead)
        units = metric_units()
        write_trace(REPORT_DIR / f"TRACE_{args.workload}.json", spans,
                    hooks, calls, workload=args.workload, seed=args.seed,
                    layer_self_s=roll.layer_self,
                    entry_self_s=roll.entry_self,
                    entry_calls=dict(roll.entry_calls))
    else:
        factor = ctx.speed.factor()
        values = {"setup_s": statistics.median(out.setup_s) * factor,
                  "run_s": out.run_s * factor,
                  "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END

    declared = declared_metrics(bool(args.trace))
    for name, unit in declared.items():
        value = values.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"metric {name} missing or not finite")
        elif units.get(name) != unit:
            problems.append(f"metric {name}: unit {units.get(name)!r}, "
                            f"BENCHMARK.json says {unit!r}")
    correct = not problems and out.failed == 0
    # Timings are reported only for outputs that passed every gate.
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit in declared.items()} if correct else {}
    q1, med, q3 = quartiles(out.unit_s)
    document = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": out.attempted,
        "failed": out.failed, "problems": problems, "metrics": metrics,
        "host_speed": {"factor": ctx.speed.factor(),
                       "probes": len(ctx.speed.samples),
                       "probe_median_s":
                           statistics.median(ctx.speed.samples)},
        "wall_setup_s": out.setup_s,
        "wall_run_s": out.run_s,
        "wall_unit_s": {"n": len(out.unit_s), "q1": q1, "median": med,
                        "q3": q3},
        "wall_s": time.perf_counter() - started,
        "counters": out.counters, "detail": out.detail,
        "host": host_fingerprint(),
    }
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    (REPORT_DIR / f"E2E_{args.workload}.json").write_text(
        json.dumps(document, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{out.attempted} operations, {out.failed} failed")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:.6g}" if value is not None else "-"
        print(f"  {name:<28} {shown:>14} {metric['unit']}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
