"""Repeat the benchmark over seeds and summarize its spread.

    python3 e2ebench/sweep.py --out runs.json
    python3 e2ebench/sweep.py --root ../parent --out parent.json \\
        --root . --out change.json

Runs ``run.py`` for every workload with seeds 1 to 10, each run
``run_seconds`` long (both from BENCHMARK.json), in each ``--root``
checkout, alternating which checkout goes first from one seed to the
next, and writes one run set per root for ``compare.py``.  It then
prints, per workload and metric, the median, the quartiles and their
distance as a share of the median, against BENCHMARK.json's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from e2ebench.common import ROOT, quartiles  # noqa: E402

#: Runs per workload and checkout, seeded 1 to ``RUNS``.
RUNS = 10


def run_once(root: Path, workload: str, seed: int,
             seconds: float) -> dict:
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    document = root / "e2ebench" / "reports" / f"E2E_{workload}.json"
    return {
        "workload": workload, "seed": seed, "exit": proc.returncode,
        "wall_s": time.perf_counter() - t0,
        "correct": result.get("correct", False),
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {k: v["value"]
                    for k, v in result.get("metrics", {}).items()},
        "document": (json.loads(document.read_text())
                     if document.exists() else None),
    }


def spread_table(runs: list[dict], spec: dict) -> list[str]:
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs
                      if r["workload"] == workload
                      and metric["name"] in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            flag = ("steady" if spread < bound / 3 else
                    "within bound" if spread <= bound else "TOO WIDE")
            rows.append(f"{workload:<16} {metric['name']:<28} "
                        f"n={len(values):<3} median {med:<12.6g} "
                        f"q1 {q1:<12.6g} q3 {q3:<12.6g} "
                        f"spread {spread:7.2%} bound {bound:.0%} {flag}")
    return rows


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append")
    parser.add_argument("--out", type=Path, action="append",
                        required=True)
    args = parser.parse_args(argv)
    roots = [r.resolve() for r in (args.root or [ROOT])]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")

    seconds = spec["run_seconds"]
    sets = [{"host": None, "root": os.path.relpath(root, Path.cwd()),
             "seconds": seconds, "runs": []}
            for root in roots]
    for i in range(RUNS):
        seed = 1 + i
        order = list(range(len(roots)))
        if i % 2:
            order.reverse()
        for workload in (w["name"] for w in spec["workloads"]):
            for k in order:
                run = run_once(roots[k], workload, seed, seconds)
                sets[k]["runs"].append(run)
                if sets[k]["host"] is None and run["document"]:
                    sets[k]["host"] = run["document"]["host"]
                print(f"{roots[k].name}/{workload} seed {seed}: "
                      f"{'ok' if run['correct'] else 'FAILED'} "
                      f"{run['wall_s']:.1f} s {run['metrics']}",
                      flush=True)
    failed = 0
    for out, run_set in zip(args.out, sets):
        out.write_text(json.dumps(run_set, indent=2) + "\n")
        print(f"\n{out}: {run_set['root']}")
        print("\n".join(spread_table(run_set["runs"], spec)))
        failed += sum(not r["correct"] for r in run_set["runs"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
