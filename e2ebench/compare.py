"""Compare two run sets from ``sweep.py`` against BENCHMARK.json's bounds.

    python3 e2ebench/compare.py parent.json change.json

One row per workload and end-to-end metric, from the correct runs:

* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: a spread (quartile distance over median) is wider
  than the bound, unless every change run reads better than every
  parent run; or the verdict would be ``better`` or
  ``within bound`` but the run sets' host-speed probes differ by more
  than the bound, or the unscaled wall times (``wall_setup_s``,
  ``wall_run_s`` of each run's document) give another verdict than the
  scaled ones; or the verdict would be ``better`` but the change fails
  more often;
* ``better``: the change wins at least 90 % of the runs paired by seed
  and the medians differ by more than the parent's quartile distance;
* ``within bound``: otherwise.

A ``failed`` row per workload compares incorrect runs and the summed
``failed`` / ``attempted`` operations; it reads ``worse`` when the
change fails more.

Exit status 0 when nothing is worse, 1 when something is, 2 when the
run sets cannot be compared: different run lengths, or hosts that
differ in CPU count, usable CPUs, Python, NumPy, numba or the active
kernel backend.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from e2ebench.common import ROOT, quartiles  # noqa: E402

HOST_KEYS = ("cpu_count", "usable_cpus", "python", "numpy", "numba",
             "kernel_backend")

#: Share of seed-paired runs the change must win to be ``better``.
MIN_WON = 0.9

#: Wall times behind each host-speed-scaled metric, from a run document.
UNSCALED = {
    "setup_s": lambda doc: statistics.median(doc["wall_setup_s"]),
    "run_s": lambda doc: doc["wall_run_s"],
}


def verdict(parent: dict[int, float], change: dict[int, float],
            bound: float, lower_is_better: bool) -> dict:
    """Judge ``change`` against ``parent``, each mapping seed -> value.

    Returns the verdict, the change of the median as a share of the
    parent's (positive is worse), both spreads and the seed pairs won.
    """
    sign = 1.0 if lower_is_better else -1.0
    pq1, pmed, pq3 = quartiles(list(parent.values()))
    cq1, cmed, cq3 = quartiles(list(change.values()))
    p_spread = (pq3 - pq1) / pmed
    c_spread = (cq3 - cq1) / cmed
    worse_by = sign * (cmed - pmed) / pmed
    seeds = sorted(parent.keys() & change.keys())
    won = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    separated = (max(change.values()) < min(parent.values())
                 if lower_is_better else
                 min(change.values()) > max(parent.values()))
    if worse_by > bound:
        result = "worse"
    elif max(p_spread, c_spread) > bound and not separated:
        result = "unresolved"
    elif seeds and won >= MIN_WON * len(seeds) and -worse_by > p_spread:
        result = "better"
    else:
        result = "within bound"
    return {"verdict": result, "worse_by": worse_by,
            "spreads": (p_spread, c_spread), "won": (won, len(seeds))}


def failures(runs: list[dict]) -> tuple[int, int, int]:
    """(incorrect runs, failed operations, attempted operations)."""
    return (sum(not r["correct"] for r in runs),
            sum(r.get("failed", 0) for r in runs),
            sum(r.get("attempted", 0) for r in runs))


def fails_more(parent: tuple[int, int, int],
               change: tuple[int, int, int]) -> bool:
    """Whether ``change`` has more incorrect runs or a larger failed
    share of its operations than ``parent``."""
    if change[0] > parent[0]:
        return True
    p_frac = parent[1] / parent[2] if parent[2] else 0.0
    c_frac = change[1] / change[2] if change[2] else 0.0
    return c_frac > p_frac


def judge(parent_runs: list[dict], change_runs: list[dict],
          metric: dict, change_fails_more: bool) -> tuple[dict, list[str]]:
    """The row for one metric of one workload, and why a verdict was
    downgraded to ``unresolved``."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"

    def by_seed(runs: list[dict], value) -> dict[int, float]:
        return {r["seed"]: value(r) for r in runs if r["correct"]}

    row = verdict(by_seed(parent_runs, lambda r: r["metrics"][name]),
                  by_seed(change_runs, lambda r: r["metrics"][name]),
                  bound, lower)
    notes = []
    if name in UNSCALED:
        def probe(runs: list[dict]) -> float:
            return statistics.median(
                r["document"]["host_speed"]["probe_median_s"]
                for r in runs if r["correct"])

        drift = probe(change_runs) / probe(parent_runs) - 1
        if abs(drift) > bound:
            notes.append(f"host-speed probe moved {drift:+.1%}")
        wall = UNSCALED[name]
        unscaled = verdict(
            by_seed(parent_runs, lambda r: wall(r["document"])),
            by_seed(change_runs, lambda r: wall(r["document"])),
            bound, lower)["verdict"]
        directional = {"better", "worse"}
        if ({row["verdict"]} & directional) != ({unscaled} & directional):
            notes.append(f"unscaled wall times say {unscaled}")
    if change_fails_more and row["verdict"] == "better":
        notes.append("the change fails more")
    if notes and row["verdict"] in ("better", "within bound"):
        row["verdict"] = "unresolved"
    return row, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = json.loads(args.parent.read_text())
    change = json.loads(args.change.read_text())

    if parent["seconds"] != change["seconds"]:
        print(f"refusing to compare: run lengths differ "
              f"({parent['seconds']} s vs {change['seconds']} s)")
        return 2
    host_p, host_c = parent["host"] or {}, change["host"] or {}
    differ = [k for k in HOST_KEYS if host_p.get(k) != host_c.get(k)]
    if differ:
        print("refusing to compare: hosts differ in "
              + ", ".join(f"{k} ({host_p.get(k)} vs {host_c.get(k)})"
                          for k in differ))
        return 2

    print(f"{'workload':<16} {'metric':<12} {'parent':>12} {'change':>12}"
          f" {'change %':>9} {'spreads %':>13} {'won':>6} {'bound':>6}"
          f"  verdict")
    worse = 0
    workloads = sorted({r["workload"] for r in parent["runs"]}
                       & {r["workload"] for r in change["runs"]})
    for workload in workloads:
        runs_p = [r for r in parent["runs"] if r["workload"] == workload]
        runs_c = [r for r in change["runs"] if r["workload"] == workload]
        fail_p, fail_c = failures(runs_p), failures(runs_c)
        more = fails_more(fail_p, fail_c)
        worse += more
        print(f"{workload:<16} {'failed':<12} "
              f"parent {fail_p[0]} runs, {fail_p[1]}/{fail_p[2]} ops; "
              f"change {fail_c[0]} runs, {fail_c[1]}/{fail_c[2]} ops  "
              f"{'worse' if more else 'within bound'}")
        if not any(r["correct"] for r in runs_p) \
                or not any(r["correct"] for r in runs_c):
            print(f"{workload:<16} {'':<12} no correct runs to time")
            continue
        for metric in spec["end_to_end"]:
            row, notes = judge(runs_p, runs_c, metric, more)
            worse += row["verdict"] == "worse"
            lower = metric["better"] == "lower"
            signed = row["worse_by"] if lower else -row["worse_by"]
            medians = [statistics.median(
                r["metrics"][metric["name"]] for r in runs if r["correct"])
                for runs in (runs_p, runs_c)]
            won, pairs = row["won"]
            pa, pb = row["spreads"]
            print(f"{workload:<16} {metric['name']:<12} {medians[0]:>12.6g}"
                  f" {medians[1]:>12.6g} {signed:>+9.2%} "
                  f"{pa:>6.1%}/{pb:<6.1%} {f'{won}/{pairs}':>6} "
                  f"{metric['bound']:>6.0%}  {row['verdict']}"
                  + (f" ({'; '.join(notes)})" if notes else ""))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
