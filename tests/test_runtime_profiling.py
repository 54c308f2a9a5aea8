"""PhaseProfiler.report: summed phase time vs. wall time.

Phases may nest (``kernel.solve`` inside ``campaign.stage.*``) and
overlap (concurrent stage threads), so their summed time is not wall
time.  The report must label the two separately, keep every share at
or below 100 %, and print an ``(other)`` residual only when the phases
fit inside the wall time.
"""

from __future__ import annotations

import re
import threading
import time

from repro.runtime.profiling import PhaseProfiler


def _shares(report: str) -> dict[str, float]:
    """``{phase: share %}`` from the report's table rows."""
    out = {}
    for line in report.splitlines():
        m = re.match(r"^(\S+)\s+.*\s([\d.]+)%$", line)
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


def test_disjoint_phases_report_wall_shares_and_residual():
    prof = PhaseProfiler()
    prof.add("kernel.solve", 0.2)
    prof.add("cache.get", 0.3)
    report = prof.report(total=1.0)
    shares = _shares(report)
    assert shares == {"cache.get": 30.0, "kernel.solve": 20.0,
                      "(other)": 50.0}
    assert "summed phase time: 500.0ms" in report
    assert "wall time: 1000.0ms" in report
    assert "shares are of wall time" in report
    assert "overlap" not in report


def test_overlapping_phases_omit_residual_and_stay_under_100pct():
    prof = PhaseProfiler()
    prof.add("campaign.stage.a", 0.8)
    prof.add("campaign.stage.b", 0.7)
    prof.add("kernel.solve", 0.5)  # nested inside stage a
    report = prof.report(total=1.0)
    shares = _shares(report)
    assert "(other)" not in report
    assert set(shares) == {"campaign.stage.a", "campaign.stage.b",
                           "kernel.solve"}
    assert all(s <= 100.0 for s in shares.values())
    assert abs(sum(shares.values()) - 100.0) < 0.5
    assert "summed phase time: 2000.0ms" in report
    assert "wall time: 1000.0ms" in report
    assert "phases nest or overlap" in report


def test_concurrent_threads_are_reported_as_overlap():
    prof = PhaseProfiler()
    prof.enable()
    barrier = threading.Barrier(2)

    def stage(name):
        with prof.measure(name):
            barrier.wait()
            time.sleep(0.05)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=stage, args=(f"campaign.stage.{n}",))
               for n in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    report = prof.report(total=wall)
    assert "(other)" not in report
    assert "phases nest or overlap" in report
    assert all(s <= 100.0 for s in _shares(report).values())


def test_without_total_shares_are_of_summed_time():
    prof = PhaseProfiler()
    prof.add("kernel.solve", 0.1)
    prof.add("kernel.solve", 0.1)
    prof.add("cache.put", 0.2)
    report = prof.report()
    assert _shares(report) == {"kernel.solve": 50.0, "cache.put": 50.0}
    assert "shares are of summed phase time" in report
    assert "wall time" not in report
    assert "(other)" not in report


def test_empty_profiler_reports_nothing_ran():
    assert PhaseProfiler().report(total=1.0) == \
        "profile: no instrumented phases ran"
