"""PhaseProfiler.report: summed phase time vs. wall time.

Phases may nest (``kernel.solve`` inside ``campaign.stage.*``) and
overlap (concurrent threads, or stage processes merged into the
parent), so their summed time is not wall time.  The report must
label the two separately, keep every share at or below 100 %, and
print an ``(other)`` residual only when the phases fit inside the wall
time.  Pool workers' phases reach the parent: a map books every task's
phase whatever the pool size, and ``--profile`` lists the same phases
for a serial and a pooled run.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime.profiling import PROFILER, PhaseProfiler, phase
from repro.runtime.resilient import resilient_map


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


def test_merge_adds_another_processes_snapshot():
    prof = PhaseProfiler()
    prof.add("kernel.solve", 0.5)
    prof.merge({"kernel.solve": (3, 0.25), "cache.get": (2, 0.125)})
    assert prof.snapshot() == {"kernel.solve": (4, 0.75),
                               "cache.get": (2, 0.125)}


def test_empty_profiler_reports_nothing_ran():
    assert PhaseProfiler().report(total=1.0) == \
        "profile: no instrumented phases ran"


class _PyFloat(float):
    """A float whose ``other + self`` runs Python code.

    CPython only switches threads at calls and loop back-edges, so a
    plain ``stat.seconds += 1.0`` never yields inside the
    read-modify-write.  This operand does, which lets an unguarded
    :meth:`PhaseProfiler.add` lose increments on any interpreter.
    """

    def __radd__(self, other):
        return float(other) + float(self)


def test_concurrent_adds_lose_no_increments():
    seconds = _PyFloat(1.0)
    prof = PhaseProfiler()
    n_threads, n_adds = 8, 20_000
    barrier = threading.Barrier(n_threads)

    def hammer():
        barrier.wait()
        for _ in range(n_adds):
            prof.add("x", seconds)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert prof.snapshot() == {"x": (n_threads * n_adds,
                                     float(n_threads * n_adds))}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_can_add_while_parent_holds_the_lock():
    # A thread may be inside add() when a pool forks a worker.
    ctx = multiprocessing.get_context("fork")
    with PROFILER._lock:
        child = ctx.Process(target=PROFILER.add, args=("x", 1.0))
        child.start()
    child.join(timeout=10)
    hung = child.is_alive()
    if hung:
        child.kill()
    assert not hung
    assert child.exitcode == 0


# -- phases cross the process boundary ----------------------------------------

DATA = Path(__file__).parent / "data" / "campaigns"


@pytest.fixture
def enabled_profiler():
    was = PROFILER.enabled
    PROFILER.reset()
    PROFILER.enable()
    yield PROFILER
    PROFILER.enabled = was
    PROFILER.reset()


def _phase_task(x):
    with phase("x"):
        return x + 1


@pytest.mark.parametrize("workers", [1, 2])
def test_map_books_every_task_phase_on_any_pool_size(enabled_profiler,
                                                     workers):
    n = 7
    out = resilient_map(_phase_task, range(n), workers=workers)
    assert out.results == [i + 1 for i in range(n)]
    assert enabled_profiler.snapshot()["x"][0] == n


def test_disabled_profiler_records_nothing_in_pool_workers():
    assert not PROFILER.enabled
    PROFILER.reset()
    resilient_map(_phase_task, range(4), workers=2)
    assert PROFILER.snapshot() == {}


def _cli_profile(capsys, *argv) -> tuple[str, set[str]]:
    """Run the CLI with ``--profile``; return the report text before the
    profile block and the phase names the block lists."""
    from repro.cli import main
    from repro.kernels import ladders

    # Each run solves its ladders afresh, so kernel phases show.
    ladders.clear()
    assert main([*argv, "--profile"]) == 0
    text, _, block = capsys.readouterr().out.partition("\n--profile\n")
    table = block.split("summed phase time")[0].splitlines()[1:]
    names = {line.split()[0] for line in table} - {"(other)"}
    return text, names


def test_cli_yield_profile_lists_pool_workers_phases(capsys, monkeypatch):
    """``repro yield --workers 2 --profile`` lists the kernel phases the
    pool workers ran: the serial run's phases plus ``runtime.pool``,
    with the same report."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    args = ("yield", "--dies", "120", "--workers")
    serial_text, serial = _cli_profile(capsys, *args, "1")
    pooled_text, pooled = _cli_profile(capsys, *args, "2")
    assert pooled_text == serial_text
    assert {"kernel.solve", "kernel.decode"} <= serial
    assert pooled == serial | {"runtime.pool"}


def test_cli_campaign_profile_names_match_across_modes(capsys, tmp_path):
    names = {}
    for mode in ("serial", "parallel"):
        _, names[mode] = _cli_profile(
            capsys, "campaign", "run", str(DATA / "smoke.toml"),
            "--out", str(tmp_path / mode), "--execution", mode)
    assert names["parallel"] == names["serial"]
    assert "kernel.solve" in names["parallel"]
