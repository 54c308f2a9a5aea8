"""Shared plumbing: checkout paths, timing, statistics, host identity."""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REPORT_DIR = BENCH_DIR / "reports"
WORK_DIR = REPORT_DIR / "work"

#: Fresh set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class CheckoutError(RuntimeError):
    """The system under test is not next to the benchmark."""


def ensure_checkout() -> None:
    """Make ``repro`` (``src/``) and the paper artifacts (``benchmarks/``)
    importable, or raise :class:`CheckoutError` when they are absent."""
    missing = [p for p in (SRC / "repro" / "__init__.py",
                           ROOT / "benchmarks" / "__init__.py")
               if not p.is_file()]
    if missing:
        raise CheckoutError(
            f"system under test not found: missing "
            f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}"
        )
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_golden() -> dict[str, Any]:
    """Reference outputs: per-artifact report hashes, the anchor error,
    and result digests for seeds 0-31 and 2009."""
    return json.loads((BENCH_DIR / "golden.json").read_text())


def digest(obj: Any) -> str:
    """SHA-256 of a result's ``repr`` (floats print exactly)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the checkout."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_scratch() -> Path:
    """This process's scratch root inside the checkout.

    Removed by an ``atexit`` hook registered on first use.  Register it
    before any ``ResultCache`` exists: exit hooks run last-in first-out
    and each cache's exit-time stats flush recreates its directory.
    """
    path = WORK_DIR / f"run-{os.getpid()}"
    if not path.exists():
        path.mkdir(parents=True)
        atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


@contextlib.contextmanager
def scratch_dir(name: str) -> Iterator[Path]:
    """A fresh directory under :func:`run_scratch`, removed afterwards."""
    path = run_scratch() / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Peak resident set of this process and every reaped child, MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_fingerprint() -> dict[str, Any]:
    """The host and numeric stack a measurement was taken on.

    ``benchmarks._perf.machine_fingerprint`` (platform, CPU count,
    Python, NumPy, numba version, active kernel backend) plus the CPUs
    this process may use, the 1-minute load and the CPU model.  Needs
    :func:`ensure_checkout` first.
    """
    from benchmarks._perf import machine_fingerprint

    usable = (len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {
        **machine_fingerprint(),
        "cpu_model": _cpu_model(),
        "usable_cpus": usable,
        "load_1m": os.getloadavg()[0],
    }


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    ``workload``'s modules and built the design (``setup_probe.py``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
        stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload!r} failed "
                           f"(exit {code}, said {line.strip()!r})")
    return elapsed


#: The probe's time on the reference host.  Timings are scaled by
#: ``PROBE_REFERENCE_S / median(probe times of the run)``, so they read
#: in seconds of that host whatever speed the host ran at meanwhile.
PROBE_REFERENCE_S = 0.0115

#: Least wall time between two host-speed probes.
PROBE_INTERVAL_S = 0.25


def _probe_work() -> None:
    # Integer arithmetic only: no containers, so garbage collection
    # (whose cost grows with the program's heap) stays out of it.
    acc = 0
    for i in range(200_000):
        acc += i * i


class HostSpeed:
    """Host-speed probes interleaved with a run's units.

    On a shared host the CPU speed drifts by several percent over tens
    of seconds (other tenants), and every unit of a run drifts with it.
    A fixed pure-Python probe between units drifts alike; the median
    probe time of the run gives :meth:`factor`.  A workload whose work
    runs on other CPUs than this process sets :attr:`cpus` to them, and
    each probe then runs there.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf
        self.cpus: set[int] | None = None

    def probe(self) -> None:
        home = None
        if self.cpus is not None:
            home = os.sched_getaffinity(0)
            os.sched_setaffinity(0, self.cpus)
        try:
            t0 = time.perf_counter()
            _probe_work()
            end = time.perf_counter()
        finally:
            if home is not None:
                os.sched_setaffinity(0, home)
        self.samples.append(end - t0)
        self._last = end

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()

    def factor(self) -> float:
        """Multiply a wall time of this run by this to get reference-host
        seconds."""
        return PROBE_REFERENCE_S / statistics.median(self.samples)


@dataclass
class Context:
    """One benchmark run's settings, its tracer and its host probe."""

    workload: str
    seed: int
    seconds: float
    tracer: Any = None          # a tracer.Tracer when tracing
    speed: HostSpeed = field(default_factory=HostSpeed)

    @property
    def trace(self) -> bool:
        return self.tracer is not None

    @contextlib.contextmanager
    def timed(self, work: str | None = None) -> Iterator["Timer"]:
        """Time a block; spans are recorded only inside such blocks."""
        timer = Timer()
        rec = (self.tracer.recording(work) if self.tracer is not None
               and self.tracer.installed else contextlib.nullcontext())
        with rec:
            t0 = time.perf_counter()
            try:
                yield timer
            finally:
                timer.elapsed = time.perf_counter() - t0

    def setups(self, once: Callable[[], float]) -> list[float]:
        """``SETUP_REPEATS`` timed set-ups, probed before and after."""
        samples = []
        for _ in range(SETUP_REPEATS):
            self.speed.probe()
            samples.append(once())
        self.speed.probe()
        return samples

    def repeat(self, seconds: float,
               unit: Callable[[], float]) -> list[float]:
        """Call ``unit`` (which returns its own timed duration) until
        ``seconds`` have passed, at least once, probing the host speed
        between units."""
        deadline = time.perf_counter() + seconds
        times = [unit()]
        while time.perf_counter() < deadline:
            self.speed.maybe_probe()
            times.append(unit())
        self.speed.maybe_probe()
        return times

    def measure(self, unit: Callable[[], float]
                ) -> tuple[list[float], list[float]]:
        """Untraced unit times, then (tracing only) traced unit times.

        Without tracing the whole ``seconds`` is untraced.  With
        tracing each half gets half the time, so
        ``trace.overhead_frac`` compares units of one run.
        """
        if not self.trace:
            return self.repeat(self.seconds, unit), []
        plain = self.repeat(self.seconds / 2, unit)
        with self.tracer.installing():
            traced = self.repeat(self.seconds / 2, unit)
        return plain, traced


@dataclass
class Timer:
    elapsed: float = 0.0


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    Times are wall seconds (``run.py`` scales them to the reference
    host).  ``run_s`` / ``traced_run_s`` are the workload's headline
    unit time, untraced / traced; ``traced_units`` and
    ``traced_wall_s`` scale the per-layer rollup to one unit.
    ``counters`` come from the system's own stats; ``spans``,
    ``hook_counters`` and ``call_counts`` from a tracer in another
    process (the in-process tracer's are read by ``run.py``).
    """

    setup_s: list[float]
    unit_s: list[float]
    run_s: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    traced_run_s: float | None = None
    traced_units: float = 0.0
    traced_wall_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    hook_counters: dict[str, float] = field(default_factory=dict)
    call_counts: dict[str, int] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    def set_traced(self, times: list[float]) -> None:
        """Record the traced unit times of :meth:`Context.measure`."""
        if times:
            self.traced_run_s = statistics.median(times)
            self.traced_units = len(times)
            self.traced_wall_s = sum(times)
