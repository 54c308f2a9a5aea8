"""``paper``: regenerate every artifact EXPERIMENTS.md lists.

One unit is one artifact test of the twenty EXPERIMENTS.md modules
(E1-E10, E5b, the five ablations and the four extra studies), called
as ``pytest benchmarks`` calls it: a pass-through ``benchmark``
stand-in runs each measured function once and the calibrated design is
the ``design`` fixture.  The artifacts' own assertions run on every
call and each artifact's report text must hash to ``golden.json``, as
must the source of every artifact module (and of ``_report.py``).

The artifacts are fixed figures, so ``--seed`` only shuffles the order
they run in.  ``run_s`` is the sum of the per-artifact medians: the
time to regenerate the paper once.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import io
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

from e2ebench.common import (
    ROOT,
    Context,
    Outcome,
    load_golden,
    probe_setup,
)

ARTIFACT_MODULES = (
    "bench_fig2_sensor_detail",
    "bench_fig3_prepare_sense",
    "bench_fig4_threshold_vs_cap",
    "bench_fig5_multibit_characteristic",
    "bench_table1_delay_codes",
    "bench_pg_sensitivity",
    "bench_fig9_system_sequence",
    "bench_critical_path",
    "bench_fig8_fsm_trace",
    "bench_gnd_sense",
    "bench_process_corners",
    "bench_ablation_tracking",
    "bench_ablation_ro_baseline",
    "bench_ablation_razor",
    "bench_ablation_bits",
    "bench_ablation_cap_spacing",
    "bench_scanchain_map",
    "bench_overhead",
    "bench_variation_yield",
    "bench_fault_coverage",
)

#: Problems listed in the report before the rest are only counted.
MAX_PROBLEMS = 20


def ready() -> tuple[list[Any], Any]:
    """Set-up: import the artifact modules and build the design."""
    from repro.core.calibration import paper_design

    modules = [importlib.import_module(f"benchmarks.{name}")
               for name in ARTIFACT_MODULES]
    return modules, paper_design()


class PassThroughBenchmark:
    """Stands in for pytest-benchmark's fixture: one plain call."""

    def __call__(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def pedantic(self, fn: Callable, args: tuple = (),
                 kwargs: dict | None = None, **_rounds: Any) -> Any:
        return fn(*args, **(kwargs or {}))


@dataclass
class Artifact:
    id: str
    fn: Callable[..., Any]
    kwargs: dict[str, Any]


def discover(modules: list[Any], design: Any,
             emitted: list[tuple[str, str]]) -> list[Artifact]:
    """Every ``test_*`` artifact, its fixtures bound.

    Each module's ``emit`` is rebound to append to ``emitted``, so the
    report text is hashed instead of written to ``benchmarks/reports``.
    """
    fixtures = {"benchmark": PassThroughBenchmark(), "design": design}

    def capture(name: str, text: str) -> None:
        emitted.append((name, text))

    artifacts = []
    for mod in modules:
        mod.emit = capture
        for attr, fn in vars(mod).items():
            if attr.startswith("test_") and callable(fn):
                params = inspect.signature(fn).parameters
                artifacts.append(Artifact(
                    f"{mod.__name__.rsplit('.', 1)[-1]}::{attr}", fn,
                    {p: fixtures[p] for p in params},
                ))
    return artifacts


def anchor_error_mv(design: Any) -> tuple[float, int]:
    """Max |event-sim threshold - published value| over the Fig. 4/5
    anchors, mV, and the anchor count."""
    from repro.core import paperdata as pd
    from repro.core.characterization import (
        characterize_bit_thresholds,
        threshold_vs_capacitance,
    )

    c011 = characterize_bit_thresholds(design, 3, backend="sim")
    c010 = characterize_bit_thresholds(design, 2, backend="sim")
    fig4 = threshold_vs_capacitance(design, [pd.FIG4_ANCHOR_CAP],
                                    backend="sim")[0][1]
    pairs = [(c011[bit - 1], v)
             for bit, v in pd.FIG5_CODE011_BOUNDARIES.items()]
    pairs += [(c010[0], pd.FIG5_CODE010_RANGE[0]),
              (c010[-1], pd.FIG5_CODE010_RANGE[1]),
              (fig4, pd.FIG4_ANCHOR_THRESHOLD)]
    return max(abs(sim - pub) for sim, pub in pairs) * 1e3, len(pairs)


def changed_sources(pinned: dict[str, str]) -> list[str]:
    """The ``benchmarks/`` modules whose source no longer hashes to
    ``pinned``: the artifacts live outside the benchmark's own
    directory, so an edit to one would change the measured work."""
    return [f"benchmarks/{name}.py" for name, sha in sorted(pinned.items())
            if hashlib.sha256((ROOT / "benchmarks" / f"{name}.py")
                              .read_bytes()).hexdigest() != sha]


def run(ctx: Context) -> Outcome:
    setups = ctx.setups(lambda: probe_setup("paper"))
    modules, design = ready()
    golden = load_golden()["paper"]
    emitted: list[tuple[str, str]] = []
    artifacts = discover(modules, design, emitted)
    problems: list[str] = []

    changed = changed_sources(golden["module_sha256"])
    if changed:
        problems.append(f"artifact sources differ from golden.json "
                        f"(the workload would measure other work): "
                        f"{changed}")

    anchor_mv, n_anchors = anchor_error_mv(design)
    if anchor_mv > golden["anchor_err_mv"] + 1e-9:
        problems.append(f"anchor error {anchor_mv:.4f} mV exceeds the "
                        f"golden {golden['anchor_err_mv']:.4f} mV")
    missing = sorted(set(golden["emit_sha256"])
                     - {a.id for a in artifacts})
    if missing:
        problems.append(f"artifacts not found: {missing}")

    rng = random.Random(ctx.seed)
    counts = {"calls": 0, "failed": 0}

    def run_one(art: Artifact) -> float:
        emitted.clear()
        counts["calls"] += 1
        error = None
        with contextlib.redirect_stdout(io.StringIO()):
            with ctx.timed(art.id) as timer:
                try:
                    art.fn(**art.kwargs)
                except Exception as exc:  # an artifact's own gate
                    error = f"{type(exc).__name__}: {exc}"
        if error is None:
            text = "\n".join(f"{name}\n{body}" for name, body in emitted)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != golden["emit_sha256"].get(art.id):
                error = f"report text hashes to {digest}"
        if error is not None:
            counts["failed"] += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"{art.id}: {error}")
        return timer.elapsed

    def cycles(seconds: float) -> dict[str, list[float]]:
        """Shuffled passes until ``seconds`` are up and every artifact
        ran at least once."""
        times: dict[str, list[float]] = {a.id: [] for a in artifacts}
        deadline = time.perf_counter() + seconds
        while True:
            order = list(artifacts)
            rng.shuffle(order)
            for art in order:
                times[art.id].append(run_one(art))
                ctx.speed.maybe_probe()
                if time.perf_counter() >= deadline \
                        and all(times.values()):
                    return times

    def pass_s(times: dict[str, list[float]]) -> float:
        return sum(statistics.median(v) for v in times.values())

    if ctx.trace:
        plain = cycles(ctx.seconds / 2)
        with ctx.tracer.installing():
            traced = cycles(ctx.seconds / 2)
    else:
        plain, traced = cycles(ctx.seconds), {}

    per_artifact = {k: statistics.median(v) for k, v in plain.items()}
    out = Outcome(
        setup_s=setups,
        unit_s=[t for v in plain.values() for t in v],
        run_s=pass_s(plain),
        attempted=counts["calls"],
        failed=counts["failed"],
        problems=problems,
        detail={
            "anchor_err_mv": anchor_mv,
            "anchors": n_anchors,
            "artifacts": len(artifacts),
            "artifact_median_s": dict(sorted(
                per_artifact.items(), key=lambda kv: -kv[1])),
        },
    )
    if traced:
        n_calls = sum(len(v) for v in traced.values())
        out.traced_run_s = pass_s(traced)
        out.traced_units = n_calls / len(artifacts)
        out.traced_wall_s = sum(t for v in traced.values() for t in v)
    return out
