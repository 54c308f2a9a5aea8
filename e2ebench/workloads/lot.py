"""``lot`` and ``lot-warm``: the production-test lot flow on a result cache.

One unit is one lot: ``run_yield_study`` over ``N_DIES`` mismatch dies
plus ``characterize_array`` for every delay code on the event-sim
backend, both with ``WORKERS`` pool workers and a ``ResultCache`` (what
``repro yield --workers 2 --cache-dir`` and ``repro fig5 --sim`` do).
``lot`` starts every unit from an empty cache, so it times the pool
path and cache writes; ``lot-warm`` repeats the unit on a filled cache,
so it times cache reads.  ``--seed`` seeds the lot.

Every unit's result must equal the serial, uncached reference, which
takes the batched kernel path instead of the per-die pool path.
"""

from __future__ import annotations

import shutil
import statistics
from typing import Any

from e2ebench.common import (
    Context,
    Outcome,
    digest,
    load_golden,
    probe_setup,
    scratch_dir,
)

N_DIES = 500
CODES = tuple(range(8))
WORKERS = 2


def ready() -> Any:
    """Set-up: import the lot flow and build the design."""
    import repro.analysis.yield_study  # noqa: F401
    import repro.core.characterization  # noqa: F401
    from repro.core.calibration import paper_design

    return paper_design()


def run_lot(design: Any, seed: int, *, cache: Any,
            workers: int | None) -> tuple[Any, Any]:
    from repro.analysis.yield_study import run_yield_study
    from repro.core.characterization import characterize_array
    from repro.devices.variation import VariationModel

    report = run_yield_study(design, VariationModel(), n_dies=N_DIES,
                             seed=seed, workers=workers, cache=cache)
    chars = characterize_array(design, CODES, backend="sim",
                               workers=workers, cache=cache)
    return report, chars


def run(ctx: Context, *, warm: bool) -> Outcome:
    from repro.runtime import ResultCache

    setups = ctx.setups(lambda: probe_setup(ctx.workload))
    design = ready()
    reference = run_lot(design, ctx.seed, cache=None, workers=None)
    problems: list[str] = []
    golden = load_golden()["lot"].get(str(ctx.seed))
    if golden is not None and digest(reference) != golden:
        problems.append(f"reference lot digest {digest(reference)} "
                        f"differs from the golden {golden}")
    tasks = N_DIES + len(CODES) * design.n_bits
    state = {"units": 0, "failed": 0, "last": {}}

    with scratch_dir(ctx.workload) as root:
        warm_dir = root / "cache"
        if warm:
            filled = run_lot(design, ctx.seed, cache=ResultCache(warm_dir),
                             workers=WORKERS)
            if filled != reference:
                problems.append("cold fill differs from the reference")

        def unit() -> float:
            state["units"] += 1
            cache_dir = warm_dir if warm else root / f"cold-{state['units']}"
            cache = ResultCache(cache_dir)
            with ctx.timed("warm" if warm else "cold") as timer:
                result = run_lot(design, ctx.seed, cache=cache,
                                 workers=WORKERS)
            cache.flush_stats()
            expect = ((tasks, 0) if warm else (0, tasks))
            if result != reference or (cache.hits, cache.misses) != expect:
                state["failed"] += 1
                problems.append(
                    f"unit {state['units']}: result "
                    f"{'matches' if result == reference else 'differs'}"
                    f", cache hits/misses {cache.hits}/{cache.misses}, "
                    f"expected {expect[0]}/{expect[1]}")
            state["last"] = {"hits": cache.hits, "misses": cache.misses}
            if not warm:
                shutil.rmtree(cache_dir, ignore_errors=True)
            return timer.elapsed

        plain, traced = ctx.measure(unit)

    out = Outcome(
        setup_s=setups,
        unit_s=plain,
        run_s=statistics.median(plain),
        attempted=state["units"] * tasks,
        failed=state["failed"] * tasks,
        problems=problems[:20],
        detail={"dies": N_DIES, "codes": len(CODES), "workers": WORKERS,
                "tasks_per_unit": tasks, "units": len(plain),
                "last_unit_cache": state["last"]},
    )
    out.set_traced(traced)
    return out

