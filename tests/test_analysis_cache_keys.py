"""The lot and S-curve flows keep their cache keys byte for byte.

Each test fills a cache under keys built by hand from the formulas the
flows have always used, then runs the flow on that cache: every entry
must be served (all hits, no misses, nothing measured) and the result
must equal the uncached one.  A cache filled by an older commit thus
stays fully warm.
"""

import numpy as np
import pytest

from benchmarks._oracles import extract_ladder_scalar, score_from_thresholds
from repro.analysis.repeatability import extract_ladder_via_s_curves
from repro.analysis.yield_study import run_yield_study
from repro.backends import KernelBackend
from repro.devices.variation import VariationModel
from repro.kernels import ladders, lot_threshold_grid
from repro.kernels.montecarlo import MC_SEED_SCHEME
from repro.runtime import ResultCache, design_fingerprint, task_key

LADDER = dict(noise_rms=5e-3, code=3, seed=13, n_per_level=40)


def _no_measuring(monkeypatch):
    def _boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("measured on a warm cache")

    monkeypatch.setattr(KernelBackend, "lot_thresholds", _boom)
    monkeypatch.setattr(KernelBackend, "s_curve", _boom)


def test_die_score_keys_read_back_warm(design, tmp_path, monkeypatch):
    model, n, seed, code = VariationModel(), 6, 5, 3
    uncached = run_yield_study(design, model, n_dies=n, seed=seed)
    nominal = ladders.ladder(design, code)
    supply_grid = tuple(float(v) for v in np.linspace(
        nominal[0] + 0.005, nominal[-1] - 0.005, 17))
    lot = model.sample_lot(n, design.n_bits, seed=seed)
    cache = ResultCache(tmp_path)
    fp = design_fingerprint(design)
    for sample, row in zip(lot, lot_threshold_grid(design, lot, code)):
        cache.put(task_key("die-score", fp, sample, code, supply_grid),
                  score_from_thresholds(row, supply_grid, nominal))

    _no_measuring(monkeypatch)
    warm = ResultCache(tmp_path)
    for workers in (1, 2):
        assert run_yield_study(design, model, n_dies=n, seed=seed,
                               workers=workers, cache=warm) == uncached
    assert (warm.hits, warm.misses) == (2 * n, 0)


@pytest.mark.parametrize("backend", [None, "kernel"])
def test_s_curve_keys_read_back_warm(design, tmp_path, monkeypatch,
                                     backend):
    fits = extract_ladder_scalar(design, **LADDER)
    if backend is None:
        fp, tag = design_fingerprint(design), "kernel"
    else:
        bk = KernelBackend()
        fp = design_fingerprint(design, backend=bk)
        tag = f"backend:{bk.id}"
    cache = ResultCache(tmp_path)
    for fit in fits:
        cache.put(task_key("s-curve-fit", fp, fit.bit, LADDER["noise_rms"],
                           LADDER["code"], MC_SEED_SCHEME, LADDER["seed"],
                           LADDER["n_per_level"], tag), fit)

    _no_measuring(monkeypatch)
    warm = ResultCache(tmp_path)
    assert extract_ladder_via_s_curves(design, cache=warm,
                                       backend=backend, **LADDER) == fits
    assert (warm.hits, warm.misses) == (design.n_bits, 0)

