"""Served bodies vs direct driver calls, cold and warm ladder store.

``execute_job`` reads every fixed ladder, die row and scalar threshold
through :mod:`repro.kernels.ladders`.  For each request kind the body
it returns must not depend on whether the store was cold or warm, and
must equal the same answer built from direct ``KernelBackend`` calls
and the plain solvers.  Decorators around the driver must still see
every call: an injected fault fires however warm the store is.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.analysis.thermometer import ThermometerWord, decode_word
from repro.backends import KernelBackend
from repro.backends.faults import FaultInjectingBackend, InjectedFaultError
from repro.core.calibration import paper_design
from repro.kernels import decode_counts, ladders, lot_threshold_grid
from repro.kernels import threshold_grid
from repro.service import FleetConfig, build_load, execute_job
from repro.service.fleet import _decode_word_batch, die_sample

CONFIG = FleetConfig(n_dies=16, n_shards=2, seed=2009)

REQUESTS = {
    "measure": {"levels": [0.70, 0.83, 0.90, 0.9599, 1.02, 1.10],
                "code": 3},
    "characterize": {"die": 5, "code": 2},
    "s_curve": {"bit": 4, "n_per_level": 20, "seed": 7, "code": 3},
    "yield": {"n_dies": 6, "code": 3},
    "window": {"n_samples": 512, "seed": 3, "code": 3},
}


@pytest.fixture(autouse=True)
def cold_store():
    ladders.clear()
    yield
    ladders.clear()


def _nominal(code: int) -> tuple[float, ...]:
    return tuple(float(v) for v in
                 threshold_grid(paper_design(), (code,))[:, 0])


def _decode_level_word(word_bits: np.ndarray, code: int) -> dict:
    """Scalar oracle of ``_decode_word_batch``: one ``ThermometerWord``
    and one lenient ``decode_word`` per row, on a fresh solve."""
    word = ThermometerWord(tuple(int(b) for b in word_bits))
    rng = decode_word(word, _nominal(code), strict=False)
    return {"word": word.to_string(), "lo": rng.lo, "hi": rng.hi}


def _body(kind: str, **backend) -> dict:
    payload = {"kind": kind, "params": dict(REQUESTS[kind]),
               "fleet": asdict(CONFIG)}
    return execute_job(payload, **backend)


def _direct(kind: str) -> dict:
    """The body of ``kind`` from direct driver calls and plain solvers."""
    design = paper_design()
    bk = KernelBackend()
    bk.configure(design)
    params = REQUESTS[kind]
    code = params["code"]
    if kind == "measure":
        words = bk.measure_batch(params["levels"], code=code)
        return {"code": code, "levels": params["levels"],
                "measures": [_decode_level_word(w, code) for w in words]}
    if kind == "characterize":
        sample = die_sample(CONFIG, params["die"], design.n_bits)
        row = bk.lot_thresholds([sample], code)[0]
        assert np.array_equal(row,
                              lot_threshold_grid(design, [sample], code)[0])
        thresholds = [float(v) for v in row]
        return {"die": params["die"], "code": code,
                "thresholds": thresholds,
                "n_masked": sum(not math.isfinite(v) for v in thresholds),
                "per_die": True}
    if kind == "s_curve":
        levels, probs = bk.s_curve(
            params["bit"], code=code, noise_rms=0.01,
            n_per_level=params["n_per_level"], seed=params["seed"],
            n_levels=9)
        return {"bit": params["bit"], "code": code,
                "levels": list(levels), "probs": list(probs)}
    if kind == "yield":
        dies = list(range(params["n_dies"]))
        lot = [die_sample(CONFIG, d, design.n_bits) for d in dies]
        table = bk.lot_thresholds(lot, code)
        assert np.array_equal(table, lot_threshold_grid(design, lot, code))
        sigma = np.nanstd(table, axis=0)
        ladder = np.asarray(_nominal(code))
        mids = 0.5 * (ladder[:-1] + ladder[1:])
        _, bubbled = decode_counts(mids[None, :], table[:, None, :])
        return {
            "code": code, "dies": dies,
            "threshold_sigma_mv": [float(s * 1e3) for s in sigma],
            "worst_sigma_mv": float(np.nanmax(sigma) * 1e3),
            "spread_mv": float((np.nanmax(table) - np.nanmin(table))
                               * 1e3),
            "monotone_frac": float(np.mean(
                np.all(np.diff(table, axis=1) > 0, axis=1))),
            "bubble_frac": float(np.mean(bubbled)),
        }
    # A window request makes no driver call: its only stored input is
    # the decode ladder, which the pipeline reads at construction.
    from repro.telemetry import (
        TelemetryPipeline,
        array_source,
        synthetic_droop_trace,
    )

    times, volts, _ = synthetic_droop_trace(
        n_samples=params["n_samples"], dt=1e-9, n_droops=2, depth=0.15,
        noise_rms=5.0 * 1e-3, seed=params["seed"])
    pipeline = TelemetryPipeline(design, code=code)
    assert list(pipeline.ladder) == list(_nominal(code))
    pipeline.ingest_all(array_source("svc", times, volts))
    pipeline.flush()
    snap = pipeline.snapshot()["sites"]["svc"]
    return {"code": code, "site": "svc", "n_samples": params["n_samples"],
            "events": snap["events"]["count"],
            "max_depth_v": snap["events"]["max_depth_v"],
            "min_v": snap["stats"]["min"],
            "mean_v": snap["stats"]["mean"],
            "p99_v": snap["quantiles"]["0.99"]}


def _json(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


@pytest.mark.parametrize("kind", sorted(REQUESTS))
def test_body_is_the_same_cold_warm_and_direct(kind):
    cold = _body(kind)
    assert ladders.size() > 0
    warm = _body(kind)
    ladders.clear()
    direct = _direct(kind)
    assert _json(cold) == _json(warm) == _json(direct)


@pytest.mark.parametrize("kind", ["characterize", "yield"])
def test_injected_lot_fault_fires_on_a_warm_store(kind):
    _body(kind)  # warms the die rows the request reads
    inner = KernelBackend()
    faulty = FaultInjectingBackend(inner, poison_ops=("lot_thresholds",))
    faulty.configure(paper_design())
    with pytest.raises(InjectedFaultError):
        _body(kind, backend=faulty)
    assert faulty.injected_errors == 1


def test_warm_round_makes_no_solves(monkeypatch):
    import repro.devices.mosfet as mosfet
    import repro.kernels.thresholds as thresholds

    fleet = asdict(CONFIG)
    load = [{"kind": r["kind"], "params": dict(r["params"]),
             "fleet": fleet}
            for r in build_load(CONFIG.seed, 64, config=CONFIG)]
    load += [{"kind": "yield", "params": dict(REQUESTS["yield"]),
              "fleet": fleet}]
    solves = []
    real_grid = thresholds.solve_voltage_factor
    real_brent = mosfet.brentq
    monkeypatch.setattr(
        thresholds, "solve_voltage_factor",
        lambda *a, **k: solves.append("grid") or real_grid(*a, **k))
    monkeypatch.setattr(
        mosfet, "brentq",
        lambda *a, **k: solves.append("scalar") or real_brent(*a, **k))
    first = [execute_job(p) for p in load]
    # At most one solve per distinct ladder key: the code-3 ladder, one
    # die-row batch per characterize/yield request, one scalar per bit.
    assert solves.count("grid") <= 1 + sum(
        p["kind"] in ("characterize", "yield") for p in load)
    assert solves.count("scalar") <= 7
    solves.clear()
    second = [execute_job(p) for p in load]
    assert solves == []
    assert _json({"r": first}) == _json({"r": second})


def test_decode_word_batch_matches_the_scalar_oracle():
    rng = np.random.default_rng(2009)
    thermometer = np.array([[1] * k + [0] * (7 - k) for k in range(8)],
                           dtype=np.uint8)
    bubbled = np.array([[1, 0, 1, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1, 1],
                        [1, 1, 1, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1],
                        [1, 1, 0, 1, 1, 0, 1]], dtype=np.uint8)
    random_rows = rng.integers(0, 2, size=(64, 7)).astype(np.uint8)
    words = np.concatenate([thermometer, bubbled, random_rows])
    assert any(not ThermometerWord(tuple(int(b) for b in w))
               .is_valid_thermometer for w in random_rows)
    for code in range(8):
        got = _decode_word_batch(words, code)
        want = [_decode_level_word(w, code) for w in words]
        assert got == want
        assert _decode_word_batch(words[3], code) == want[3:4]
