"""Pipeline-level telemetry tests: the PR's acceptance criteria.

* a million-sample trace streams through with peak buffered samples
  bounded by the ring capacity and decoded voltages bit-identical to a
  one-shot batch kernel decode;
* P² quantile estimates land within the documented one-rung bound of
  exact ``np.quantile`` on the full trace;
* the droop detector recovers injected episodes (count, ±1-sample
  boundaries, depth) from synthetic PSN waveforms, without chatter;
* overflow policies, source adapters, snapshots, alerts and JSONL
  export behave as specified.
"""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, TelemetryOverflowError
from repro.telemetry import (
    TelemetryPipeline,
    array_source,
    batch_decode,
    grid_transient_source,
    monitor_source,
    scan_chain_source,
    synthetic_droop_trace,
    waveform_source,
)


@pytest.fixture(scope="module")
def droop_trace():
    """200k-sample noisy trace with 3 injected droops (module-shared)."""
    return synthetic_droop_trace(
        n_samples=200_000, dt=1e-9, n_droops=3, depth=0.15,
        noise_rms=5e-3, seed=42,
    )


def _collecting_pipeline(design, **kwargs):
    chunks = {"ks": [], "mids": []}
    pipeline = TelemetryPipeline(
        design,
        on_decoded=lambda site, ts, ks, ms: (
            chunks["ks"].append(ks), chunks["mids"].append(ms)
        ),
        **kwargs,
    )
    return pipeline, chunks


# -- the headline acceptance test ----------------------------------------


def test_million_samples_bounded_memory_bit_identical(design):
    """>=1e6 samples: peak staged <= capacity, chunked == batch, P²
    within one rung of exact quantiles."""
    n = 1_000_000
    times, volts, _ = synthetic_droop_trace(
        n_samples=n, dt=1e-9, n_droops=4, depth=0.15,
        noise_rms=5e-3, seed=2024,
    )
    capacity, chunk, block = 8192, 1024, 4096
    pipeline, chunks = _collecting_pipeline(
        design, code=3, chunk=chunk, capacity=capacity,
        policy="drop_oldest",
    )
    snap = pipeline.run(array_source("s", times, volts, block=block))

    ring = snap["sites"]["s"]["ring"]
    assert ring["high_watermark"] <= capacity
    assert ring["dropped"] == 0 and ring["deferred"] == 0
    assert snap["sites"]["s"]["decoded"] == n

    streamed_mids = np.concatenate(chunks["mids"])
    streamed_ks = np.concatenate(chunks["ks"])
    words, ks, mids = batch_decode(pipeline.ladder, volts)
    assert np.array_equal(streamed_mids, mids)  # bit-identical floats
    assert np.array_equal(streamed_ks, ks)

    # P² against exact quantiles of the full decoded trace.
    ladder = pipeline.ladder
    levels = np.concatenate(
        ([ladder[0]], 0.5 * (ladder[1:] + ladder[:-1]), [ladder[-1]])
    )
    bound = float(np.max(np.diff(levels)))
    for q_str, est in snap["sites"]["s"]["quantiles"].items():
        exact = float(np.quantile(mids, float(q_str)))
        assert abs(est - exact) <= bound


def test_chunk_boundaries_do_not_change_decode(design, droop_trace):
    """Different (chunk, block) tilings give identical decoded runs."""
    times, volts, _ = droop_trace
    runs = []
    for chunk, block in ((1024, 4096), (997, 1499), (4096, 1024)):
        pipeline, chunks = _collecting_pipeline(
            design, chunk=chunk, capacity=8192, policy="block",
        )
        pipeline.run(array_source("s", times, volts, block=block))
        runs.append(np.concatenate(chunks["mids"]))
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


@pytest.mark.parametrize("quantiles", [(), (0.99,)])
def test_fewer_quantiles_change_no_other_aggregate(design, droop_trace,
                                                   quantiles):
    """Each P² estimator is independent: dropping some leaves every
    other aggregate, and the estimators kept, bit-identical."""
    times, volts, _ = droop_trace

    def run(**kwargs):
        pipeline = TelemetryPipeline(design, **kwargs)
        snap = pipeline.run(array_source("s", times, volts))
        return pipeline, snap

    full, full_snap = run()
    trimmed, snap = run(quantiles=quantiles)
    assert snap["totals"] == full_snap["totals"]
    assert snap["totals"]["events"] > 0
    assert trimmed.events == full.events
    site, full_site = snap["sites"]["s"], full_snap["sites"]["s"]
    for name in ("stats", "histogram", "baseline", "events"):
        assert site[name] == full_site[name]
    assert site["quantiles"] == {
        repr(q): full_site["quantiles"][repr(q)] for q in quantiles
    }
    assert snap["config"]["quantiles"] == list(quantiles)


# -- droop recovery ------------------------------------------------------


def _reference_episodes(ks, enter, exit_, min_duration,
                        refractory=0):
    """Offline reference scan (independent of the streaming FSM)."""
    episodes = []
    in_ep = False
    holdoff = 0
    start = worst = None
    for i, k in enumerate(ks):
        if in_ep:
            if k >= exit_:
                in_ep = False
                if i - start >= min_duration:
                    episodes.append((start, i - 1, worst))
                    holdoff = refractory
            else:
                worst = min(worst, k)
        elif holdoff > 0:
            holdoff -= 1
        elif k <= enter:
            in_ep, start, worst = True, i, k
    if in_ep and len(ks) - start >= min_duration:
        episodes.append((start, len(ks) - 1, worst))
    return episodes


def test_detector_recovers_injected_droops(design, droop_trace):
    times, volts, onsets = droop_trace
    pipeline = TelemetryPipeline(
        design, code=3, chunk=1024, capacity=8192,
        min_duration=2, refractory=16,
    )
    snap = pipeline.run(array_source("s", times, volts))
    events = pipeline.events
    assert len(events) == len(onsets) == 3

    _, ks, mids = batch_decode(pipeline.ladder, volts)
    ref = _reference_episodes(
        ks, pipeline.enter_rung, pipeline.exit_rung, 2,
        refractory=16,
    )
    assert len(ref) == 3
    dt = float(times[1] - times[0])
    for event, (start_i, end_i, worst_k), t0 in zip(events, ref,
                                                    onsets):
        assert abs(event.start - times[start_i]) <= dt  # ±1 sample
        assert abs(event.end - times[end_i]) <= dt
        assert event.worst_rung == worst_k
        # Depth: the worst decoded level vs the quantized true dip.
        true_worst = float(mids[start_i:end_i + 1].min())
        assert event.depth_v == pytest.approx(
            pipeline.reference_v - true_worst
        )
        assert event.start >= t0  # droop cannot precede its onset
    assert snap["totals"]["events"] == 3


def test_no_droops_no_events(design):
    times, volts, _ = synthetic_droop_trace(
        n_samples=20_000, n_droops=0, noise_rms=5e-3, seed=1,
    )
    pipeline = TelemetryPipeline(design, min_duration=2)
    snap = pipeline.run(array_source("s", times, volts))
    assert snap["totals"]["events"] == 0
    assert snap["sites"]["s"]["events"]["max_depth_v"] is None


# -- overflow policies through the pipeline ------------------------------


def test_policy_block_is_lossless_even_when_tiny(design, droop_trace):
    times, volts, _ = droop_trace
    pipeline, chunks = _collecting_pipeline(
        design, chunk=64, capacity=64, policy="block",
    )
    snap = pipeline.run(
        array_source("s", times[:50_000], volts[:50_000], block=999)
    )
    ring = snap["sites"]["s"]["ring"]
    assert ring["high_watermark"] <= 64
    assert ring["dropped"] == 0
    assert ring["deferred"] > 0  # backpressure actually engaged
    _, _, mids = batch_decode(pipeline.ladder, volts[:50_000])
    assert np.array_equal(np.concatenate(chunks["mids"]), mids)


def test_policy_drop_oldest_drops_and_alerts(design, droop_trace):
    times, volts, _ = droop_trace
    pipeline = TelemetryPipeline(
        design, chunk=128, capacity=128, policy="drop_oldest",
    )
    snap = pipeline.run(
        array_source("s", times[:10_000], volts[:10_000], block=1000)
    )
    assert snap["sites"]["s"]["ring"]["dropped"] > 0
    assert "sample-loss" in snap["sites"]["s"]["alerts"]
    assert snap["alerts"]["sample-loss"] == ["s"]
    assert snap["sites"]["s"]["decoded"] < 10_000


def test_policy_error_raises_through_pipeline(design, droop_trace):
    times, volts, _ = droop_trace
    pipeline = TelemetryPipeline(
        design, chunk=128, capacity=128, policy="error",
    )
    with pytest.raises(TelemetryOverflowError):
        pipeline.ingest_all(
            array_source("s", times[:10_000], volts[:10_000],
                         block=1000)
        )


# -- sources -------------------------------------------------------------


def test_word_source_matches_voltage_source(design, droop_trace):
    """Pre-quantized word streams decode to the same rungs/mids."""
    times, volts, _ = droop_trace
    times, volts = times[:5000], volts[:5000]
    p_volt, volt_chunks = _collecting_pipeline(design)
    p_volt.run(array_source("s", times, volts))

    words, _, _ = batch_decode(p_volt.ladder, volts)
    from repro.telemetry import SampleBlock

    p_word, word_chunks = _collecting_pipeline(design)
    p_word.run([SampleBlock(site="s", times=times,
                            values=words.astype(float), kind="word")])
    assert np.array_equal(np.concatenate(volt_chunks["mids"]),
                          np.concatenate(word_chunks["mids"]))


def test_waveform_source_samples_scalar_waveform(design):
    from repro.psn.noise import droop_event

    wave = droop_event(1.0, 0.15, 50e-9)
    pipeline = TelemetryPipeline(design, min_duration=1)
    snap = pipeline.run(waveform_source(
        "w", wave, t_start=0.0, t_stop=200e-9, n_samples=2000,
        block=256,
    ))
    assert snap["sites"]["w"]["decoded"] == 2000
    assert snap["totals"]["events"] >= 1


def test_grid_transient_source_streams_tiles(design):
    from repro.psn.grid import IRDropGrid
    from repro.psn.transient_grid import migrating_hotspot, \
        solve_transient

    grid = IRDropGrid(rows=4, cols=4, r_segment=0.05, r_pad=0.01)
    currents = migrating_hotspot(
        grid, total_current=5.0, path=[(1, 1), (2, 2)], dwell=50e-9,
    )
    transient = solve_transient(grid, currents, t_end=100e-9, dt=2e-9)
    pipeline = TelemetryPipeline(design)
    sites = [(1, 1), (2, 2)]
    snap = pipeline.run(grid_transient_source(transient, sites))
    assert set(snap["sites"]) == {"tile(1,1)", "tile(2,2)"}
    for s in snap["sites"].values():
        assert s["decoded"] == transient.times.size


def test_scan_chain_source_roundtrip(design):
    from repro.core.scanchain import PSNScanChain
    from repro.psn.grid import IRDropGrid

    grid = IRDropGrid(rows=5, cols=5, r_segment=0.05, r_pad=0.01)
    chain = PSNScanChain(design, grid, [(1, 1), (2, 3)], code=3)
    currents = grid.hotspot_currents(
        total_current=4.0, hotspot=(2, 2), hotspot_share=0.8,
    )
    shifts = []
    for k in range(3):
        measures = chain.measure_map(currents)
        shifts.append((k * 1e-6, chain.scan_out(measures)))
    pipeline = TelemetryPipeline(design)
    snap = pipeline.run(scan_chain_source(chain, shifts))
    assert set(snap["sites"]) == {"site(1,1)", "site(2,3)"}
    for s in snap["sites"].values():
        assert s["decoded"] == 3
        assert s["kind"] == "word"


def test_monitor_source_adapts_capture(design):
    from repro.core.monitor import NoiseMonitor
    from repro.sim.waveform import StepWaveform
    from repro.units import NS

    monitor = NoiseMonitor(design, auto_range=False)
    capture = monitor.capture(
        StepWaveform(1.0, 0.9, 40 * NS),
        t_start=20 * NS, t_stop=60 * NS, n_points=6,
    )
    pipeline = TelemetryPipeline(design)
    snap = pipeline.run(monitor_source(capture))
    assert snap["sites"]["monitor"]["decoded"] == 6
    hist = snap["sites"]["monitor"]["histogram"]
    assert sum(hist["counts"]) == 6


# -- snapshot / export / validation --------------------------------------


def test_snapshot_is_json_serializable(design, droop_trace):
    times, volts, _ = droop_trace
    pipeline = TelemetryPipeline(design, min_duration=2)
    snap = pipeline.run(array_source("s", times[:20_000],
                                     volts[:20_000]))
    parsed = json.loads(json.dumps(snap))
    assert parsed["config"]["code"] == 3
    assert parsed["sites"]["s"]["stats"]["count"] == 20_000
    occ = parsed["sites"]["s"]["histogram"]["occupancy"]
    assert sum(occ) == pytest.approx(1.0)


def test_events_jsonl_export(design, droop_trace, tmp_path):
    times, volts, _ = droop_trace
    pipeline = TelemetryPipeline(design, min_duration=2,
                                 refractory=16)
    pipeline.run(array_source("s", times, volts))
    path = tmp_path / "events.jsonl"
    n = pipeline.export_events_jsonl(path)
    rows = [json.loads(line) for line in
            path.read_text().splitlines()]
    assert len(rows) == n == len(pipeline.events)
    for row, event in zip(rows, pipeline.events):
        assert row == event.as_dict()


def test_droop_depth_alert(design, droop_trace):
    times, volts, _ = droop_trace
    pipeline = TelemetryPipeline(design, min_duration=2,
                                 alert_depth_v=0.05)
    snap = pipeline.run(array_source("s", times, volts))
    assert "droop-depth" in snap["sites"]["s"]["alerts"]
    quiet = TelemetryPipeline(design, min_duration=2,
                              alert_depth_v=10.0)
    snap = quiet.run(array_source("s", times, volts))
    assert "droop-depth" not in snap["sites"]["s"]["alerts"]


def test_multisite_fan_in(design, droop_trace):
    times, volts, _ = droop_trace
    pipeline = TelemetryPipeline(design)
    for k in range(3):
        pipeline.ingest_all(array_source(
            f"s{k}", times[:8000], volts[:8000] - 0.002 * k,
        ))
    pipeline.flush()
    snap = pipeline.snapshot()
    assert snap["totals"]["sites"] == 3
    assert snap["totals"]["decoded"] == 3 * 8000
    means = [snap["sites"][f"s{k}"]["stats"]["mean"] for k in range(3)]
    assert means[0] >= means[1] >= means[2]


def test_pipeline_validation(design, droop_trace):
    times, volts, _ = droop_trace
    with pytest.raises(ConfigurationError):
        TelemetryPipeline(design, code=9)
    with pytest.raises(ConfigurationError):
        TelemetryPipeline(design, chunk=0)
    with pytest.raises(ConfigurationError):
        TelemetryPipeline(design, chunk=256, capacity=128)

    pipeline = TelemetryPipeline(design)
    pipeline.ingest_all(array_source("s", times[:100], volts[:100]))
    with pytest.raises(ConfigurationError):  # time going backwards
        pipeline.ingest_all(array_source("s", times[:50], volts[:50]))
    from repro.telemetry import SampleBlock

    with pytest.raises(ConfigurationError):  # payload kind switch
        pipeline.ingest(SampleBlock(
            site="s", times=times[100:101] + 1.0,
            values=np.zeros((1, design.n_bits)), kind="word",
        ))


@pytest.mark.parametrize("kwargs", [
    {"ewma_alpha": 0.0},
    {"quantiles": (1.5,)},
    {"enter_rung": 5, "exit_rung": 3},
    {"min_duration": 0},
    {"refractory": -1},
])
def test_per_site_settings_fail_at_construction(design, kwargs):
    with pytest.raises(ConfigurationError):
        TelemetryPipeline(design, **kwargs)


def test_ewma_baseline_tracks_mean(design):
    times, volts, _ = synthetic_droop_trace(
        n_samples=30_000, n_droops=0, noise_rms=3e-3, seed=8,
    )
    pipeline = TelemetryPipeline(design, ewma_alpha=0.05)
    snap = pipeline.run(array_source("s", times, volts))
    baseline = snap["sites"]["s"]["baseline"]
    assert baseline == pytest.approx(
        snap["sites"]["s"]["stats"]["mean"], abs=0.02
    )
    assert not math.isnan(baseline)
