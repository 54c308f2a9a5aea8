"""The layers of ``src/repro`` and the public entry points traced in each.

:data:`TABLE` lists, per layer, the functions and methods the tracer
wraps.  Entries are the calls other layers (or the benchmark) make into
the layer: a span at each one, so a layer's self time is what runs in
its own code.  Hot scalar calls (``AlphaPowerModel.delay``, ~1.4 M per
paper pass) are counted, not timed.  Generator and coroutine functions
are left out: a wrapper would only time their creation.

:func:`per_layer_metrics` turns a traced run into the ``per_layer``
metrics of BENCHMARK.json, each scaled to one unit of the workload.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from e2ebench.tracer import Entry, Rollup

LAYERS = ("devices", "cells", "core", "kernels", "backends", "sim", "sta",
          "psn", "baselines", "analysis", "telemetry", "runtime",
          "service", "campaign")


# -- hooks: counters read around a span entry's call ----------------------


def _sim_events(tracer: Any, call: Callable, args: tuple,
                kwargs: dict) -> Any:
    engine = args[0]
    before = engine.events_processed
    try:
        return call()
    finally:
        tracer.add("sim.events", engine.events_processed - before)


def _cache_get(tracer: Any, call: Callable, args: tuple,
               kwargs: dict) -> Any:
    result = call()
    tracer.add("runtime.cache_hits" if result[0]
               else "runtime.cache_misses")
    return result


_MAP_DEPTH = threading.local()


def _map(tracer: Any, call: Callable, args: tuple, kwargs: dict) -> Any:
    """Tasks and retries of the outermost runtime map call only (the
    map entry points call each other)."""
    depth = getattr(_MAP_DEPTH, "n", 0)
    _MAP_DEPTH.n = depth + 1
    try:
        result = call()
    finally:
        _MAP_DEPTH.n = depth
    if depth == 0:
        items = args[1] if len(args) > 1 else kwargs.get("items")
        if hasattr(items, "__len__"):
            tracer.add("runtime.tasks", len(items))
        stats = getattr(result, "stats", None)
        if stats is not None:
            tracer.add("runtime.retries", stats.retries)
    return result


def _telemetry_ingest(tracer: Any, call: Callable, args: tuple,
                      kwargs: dict) -> Any:
    block = args[1] if len(args) > 1 else kwargs["block"]
    tracer.add("telemetry.samples", block.n_samples)
    return call()


def _campaign_run(tracer: Any, call: Callable, args: tuple,
                  kwargs: dict) -> Any:
    run = call()
    tracer.add("campaign.stages", len(run.records))
    tracer.add("campaign.resumed", sum(r.resumed for r in run.records))
    return run


def _stage_work(args: tuple, kwargs: dict) -> str:
    stage = args[1] if len(args) > 1 else kwargs["stage"]
    return f"stage:{stage.id}"


def _job_work(args: tuple, kwargs: dict) -> str:
    payload = args[0] if args else kwargs["payload"]
    return f"batch:{payload.get('kind')}"


def _entries(layer: str, module: str, names: str,
             **options: Any) -> list[Entry]:
    return [Entry(f"{module}:{name}", layer, **options)
            for name in names.split()]


#: Entry points per layer ("module:qualname").
TABLE: list[Entry] = [
    *_entries("devices", "repro.devices.mosfet", "AlphaPowerModel.delay",
              count_only=True),
    *_entries("devices", "repro.devices.mosfet",
              "AlphaPowerModel.supply_for_delay"),
    *_entries("devices", "repro.devices.variation",
              "VariationModel.sample_lot VariationModel.sample_die"),
    *_entries("devices", "repro.devices.corners", "ProcessCorner.apply"),

    *_entries("cells", "repro.cells.base", "Cell.propagation_delay"),
    *_entries("cells", "repro.cells.delay_elements",
              "DelayElement.propagation_delay"),
    *_entries("cells", "repro.cells.sequential", "DFlipFlop.sample"),

    *_entries("core", "repro.core.calibration",
              "fit_paper_design paper_design SensorDesign.bit_threshold"),
    *_entries("core", "repro.core.characterization",
              "characterize_bit_thresholds characterize_array "
              "threshold_vs_capacitance"),
    *_entries("core", "repro.core.sensor",
              "SensorBit.measure SensorBitHarness.run_measures"),
    *_entries("core", "repro.core.array",
              "SensorArray.measure SensorArray.decode SensorArray.word_for "
              "SensorArray.supply_thresholds SensorArrayHarness.run_measures"),
    *_entries("core", "repro.core.system", "SensorSystem.run"),
    *_entries("core", "repro.core.control", "ControlFSM.tick"),
    *_entries("core", "repro.core.faults",
              "FaultInjector.screen screen_suspects coverage_study"),
    *_entries("core", "repro.core.trimming", "retrim_for_corner"),
    *_entries("core", "repro.core.scanchain", "PSNScanChain.measure_map"),
    *_entries("core", "repro.core.autorange",
              "AutoRangingMeter.measure_level AutoRangingMeter.scan_levels"),
    *_entries("core", "repro.core.monitor", "NoiseMonitor.capture"),

    *_entries("kernels", "repro.kernels.fused",
              "decode_counts decode_word_rows fused_decode "
              "s_curve_trip_probability_fused score_lot_grids "
              "trip_counts_from_thresholds"),
    *_entries("kernels", "repro.kernels.thermometer",
              "bracket_grid bubble_grid decode_bounds midpoint_grid "
              "ones_count_grid word_grid"),
    *_entries("kernels", "repro.kernels.delay_law",
              "delay_grid solve_supply_for_delay solve_voltage_factor"),
    *_entries("kernels", "repro.kernels.montecarlo",
              "effective_supply_grid s_curve_trip_probability "
              "spawn_bit_seeds trip_grid trip_margin_grid word_grid_mc "
              "word_histogram_grid"),
    *_entries("kernels", "repro.kernels.thresholds",
              "lot_threshold_grid threshold_grid window_grid"),
    *_entries("kernels", "repro.kernels.transient",
              "discretize simulate_corner_lot step_rail "
              "TransientStepper.step"),

    *_entries("backends", "repro.backends.base",
              "SensorBackend.configure SensorBackend.measure"),
    *_entries("backends", "repro.backends.kernel",
              "KernelBackend.measure_batch KernelBackend.bit_thresholds "
              "KernelBackend.lot_thresholds KernelBackend.s_curve"),
    *_entries("backends", "repro.backends.sim",
              "SimBackend.measure_batch SimBackend.bit_thresholds "
              "SimBackend.s_curve"),
    *_entries("backends", "repro.backends", "resolve_backend"),

    *_entries("sim", "repro.sim.engine", "SimulationEngine.run",
              hook=_sim_events),
    *_entries("sim", "repro.sim.engine", "SimulationEngine.settle"),

    *_entries("sta", "repro.sta.analysis",
              "analyze critical_path min_clock_period"),
    *_entries("sta", "repro.sta.hold", "analyze_hold"),
    *_entries("sta", "repro.sta.graph", "TimingGraph.build"),
    *_entries("sta", "repro.sta.delay_calc", "DelayCalculator.arc_delay"),

    *_entries("psn", "repro.psn.pdn",
              "PDNModel.simulate PDNModel.ground_bounce"),
    *_entries("psn", "repro.psn.grid",
              "IRDropGrid.solve IRDropGrid.solve_many"),
    *_entries("psn", "repro.psn.transient_grid", "solve_transient"),
    *_entries("psn", "repro.psn.activity",
              "ClockedActivityGenerator.activity_for_cycle "
              "ClockedActivityGenerator.sample"),
    *_entries("psn", "repro.psn.noise",
              "NoiseScenario.build band_limited_noise"),

    *_entries("baselines", "repro.baselines.ring_oscillator",
              "RingOscillatorSensor.count "
              "RingOscillatorSensor.estimate_supply "
              "RingOscillatorSensor.calibration_curve "
              "RingOscillatorHarness.count_edges"),
    *_entries("baselines", "repro.baselines.razor", "RazorStage.observe"),
    *_entries("baselines", "repro.baselines.analog_sampler",
              "IdealAnalogSampler.sample IdealAnalogSampler.quantize"),

    *_entries("analysis", "repro.analysis.thermometer",
              "decode_word decode_table"),
    *_entries("analysis", "repro.analysis.yield_study", "run_yield_study"),
    *_entries("analysis", "repro.analysis.repeatability",
              "measure_s_curve extract_ladder_via_s_curves word_histogram"),
    *_entries("analysis", "repro.analysis.statistics",
              "tracking_rmse coverage_probability"),
    *_entries("analysis", "repro.analysis.converter_metrics",
              "linearity effective_resolution_bits"),
    *_entries("analysis", "repro.analysis.reconstruct",
              "WaveformReconstructor.estimate_arrays"),

    *_entries("telemetry", "repro.telemetry.pipeline",
              "TelemetryPipeline.run TelemetryPipeline.flush "
              "TelemetryPipeline.snapshot batch_decode"),
    *_entries("telemetry", "repro.telemetry.pipeline",
              "TelemetryPipeline.ingest", hook=_telemetry_ingest),
    *_entries("telemetry", "repro.telemetry.sources",
              "synthetic_droop_trace"),

    *_entries("runtime", "repro.runtime.executor", "map_tasks cached_map",
              hook=_map),
    *_entries("runtime", "repro.runtime.resilient",
              "resilient_map resilient_cached_map", hook=_map),
    *_entries("runtime", "repro.runtime.cache", "ResultCache.get",
              hook=_cache_get),
    *_entries("runtime", "repro.runtime.cache",
              "ResultCache.put ResultCache.flush_stats task_key "
              "design_fingerprint"),

    *_entries("service", "repro.service.fleet", "execute_job",
              work=_job_work),
    *_entries("service", "repro.service.protocol",
              "parse_request make_response encode_response"),
    *_entries("service", "repro.service.admission",
              "AdmissionQueue.drain_nowait"),

    *_entries("campaign", "repro.campaign.runner", "run_campaign",
              hook=_campaign_run),
    *_entries("campaign", "repro.campaign.stages", "execute_stage",
              work=_stage_work),
    *_entries("campaign", "repro.campaign.scheduler",
              "execute_outcomes finalize_records"),
    *_entries("campaign", "repro.campaign.criteria", "evaluate_checks"),
    *_entries("campaign", "repro.campaign.manifest",
              "dump_json provenance_info"),
    *_entries("campaign", "repro.campaign.spec", "CampaignSpec.spec_hash"),
]

#: Runtime entries whose self time is the parent waiting on its pool.
MAP_ENTRIES = ("map_tasks", "cached_map", "resilient_map",
               "resilient_cached_map")

#: Campaign entries whose self time is scheduling and recording, plus,
#: under ``threads``, waiting on the stage threads.
SCHED_ENTRIES = ("run_campaign", "execute_outcomes", "finalize_records")

#: Per-layer metrics beyond ``<layer>.self_pct`` / ``<layer>.calls``:
#: name -> unit.
EXTRA_METRICS: dict[str, str] = {
    "devices.delay_calls": "count",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "runtime.cache_hits": "count",
    "runtime.cache_misses": "count",
    "runtime.cache_puts": "count",
    "runtime.cache_hit_ratio": "ratio",
    "runtime.cache_get_pct": "%",
    "runtime.cache_put_pct": "%",
    "runtime.pool_wait_pct": "%",
    "runtime.tasks": "count",
    "runtime.retries": "count",
    "telemetry.samples_per_s": "1/s",
    "campaign.sched_pct": "%",
    "campaign.resumed_frac": "ratio",
    "service.req_per_cpu_s": "1/s",
    "service.coalesce_ratio": "ratio",
    "service.queue_hwm": "count",
    "service.rejected": "count",
    "service.retries": "count",
    "trace.overhead_frac": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name -> unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
        units[f"{layer}.calls"] = "count"
    units.update(EXTRA_METRICS)
    return units


def per_layer_metrics(roll: Rollup, hooks: dict[str, float],
                      calls: dict[str, int], counters: dict[str, float],
                      *, units: float, wall_s: float,
                      overhead_frac: float) -> dict[str, float]:
    """Per-layer values of one traced run, scaled to one unit.

    Shares are of the traced units' wall time, summed over threads
    (concurrent campaign stages can add up to more than 100 %).
    Layers a workload never enters read 0.
    """
    per_unit = 1.0 / units if units else 0.0
    pct = 100.0 / wall_s if wall_s else 0.0
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = roll.layer_self.get(layer, 0.0) * pct
        out[f"{layer}.calls"] = roll.layer_calls.get(layer, 0) * per_unit

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = hooks.get("runtime.cache_hits", 0)
    misses = hooks.get("runtime.cache_misses", 0)
    sim_self = roll.layer_self.get("sim", 0.0)
    out.update({
        "devices.delay_calls":
            calls.get("AlphaPowerModel.delay", 0) * per_unit,
        "sim.events": hooks.get("sim.events", 0) * per_unit,
        "sim.events_per_s": ratio(hooks.get("sim.events", 0), sim_self),
        "runtime.cache_hits": hits * per_unit,
        "runtime.cache_misses": misses * per_unit,
        "runtime.cache_puts":
            roll.entry_calls.get("ResultCache.put", 0) * per_unit,
        "runtime.cache_hit_ratio": ratio(hits, hits + misses),
        "runtime.cache_get_pct":
            roll.entry_self.get("ResultCache.get", 0.0) * pct,
        "runtime.cache_put_pct":
            roll.entry_self.get("ResultCache.put", 0.0) * pct,
        "runtime.pool_wait_pct":
            sum(roll.entry_self.get(n, 0.0) for n in MAP_ENTRIES) * pct,
        "runtime.tasks": hooks.get("runtime.tasks", 0) * per_unit,
        "runtime.retries": hooks.get("runtime.retries", 0) * per_unit,
        "telemetry.samples_per_s": ratio(
            hooks.get("telemetry.samples", 0),
            roll.layer_self.get("telemetry", 0.0)),
        "campaign.sched_pct":
            sum(roll.entry_self.get(n, 0.0) for n in SCHED_ENTRIES) * pct,
        "campaign.resumed_frac": ratio(hooks.get("campaign.resumed", 0),
                                       hooks.get("campaign.stages", 0)),
        "trace.overhead_frac": overhead_frac,
    })
    for name in ("service.req_per_cpu_s", "service.coalesce_ratio",
                 "service.queue_hwm", "service.rejected",
                 "service.retries"):
        out[name] = float(counters.get(name, 0.0))
    return out
