"""repro.telemetry — bounded-memory streaming PSN monitoring.

The paper's deployment story is a live one: sensor arrays replicated
across the CUT "like a scan chain", with measures "iterated so that
noise values can be captured in different moments of the CUT transient
behavior" — a continuous stream of thermometer words, not a one-shot
sweep.  This package is that missing online layer:

* :mod:`repro.telemetry.ring` — fixed-capacity staging buffers with an
  explicit overflow policy (``drop_oldest`` / ``block`` / ``error``)
  and drop counters;
* :mod:`repro.telemetry.aggregate` — O(1) online aggregators: Welford
  statistics, P² streaming quantiles, per-rung occupancy, EWMA
  baseline;
* :mod:`repro.telemetry.events` — hysteresis droop-episode detection
  emitting :class:`~repro.telemetry.events.DroopEvent` records;
* :mod:`repro.telemetry.sources` — adapters from
  :class:`~repro.core.monitor.NoiseMonitor` captures, scan-chain
  shift-outs, PDN transient grids and raw arrays to sample streams;
* :mod:`repro.telemetry.pipeline` — the
  :class:`~repro.telemetry.pipeline.TelemetryPipeline` orchestrator:
  chunked kernel decode (bit-identical to batch), per-site aggregation,
  alert rules, JSON snapshots and JSONL event export.

The CLI front end is ``repro telemetry``; the tracked perf trajectory
is ``BENCH_telemetry.json`` from ``benchmarks/bench_telemetry.py``.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "DroopDetector": ".events",
    "DroopEvent": ".events",
    "EwmaBaseline": ".aggregate",
    "OverflowPolicy": ".ring",
    "P2Quantile": ".aggregate",
    "RingBuffer": ".ring",
    "RungHistogram": ".aggregate",
    "RunningStats": ".aggregate",
    "SampleBlock": ".sources",
    "TelemetryPipeline": ".pipeline",
    "array_source": ".sources",
    "batch_decode": ".pipeline",
    "grid_transient_source": ".sources",
    "monitor_source": ".sources",
    "scan_chain_source": ".sources",
    "synthetic_droop_trace": ".sources",
    "waveform_source": ".sources",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
