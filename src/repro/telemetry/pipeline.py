"""The streaming telemetry orchestrator.

:class:`TelemetryPipeline` fans in sample streams from any number of
sensor sites, stages them in bounded per-site ring buffers, decodes
them chunk-at-a-time through the :mod:`repro.kernels` grids, and folds
every decoded chunk into O(1) online state (statistics, quantiles,
occupancy, EWMA baseline, droop episodes).  Nothing about a site ever
grows with trace length except its *event list* — and events are rare
by definition (that is what the hysteresis thresholds encode).

Chunked decode is **bit-identical** to a one-shot batch decode of the
same trace: every kernel involved (:func:`~repro.kernels.word_grid`,
:func:`~repro.kernels.ones_count_grid`,
:func:`~repro.kernels.decode_bounds`,
:func:`~repro.kernels.midpoint_grid`) is elementwise, so where the
chunk boundaries fall cannot change any output float.  The kernels'
batch invariance (see :mod:`repro.kernels`) is what makes this free;
:func:`batch_decode` is the one-shot reference the tests and the
telemetry bench compare against.

Dataflow, per site::

    source blocks --> RingBuffer --> [chunk] kernel decode --> aggregates
       (ingest)      (bounded)       words/ks/bounds/mids  |-> detector
                                                           '-> on_decoded tap

Wall-clock is instrumented with :func:`~repro.runtime.profiling.phase`
spans ``telemetry.ingest`` / ``telemetry.decode`` /
``telemetry.aggregate`` (the decode span additionally contains the
kernels' own ``kernel.decode`` sub-span), so ``--profile`` on the CLI
shows where a streaming run spends its time.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.calibration import SensorDesign
from repro.devices.technology import Technology
from repro.errors import ConfigurationError
from repro.kernels import (
    bubble_grid,
    decode_bounds,
    fused_decode,
    midpoint_grid,
    ones_count_grid,
    word_grid,
)
from repro.runtime.profiling import phase
from repro.telemetry.aggregate import (
    EwmaBaseline,
    P2Quantile,
    RungHistogram,
    RunningStats,
)
from repro.telemetry.events import DroopDetector, DroopEvent
from repro.telemetry.ring import OverflowPolicy, RingBuffer
from repro.telemetry.sources import SampleBlock

#: Tap signature: ``(site, times, ks, mids)`` per decoded chunk.
DecodeTap = Callable[[str, np.ndarray, np.ndarray, np.ndarray], None]

#: Alert predicate over one site's snapshot summary.
AlertRule = Callable[[dict[str, Any]], bool]


def batch_decode(ladder: np.ndarray, voltages: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-shot reference decode of a whole voltage trace.

    Returns ``(words, ones_counts, midpoints)`` — exactly what the
    pipeline produces chunk-by-chunk, in one batch call.  Tests and
    the telemetry bench assert elementwise equality (``==``, not
    ``allclose``) between the two paths.
    """
    lad = np.asarray(ladder, dtype=float)
    words = word_grid(np.asarray(voltages, dtype=float), lad)
    ks = ones_count_grid(words)
    lo, hi = decode_bounds(lad, ks)
    return words, ks, midpoint_grid(lo, hi)


@dataclass
class _SiteState:
    """Everything the pipeline keeps per sensor site (O(1) + events)."""

    site: str
    kind: str
    ring: RingBuffer
    stats: RunningStats
    quantiles: dict[float, P2Quantile]
    histogram: RungHistogram
    baseline: EwmaBaseline
    detector: DroopDetector
    decoded: int = 0
    last_time: float = field(default=-math.inf)


class TelemetryPipeline:
    """Bounded-memory streaming monitor over one or many sensor sites.

    Args:
        design: Calibrated sensor design (fixes the ladder width).
        code: Delay code whose threshold ladder decodes the streams.
        tech: Corner technology override for the ladder solve.
        chunk: Decode granularity, samples; drained whenever a site's
            ring holds at least this many.
        capacity: Per-site ring capacity — the hard per-site memory
            bound.  With ``capacity >= chunk - 1 + max block size``
            no sample is ever dropped under ``drop_oldest``.
        policy: Ring overflow policy (see
            :class:`~repro.telemetry.ring.OverflowPolicy`).
        quantiles: Quantiles tracked per site via P².
        enter_rung / exit_rung / min_duration / refractory: Droop
            detector parameters (see
            :class:`~repro.telemetry.events.DroopDetector`); defaults
            scale with the ladder width.
        reference_v: Depth reference for events; defaults to the
            design's nominal supply.
        ewma_alpha: Baseline smoothing factor.
        alert_depth_v: When set, the built-in ``droop-depth`` alert
            fires for any event at least this deep.
        on_decoded: Optional tap called with every decoded chunk
            (testing / bit-identity audits / downstream export).
    """

    def __init__(self, design: SensorDesign, *, code: int = 3,
                 tech: Technology | None = None, chunk: int = 1024,
                 capacity: int = 8192,
                 policy: OverflowPolicy | str =
                 OverflowPolicy.DROP_OLDEST,
                 quantiles: tuple[float, ...] = (0.5, 0.99),
                 enter_rung: int | None = None,
                 exit_rung: int | None = None,
                 min_duration: int = 1, refractory: int = 0,
                 reference_v: float | None = None,
                 ewma_alpha: float = 0.01,
                 alert_depth_v: float | None = None,
                 on_decoded: DecodeTap | None = None) -> None:
        if not 0 <= code < 8:
            raise ConfigurationError("code outside 0..7")
        if chunk < 1:
            raise ConfigurationError("chunk must be at least 1")
        if capacity < chunk:
            raise ConfigurationError(
                f"capacity ({capacity}) must be at least chunk ({chunk})"
            )
        from repro.kernels import ladders

        self.design = design
        self.code = code
        self.tech = tech
        self.chunk = int(chunk)
        self.capacity = int(capacity)
        self.policy = OverflowPolicy.parse(policy)
        self.quantile_qs = tuple(quantiles)
        n = design.n_bits
        self.ladder = np.asarray(ladders.ladder(design, code, tech),
                                 dtype=float)
        self.enter_rung = (max(0, n // 3) if enter_rung is None
                           else int(enter_rung))
        self.exit_rung = (min(n, self.enter_rung + 2)
                          if exit_rung is None else int(exit_rung))
        self.min_duration = int(min_duration)
        self.refractory = int(refractory)
        self.reference_v = (design.tech.vdd_nominal
                            if reference_v is None else float(reference_v))
        self.ewma_alpha = float(ewma_alpha)
        self.alert_depth_v = alert_depth_v
        self.on_decoded = on_decoded
        # Build one site's aggregators now so a bad per-site setting
        # raises here rather than at the first ingest.
        self._aggregators("")
        self._sites: dict[str, _SiteState] = {}
        self._alerts: dict[str, AlertRule] = {}
        self.add_alert("sample-loss",
                       lambda s: s["ring"]["dropped"] > 0)
        if alert_depth_v is not None:
            self.add_alert(
                "droop-depth",
                lambda s: s["events"]["max_depth_v"] is not None
                and s["events"]["max_depth_v"] >= alert_depth_v,
            )

    # -- site management -------------------------------------------------

    def _site_state(self, site: str, kind: str) -> _SiteState:
        state = self._sites.get(site)
        if state is not None:
            if state.kind != kind:
                raise ConfigurationError(
                    f"site {site!r} switched payload kind "
                    f"{state.kind!r} -> {kind!r}"
                )
            return state
        width = 1 if kind == "voltage" else self.design.n_bits
        state = _SiteState(
            site=site,
            kind=kind,
            ring=RingBuffer(self.capacity, width, policy=self.policy),
            **self._aggregators(site),
        )
        self._sites[site] = state
        return state

    def _aggregators(self, site: str) -> dict[str, Any]:
        """One site's fresh online state; their constructors validate
        the per-site settings."""
        return {
            "stats": RunningStats(),
            "quantiles": {q: P2Quantile(q) for q in self.quantile_qs},
            "histogram": RungHistogram(self.design.n_bits),
            "baseline": EwmaBaseline(self.ewma_alpha),
            "detector": DroopDetector(
                site, enter_rung=self.enter_rung,
                exit_rung=self.exit_rung,
                reference_v=self.reference_v,
                min_duration=self.min_duration,
                refractory=self.refractory,
            ),
        }

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._sites)

    # -- streaming -------------------------------------------------------

    def ingest(self, block: SampleBlock) -> None:
        """Stage one sample block and drain any complete chunks.

        Under the ``block`` policy a block larger than the free ring
        space exerts backpressure: the pipeline drains a chunk and
        re-offers the remainder until everything is staged (no loss).
        Under ``drop_oldest`` the ring evicts; under ``error`` it
        raises.
        """
        if block.n_samples == 0:
            return
        if block.times[0] < self._site_state(
                block.site, block.kind).last_time:
            raise ConfigurationError(
                f"site {block.site!r}: non-monotonic block times"
            )
        state = self._sites[block.site]
        state.last_time = float(block.times[-1])
        times = block.times
        values = (block.values if block.kind == "word"
                  else np.asarray(block.values, dtype=float))
        offset = 0
        n = block.n_samples
        while offset < n:
            with phase("telemetry.ingest"):
                taken = state.ring.push_block(times[offset:],
                                              values[offset:])
            offset += taken
            if offset < n:
                # block policy refused part of the offer: drain one
                # chunk to guarantee progress, then re-offer.
                self._drain_chunk(state, force=True)
        while len(state.ring) >= self.chunk:
            self._drain_chunk(state)

    def ingest_all(self, source: Iterable[SampleBlock]) -> None:
        """Ingest an entire source (any iterable of blocks)."""
        for block in source:
            self.ingest(block)

    def _drain_chunk(self, state: _SiteState,
                     force: bool = False) -> None:
        n = min(self.chunk, len(state.ring)) if force else self.chunk
        times, payload = state.ring.pop_block(n)
        if times.size == 0:
            return
        with phase("telemetry.decode"):
            if state.kind == "voltage":
                # Fused path: counts/bounds/mids via searchsorted, no
                # word or diff grid — bit-identical to the unfused
                # chain (:func:`batch_decode` remains the reference).
                # An ascending ladder cannot bubble, and the word cube
                # is synthesized (as the prefix code it provably is)
                # only when the droop detector could need a worst-word
                # payload from this chunk.
                volts = payload[:, 0]
                ks, lo, hi, mids = fused_decode(self.ladder, volts)
                bubbles = np.zeros(ks.shape, dtype=bool)
                words = None
                entering = bool(np.any(ks <= self.enter_rung))
                if state.detector.in_episode or entering:
                    words = (
                        np.arange(self.design.n_bits)[None, :]
                        < ks[:, None]
                    ).astype(np.uint8)
            else:
                words = payload.astype(np.uint8)
                ks = ones_count_grid(words)
                entering = None
                bubbles = bubble_grid(words)
                lo, hi = decode_bounds(self.ladder, ks)
                mids = midpoint_grid(lo, hi)
        with phase("telemetry.aggregate"):
            state.stats.update_block(mids)
            for est in state.quantiles.values():
                est.update_block(mids)
            state.histogram.update_block(ks, bubbles)
            state.baseline.update_block(mids)
            state.detector.update_block(times, ks, mids, words,
                                        entering=entering)
            state.decoded += times.size
        if self.on_decoded is not None:
            self.on_decoded(state.site, times, ks, mids)

    def flush(self) -> None:
        """Drain every partial chunk and close open droop episodes."""
        for state in self._sites.values():
            while len(state.ring):
                self._drain_chunk(state, force=True)
            state.detector.finalize()

    def run(self, source: Iterable[SampleBlock]) -> dict[str, Any]:
        """Convenience: ingest a whole source, flush, snapshot."""
        self.ingest_all(source)
        self.flush()
        return self.snapshot()

    # -- observation -----------------------------------------------------

    @property
    def events(self) -> list[DroopEvent]:
        """All detected events across sites, ordered by start time."""
        out: list[DroopEvent] = []
        for state in self._sites.values():
            out.extend(state.detector.events)
        out.sort(key=lambda e: (e.start, e.site))
        return out

    def add_alert(self, name: str, rule: AlertRule) -> None:
        """Register (or replace) a per-site alert predicate."""
        self._alerts[name] = rule

    def _site_summary(self, state: _SiteState) -> dict[str, Any]:
        events = state.detector.events
        depths = [e.depth_v for e in events]
        return {
            "kind": state.kind,
            "decoded": state.decoded,
            "ring": state.ring.counters(),
            "stats": state.stats.as_dict(),
            "quantiles": {
                repr(q): (None if est.value != est.value else est.value)
                for q, est in state.quantiles.items()
            },
            "histogram": state.histogram.as_dict(),
            "baseline": (None if state.baseline.value
                         != state.baseline.value
                         else state.baseline.value),
            "events": {
                "count": len(events),
                "discarded": state.detector.discarded,
                "max_depth_v": max(depths) if depths else None,
            },
        }

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable metrics registry of the whole pipeline."""
        sites: dict[str, Any] = {}
        fired: dict[str, list[str]] = {}
        for site, state in self._sites.items():
            summary = self._site_summary(state)
            alarms = [name for name, rule in self._alerts.items()
                      if rule(summary)]
            summary["alerts"] = alarms
            sites[site] = summary
            for name in alarms:
                fired.setdefault(name, []).append(site)
        totals = {
            "sites": len(self._sites),
            "decoded": sum(s.decoded for s in self._sites.values()),
            "dropped": sum(s.ring.dropped
                           for s in self._sites.values()),
            "deferred": sum(s.ring.deferred
                            for s in self._sites.values()),
            "events": sum(len(s.detector.events)
                          for s in self._sites.values()),
        }
        return {
            "config": {
                "code": self.code,
                "chunk": self.chunk,
                "capacity": self.capacity,
                "policy": self.policy.value,
                "ladder_v": [float(t) for t in self.ladder],
                "enter_rung": self.enter_rung,
                "exit_rung": self.exit_rung,
                "min_duration": self.min_duration,
                "refractory": self.refractory,
                "reference_v": self.reference_v,
                "quantiles": list(self.quantile_qs),
            },
            "totals": totals,
            "alerts": fired,
            "sites": sites,
        }

    def export_events_jsonl(self, path: str | os.PathLike[str]) -> int:
        """Write every event as one JSON object per line.

        Returns the number of events written.
        """
        events = self.events
        with open(path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event.as_dict(), sort_keys=True))
                fh.write("\n")
        return len(events)
