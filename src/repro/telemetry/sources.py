"""Adapters turning existing measurement objects into sample streams.

A telemetry *source* is any iterable of :class:`SampleBlock`s.  Blocks
carry numpy arrays, not Python scalars, so a million-sample trace moves
through the pipeline as a few hundred slice handoffs.  Two payload
kinds exist, matching where data enters the system:

* ``"voltage"`` — raw per-site rail samples (PDN transient solves,
  synthesized noise waveforms); the pipeline runs the full sensor
  quantization (word -> ones count -> decode bounds) in chunks;
* ``"word"`` — the sensor already quantized (scan-chain readout,
  :class:`~repro.core.monitor.NoiseMonitor` captures); payload columns
  are the 0/1 word bits, bit 1 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SampleBlock:
    """One contiguous run of samples from a single site.

    Attributes:
        site: Site label (stable across blocks of the same stream).
        times: ``(n,)`` sample instants, seconds, ascending.
        values: ``(n,)`` rail voltages (kind ``"voltage"``) or
            ``(n, n_bits)`` 0/1 word bits, bit 1 first (``"word"``).
        kind: ``"voltage"`` or ``"word"``.
    """

    site: str
    times: np.ndarray
    values: np.ndarray
    kind: str = "voltage"

    def __post_init__(self) -> None:
        if self.kind not in ("voltage", "word"):
            raise ConfigurationError(f"unknown block kind {self.kind!r}")
        n = self.times.shape[0] if self.times.ndim == 1 else -1
        if n < 0 or self.values.shape[0] != n:
            raise ConfigurationError(
                f"block shape mismatch: times {self.times.shape}, "
                f"values {self.values.shape}"
            )

    @property
    def n_samples(self) -> int:
        return int(self.times.shape[0])


def _chunks(n: int, block: int) -> Iterator[slice]:
    if block < 1:
        raise ConfigurationError("block must be at least 1")
    for lo in range(0, n, block):
        yield slice(lo, min(lo + block, n))


def array_source(site: str, times: np.ndarray, voltages: np.ndarray,
                 *, block: int = 4096) -> Iterator[SampleBlock]:
    """Stream a precomputed voltage trace in ``block``-sized pieces."""
    times = np.asarray(times, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    if times.shape != voltages.shape or times.ndim != 1:
        raise ConfigurationError(
            f"trace shape mismatch: {times.shape} vs {voltages.shape}"
        )
    for sl in _chunks(times.size, block):
        yield SampleBlock(site=site, times=times[sl],
                          values=voltages[sl], kind="voltage")


def waveform_source(site: str, waveform, *, t_start: float,
                    t_stop: float, n_samples: int,
                    block: int = 4096) -> Iterator[SampleBlock]:
    """Sample a scalar :class:`~repro.sim.waveform.Waveform` uniformly.

    Waveforms are scalar callables, so sampling is a Python loop —
    fine for scenario-sized traces; synthesize big benchmark traces
    directly as arrays and use :func:`array_source` instead.
    """
    if n_samples < 2:
        raise ConfigurationError("n_samples must be at least 2")
    if t_stop <= t_start:
        raise ConfigurationError("t_stop must exceed t_start")
    times = np.linspace(t_start, t_stop, n_samples)
    for sl in _chunks(times.size, block):
        ts = times[sl]
        vs = np.fromiter((waveform(float(t)) for t in ts),
                         dtype=float, count=ts.size)
        yield SampleBlock(site=site, times=ts, values=vs,
                          kind="voltage")


def grid_transient_source(transient, sites: Sequence[tuple[int, int]],
                          *, block: int = 4096
                          ) -> Iterator[SampleBlock]:
    """Per-site voltage streams from a quasi-static PDN solve.

    Args:
        transient: A :class:`~repro.psn.transient_grid.GridTransient`.
        sites: Tile coordinates to stream (one stream per tile).
    """
    if not sites:
        raise ConfigurationError("need at least one site")
    times = np.asarray(transient.times, dtype=float)
    for (r, c) in sites:
        transient.grid.tile_index(r, c)  # bounds check
        trace = np.asarray(transient.voltages[:, r, c], dtype=float)
        for sl in _chunks(times.size, block):
            yield SampleBlock(site=f"tile({r},{c})", times=times[sl],
                              values=trace[sl], kind="voltage")


def pdn_source(params, i_load, *, t_end: float, dt: float,
               site: str = "pdn", v0: float | None = None,
               block: int = 4096) -> Iterator[SampleBlock]:
    """Stream a PDN transient solve without materializing the trace.

    Steps the rail with the chunk-invariant exact-ZOH kernel
    (:class:`repro.kernels.transient.TransientStepper`), one ``block``
    of samples per yield — a billion-sample solve flows through the
    pipeline in bounded memory, and the emitted voltages are
    bit-identical to a one-shot
    :meth:`~repro.psn.pdn.PDNModel.simulate` of the same trace.

    Args:
        params: :class:`~repro.psn.pdn.PDNParameters`.
        i_load: Load current — callable ``i(t)`` (array-aware callables
            are sampled per block in one call) or a full sample array
            of length ``round(t_end/dt) + 1``.
        t_end: Solve end, seconds.
        dt: Step, seconds (same resonance-resolution rule as
            ``PDNModel.simulate``).
    """
    from repro.kernels.transient import TransientStepper
    from repro.psn.pdn import _sample_current

    if t_end <= 0 or dt <= 0:
        raise ConfigurationError("t_end and dt must be positive")
    n = int(round(t_end / dt))
    if n < 2:
        raise ConfigurationError("t_end/dt must give at least 2 steps")
    if dt > 0.05 / params.resonant_frequency:
        raise ConfigurationError(
            f"dt={dt:g}s under-resolves the PDN resonance; use dt <= "
            f"{0.05 / params.resonant_frequency:.3g}s"
        )
    stepper = TransientStepper(params, dt, v0=v0)
    if not callable(i_load):
        i_all = np.asarray(i_load, dtype=float)
        if i_all.shape != (n + 1,):
            raise ConfigurationError(
                f"i_load array has {i_all.size} samples; expected {n + 1}"
            )
    for sl in _chunks(n + 1, block):
        times = np.arange(sl.start, sl.stop) * dt
        if callable(i_load):
            i_chunk = _sample_current(i_load, times, t_end=t_end, dt=dt)
        else:
            i_chunk = i_all[sl]
        yield SampleBlock(site=site, times=times,
                          values=stepper.step(i_chunk), kind="voltage")


def synthetic_droop_trace(*, n_samples: int, dt: float = 1e-9,
                          base: float = 1.0, n_droops: int = 2,
                          depth: float = 0.15, freq: float = 100e6,
                          decay: float = 20e-9,
                          noise_rms: float = 0.0, seed: int = 2024,
                          ) -> tuple[np.ndarray, np.ndarray,
                                     list[float]]:
    """Vectorized synthetic PSN rail: droop events riding on noise.

    The same resonant-droop model as
    :func:`repro.psn.noise.droop_event` (a damped sine whose first
    half-cycle is the dip), evaluated as one numpy expression so
    million-sample benchmark traces synthesize in milliseconds.  Event
    onsets are spaced evenly through the middle 80% of the trace.

    Returns:
        ``(times, voltages, droop_onsets)`` — onsets in seconds, the
        injection ground truth for detector tests.
    """
    if n_samples < 2:
        raise ConfigurationError("n_samples must be at least 2")
    if n_droops < 0 or depth < 0 or noise_rms < 0:
        raise ConfigurationError(
            "n_droops, depth and noise_rms must be non-negative"
        )
    times = np.arange(n_samples, dtype=float) * dt
    volts = np.full(n_samples, base, dtype=float)
    if noise_rms > 0:
        rng = np.random.default_rng(seed)
        volts += rng.normal(0.0, noise_rms, size=n_samples)
    onsets: list[float] = []
    t_end = times[-1]
    for k in range(n_droops):
        t0 = (0.1 + 0.8 * (k + 0.5) / n_droops) * t_end
        onsets.append(float(t0))
        rel = times - t0
        active = rel >= 0.0
        volts[active] -= (
            depth * np.exp(-rel[active] / decay)
            * np.sin(2.0 * np.pi * freq * rel[active])
        )
    return times, volts, onsets


def _word_bits(word) -> tuple[int, ...]:
    return word.bits  # ThermometerWord: bit 1 first


def monitor_source(capture, *, site: str = "monitor",
                   block: int = 4096) -> Iterator[SampleBlock]:
    """Word stream from a :class:`~repro.core.monitor.MonitorCapture`.

    Every equivalent-time point contributes its raw word at its
    equivalent time; the pipeline re-decodes against the configured
    code's ladder.
    """
    from repro.analysis.thermometer import ThermometerWord

    points = capture.points
    if not points:
        raise ConfigurationError("capture has no points")
    times = np.asarray([p.time for p in points], dtype=float)
    bits = np.asarray(
        [_word_bits(ThermometerWord.from_string(p.word))
         for p in points], dtype=np.float64,
    )
    for sl in _chunks(times.size, block):
        yield SampleBlock(site=site, times=times[sl], values=bits[sl],
                          kind="word")


def scan_chain_source(chain, shifts: Iterable[tuple[float,
                                                    Sequence[int]]],
                      *, block: int = 4096) -> Iterator[SampleBlock]:
    """Word streams from repeated scan-chain shift-outs.

    Args:
        chain: A :class:`~repro.core.scanchain.PSNScanChain`.
        shifts: ``(time, bit_stream)`` pairs, each stream exactly one
            full shift-out (:meth:`PSNScanChain.scan_out` format).

    Yields one word block per site, batched over all shifts (sites
    interleave in chain order per shift instant).
    """
    times: list[float] = []
    per_site: list[list[tuple[int, ...]]] | None = None
    for t, stream in shifts:
        words = chain.deserialize(list(stream))
        if per_site is None:
            per_site = [[] for _ in words]
        times.append(float(t))
        for k, w in enumerate(words):
            per_site[k].append(_word_bits(w))
    if per_site is None:
        raise ConfigurationError("no scan shifts provided")
    t_arr = np.asarray(times, dtype=float)
    for (r, c), rows in zip(chain.sites, per_site):
        bits = np.asarray(rows, dtype=np.float64)
        for sl in _chunks(t_arr.size, block):
            yield SampleBlock(site=f"site({r},{c})", times=t_arr[sl],
                              values=bits[sl], kind="word")
