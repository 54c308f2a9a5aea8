"""Unit tests for the telemetry building blocks.

Ring-buffer policies, online aggregators against their exact numpy
references, the P² block pass against the per-sample reference update
kept here, and the hysteresis droop detector on crafted rung
sequences and under every chunking.  The pipeline-level integration (bounded memory, chunked
vs. batch bit-identity, end-to-end droop recovery) lives in
``test_telemetry_pipeline.py``.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, TelemetryOverflowError
from repro.telemetry import (
    DroopDetector,
    EwmaBaseline,
    OverflowPolicy,
    P2Quantile,
    RingBuffer,
    RungHistogram,
    RunningStats,
)


# -- ring buffer ---------------------------------------------------------


def _fill(n, start=0):
    t = np.arange(start, start + n, dtype=float)
    return t, t * 10.0


def test_ring_fifo_order_and_wraparound():
    ring = RingBuffer(8, 1)
    for k in range(5):  # repeated push/pop cycles force wraparound
        t, v = _fill(6, start=6 * k)
        assert ring.push_block(t, v) == 6
        got_t, got_v = ring.pop_block()
        assert np.array_equal(got_t, t)
        assert np.array_equal(got_v[:, 0], v)
    assert len(ring) == 0
    assert ring.pushed == 30 and ring.popped == 30


def test_ring_partial_pop():
    ring = RingBuffer(10, 1)
    t, v = _fill(7)
    ring.push_block(t, v)
    t1, _ = ring.pop_block(3)
    t2, _ = ring.pop_block(100)
    assert np.array_equal(np.concatenate([t1, t2]), t)
    empty_t, empty_v = ring.pop_block()
    assert empty_t.size == 0 and empty_v.shape == (0, 1)


def test_ring_drop_oldest_evicts_and_counts():
    ring = RingBuffer(4, 1, policy="drop_oldest")
    ring.push_block(*_fill(4))
    assert ring.push_block(*_fill(2, start=4)) == 2
    assert ring.dropped == 2
    got_t, _ = ring.pop_block()
    assert np.array_equal(got_t, np.arange(2.0, 6.0))


def test_ring_drop_oldest_oversized_block_keeps_freshest():
    ring = RingBuffer(4, 1)
    ring.push_block(*_fill(3))
    t, v = _fill(10, start=3)
    assert ring.push_block(t, v) == 10
    got_t, _ = ring.pop_block()
    assert np.array_equal(got_t, t[-4:])
    assert ring.dropped == 3 + 6  # 3 staged evicted + 6 never staged


def test_ring_block_policy_defers():
    ring = RingBuffer(4, 1, policy=OverflowPolicy.BLOCK)
    t, v = _fill(6)
    assert ring.push_block(t, v) == 4
    assert ring.deferred == 2
    assert ring.dropped == 0
    ring.pop_block(2)
    assert ring.push_block(t[4:], v[4:]) == 2


def test_ring_error_policy_raises():
    ring = RingBuffer(4, 1, policy="error")
    ring.push_block(*_fill(3))
    with pytest.raises(TelemetryOverflowError):
        ring.push_block(*_fill(2, start=3))
    assert len(ring) == 3  # nothing was partially staged


def test_ring_high_watermark_tracks_peak():
    ring = RingBuffer(8, 1)
    ring.push_block(*_fill(5))
    ring.pop_block(5)
    ring.push_block(*_fill(3))
    assert ring.high_watermark == 5
    assert ring.counters()["staged"] == 3


def test_ring_word_payload_roundtrip():
    ring = RingBuffer(16, 7)
    bits = np.asarray([[1, 1, 0, 1, 0, 0, 0], [1] * 7], dtype=float)
    ring.push_block(np.array([0.0, 1.0]), bits)
    _, got = ring.pop_block()
    assert np.array_equal(got, bits)


def test_ring_validation():
    with pytest.raises(ConfigurationError):
        RingBuffer(0, 1)
    with pytest.raises(ConfigurationError):
        RingBuffer(4, 0)
    with pytest.raises(ConfigurationError):
        OverflowPolicy.parse("bogus")
    ring = RingBuffer(4, 2)
    with pytest.raises(ConfigurationError):
        ring.push_block(np.zeros(3), np.zeros((3, 1)))


# -- running stats -------------------------------------------------------


def test_running_stats_matches_numpy():
    rng = np.random.default_rng(11)
    xs = rng.normal(1.0, 0.2, size=5000)
    stats = RunningStats()
    stats.update_block(xs[:1700])
    for x in xs[1700:1710]:
        stats.update(float(x))
    stats.update_block(xs[1710:])
    assert stats.count == xs.size
    assert stats.mean == pytest.approx(float(xs.mean()), rel=1e-12)
    assert stats.variance == pytest.approx(
        float(xs.var(ddof=1)), rel=1e-9
    )
    assert stats.minimum == float(xs.min())
    assert stats.maximum == float(xs.max())


def test_running_stats_empty_and_single():
    stats = RunningStats()
    d = stats.as_dict()
    assert d["count"] == 0 and d["mean"] is None
    stats.update(2.5)
    assert stats.mean == 2.5
    assert math.isnan(stats.variance)
    assert stats.as_dict()["variance"] is None


# -- P2 quantiles --------------------------------------------------------


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
def test_p2_quantile_continuous_accuracy(q):
    rng = np.random.default_rng(5)
    xs = rng.normal(0.0, 1.0, size=20_000)
    est = P2Quantile(q)
    est.update_block(xs)
    exact = float(np.quantile(xs, q))
    # P2 on 20k continuous Gaussian samples: a few percent of sigma.
    assert abs(est.value - exact) < 0.05


def test_p2_quantile_small_counts_are_exact():
    est = P2Quantile(0.5)
    assert math.isnan(est.value)
    for x in (5.0, 1.0, 3.0):
        est.update(x)
    assert est.value == 3.0  # exact order statistic below 5 samples


def test_p2_quantile_validation():
    with pytest.raises(ConfigurationError):
        P2Quantile(0.0)
    with pytest.raises(ConfigurationError):
        P2Quantile(1.0)


def test_p2_quantile_quantized_within_one_rung():
    """The documented bound on decoded (discrete) midpoint streams."""
    rng = np.random.default_rng(9)
    levels = np.array([0.83, 0.91, 0.945, 0.976, 1.006, 1.037, 1.053])
    xs = levels[rng.integers(0, levels.size, size=30_000)]
    bound = float(np.max(np.diff(levels)))
    for q in (0.5, 0.99):
        est = P2Quantile(q)
        est.update_block(xs)
        assert abs(est.value - float(np.quantile(xs, q))) <= bound


class _ReferenceP2:
    """The textbook per-sample P² update: the oracle ``update_block``
    must match field for field (heights, positions, desired, count)."""

    def __init__(self, q):
        self.q = float(q)
        self._heights = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2 * q, 1.0 + 4 * q, 3.0 + 2 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def update(self, x):
        self.count += 1
        h = self._heights
        if len(h) < 5:
            h.append(float(x))
            h.sort()
            return
        pos = self._pos
        # Locate the cell containing x and clamp the extreme markers.
        if x < h[0]:
            h[0] = float(x)
            k = 0
        elif x >= h[4]:
            h[4] = float(x)
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired
        # positions, parabolic (P²) when possible, linear otherwise.
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or \
               (d <= -1.0 and pos[i - 1] - pos[i] < -1.0):
                step = 1.0 if d >= 1.0 else -1.0
                cand = self._parabolic(i, step)
                if not h[i - 1] < cand < h[i + 1]:
                    cand = self._linear(i, step)
                h[i] = cand
                pos[i] += step

    def _parabolic(self, i, d):
        h, n = self._heights, self._pos
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i, d):
        h, n = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])


def _p2_state(est):
    return (list(est._heights), list(est._pos), list(est._desired),
            est.count)


def _tie_stream(q, n, seed):
    """Every post-warm-up sample equals one of the current markers."""
    rng = np.random.default_rng(seed)
    ref = _ReferenceP2(q)
    xs = [0.9, 1.1, 1.0, 0.95, 1.05]
    for x in xs:
        ref.update(x)
    while len(xs) < n:
        x = ref._heights[int(rng.integers(5))]
        ref.update(x)
        xs.append(x)
    return np.array(xs)


def _decoded_midpoints(n):
    from repro.core.calibration import paper_design
    from repro.kernels import fused_decode, threshold_grid
    from repro.telemetry import synthetic_droop_trace

    design = paper_design()
    ladder = np.asarray(threshold_grid(design, (3,))[:, 0], dtype=float)
    _, volts, _ = synthetic_droop_trace(
        n_samples=n, dt=1e-9, n_droops=2, depth=0.15,
        noise_rms=5e-3, seed=7,
    )
    return fused_decode(ladder, volts)[3]


def _p2_stream(kind, q, n=3000):
    rng = np.random.default_rng(11)
    if kind == "gaussian":
        # Centred on zero, so an ulp in the parabolic step survives
        # the add to the marker height.
        return rng.normal(0.0, 1.0, size=n)
    if kind == "quantised":
        levels = np.array([0.83, 0.91, 0.945, 0.976, 1.006, 1.037, 1.053])
        return levels[rng.integers(0, levels.size, size=n)]
    if kind == "decoded":
        return _decoded_midpoints(n)
    if kind == "constant":
        return np.full(n, 0.976)
    if kind == "ascending":
        return np.sort(rng.normal(0.0, 1.0, size=n))
    if kind == "descending":
        return np.sort(rng.normal(0.0, 1.0, size=n))[::-1]
    return _tie_stream(q, n, seed=13)


@pytest.mark.parametrize("q", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("kind", ["gaussian", "quantised", "decoded",
                                  "constant", "ascending", "descending",
                                  "ties"])
def test_p2_block_update_is_bit_identical_to_per_sample(kind, q):
    xs = _p2_stream(kind, q)
    ref = _ReferenceP2(q)
    trajectory = []  # reference state after each sample
    for x in xs.tolist():
        ref.update(x)
        trajectory.append(_p2_state(ref))
    # Splits of 3, 5 and 7 also split (or exactly fill) the warm-up;
    # the state must match at every block boundary, not only the end.
    for split in (1, 3, 5, 7, 1024, xs.size):
        est = P2Quantile(q)
        for lo in range(0, xs.size, split):
            est.update_block(xs[lo:lo + split])
            assert _p2_state(est) == trajectory[est.count - 1], split
        assert est.value == ref._heights[2]
    scalar = P2Quantile(q)
    for x in xs.tolist():
        scalar.update(x)
    assert _p2_state(scalar) == trajectory[-1]


def test_p2_block_update_mid_warm_up_state():
    ref, est = _ReferenceP2(0.5), P2Quantile(0.5)
    xs = [3.0, 1.0, 2.0, 5.0, 4.0, 0.5, 6.0]
    for x in xs:
        ref.update(x)
    est.update_block(np.array(xs[:2]))
    assert _p2_state(est)[0] == [1.0, 3.0] and est.count == 2
    est.update_block(np.array(xs[2:6]))  # finishes warm-up, then one
    est.update_block(np.array([]))
    est.update_block(np.array(xs[6:]))
    assert _p2_state(est) == _p2_state(ref)


# -- rung histogram ------------------------------------------------------


def test_rung_histogram_exact_counts():
    hist = RungHistogram(7)
    rng = np.random.default_rng(3)
    ks = rng.integers(0, 8, size=4000)
    bubbles = rng.random(4000) < 0.1
    hist.update_block(ks[:1000], bubbles[:1000])
    hist.update_block(ks[1000:], bubbles[1000:])
    assert np.array_equal(hist.counts, np.bincount(ks, minlength=8))
    assert hist.bubbled == int(bubbles.sum())
    assert hist.total == 4000
    occ = hist.occupancy()
    assert sum(occ) == pytest.approx(1.0)
    assert len(occ) == 8


def test_rung_histogram_validation():
    hist = RungHistogram(3)
    with pytest.raises(ConfigurationError):
        hist.update_block(np.array([4]))
    with pytest.raises(ConfigurationError):
        RungHistogram(0)


# -- EWMA baseline -------------------------------------------------------


def test_ewma_chunk_invariant():
    rng = np.random.default_rng(17)
    xs = rng.normal(1.0, 0.05, size=2000)
    whole = EwmaBaseline(0.02)
    whole.update_block(xs)
    chunked = EwmaBaseline(0.02)
    for lo in range(0, 2000, 173):  # ragged chunking
        chunked.update_block(xs[lo:lo + 173])
    assert whole.value == chunked.value
    scalar = EwmaBaseline(0.02)
    for x in xs:
        scalar.update(float(x))
    assert whole.value == scalar.value


def test_ewma_validation():
    with pytest.raises(ConfigurationError):
        EwmaBaseline(0.0)
    with pytest.raises(ConfigurationError):
        EwmaBaseline(1.5)


# -- droop detector ------------------------------------------------------


def _feed(det, ks, mids=None, t0=0.0):
    ks = np.asarray(ks)
    if mids is None:
        mids = 0.8 + 0.03 * ks.astype(float)
    times = t0 + np.arange(ks.size, dtype=float)
    det.update_block(times, ks, np.asarray(mids, dtype=float))
    return times


def test_detector_basic_episode():
    det = DroopDetector("s", enter_rung=2, exit_rung=5,
                        reference_v=1.0)
    _feed(det, [6, 6, 2, 1, 0, 1, 3, 5, 6, 6])
    det.finalize()
    assert len(det.events) == 1
    e = det.events[0]
    assert e.start == 2.0 and e.end == 6.0  # rung-3 sample still inside
    assert e.n_samples == 5
    assert e.worst_rung == 0
    assert e.depth_v == pytest.approx(1.0 - 0.8)
    assert not e.truncated


def test_detector_hysteresis_prevents_chatter():
    """Rattle between the entry rung and entry+1 must not split."""
    det = DroopDetector("s", enter_rung=2, exit_rung=5,
                        reference_v=1.0)
    _feed(det, [6, 2, 3, 2, 3, 2, 4, 3, 2, 6, 6])
    det.finalize()
    assert len(det.events) == 1
    assert det.events[0].n_samples == 8

    naive_transitions = 0  # what a no-hysteresis detector would emit
    ks = [6, 2, 3, 2, 3, 2, 4, 3, 2, 6, 6]
    for a, b in zip(ks, ks[1:]):
        if a > 2 and b <= 2:
            naive_transitions += 1
    assert naive_transitions > 1


def test_detector_min_duration_discards_glitches():
    det = DroopDetector("s", enter_rung=2, exit_rung=5,
                        reference_v=1.0, min_duration=3)
    _feed(det, [6, 2, 6, 6, 2, 2, 2, 6, 6])
    det.finalize()
    assert len(det.events) == 1
    assert det.events[0].n_samples == 3
    assert det.discarded == 1


def test_detector_refractory_holds_off():
    det = DroopDetector("s", enter_rung=2, exit_rung=5,
                        reference_v=1.0, refractory=4)
    # Second dip falls inside the 4-sample hold-off window.
    _feed(det, [2, 2, 6, 2, 2, 6, 6, 6, 6, 2, 2, 6])
    det.finalize()
    assert len(det.events) == 2
    assert det.events[1].start == 9.0


def test_detector_truncated_episode():
    det = DroopDetector("s", enter_rung=2, exit_rung=5,
                        reference_v=1.0)
    _feed(det, [6, 6, 1, 1])
    det.finalize()
    assert len(det.events) == 1
    assert det.events[0].truncated


def test_detector_worst_word_and_chunk_split():
    det = DroopDetector("s", enter_rung=2, exit_rung=5,
                        reference_v=1.0)
    words = np.zeros((4, 7))
    words[2, :1] = 1  # deepest sample's word: 0000001
    ks = np.array([6, 1, 1, 6])
    mids = np.array([1.0, 0.90, 0.85, 1.0])
    # Split across two blocks mid-episode: state must carry over.
    det.update_block(np.array([0.0, 1.0]), ks[:2], mids[:2],
                     words[:2])
    det.update_block(np.array([2.0, 3.0]), ks[2:], mids[2:],
                     words[2:])
    det.finalize()
    assert len(det.events) == 1
    assert det.events[0].worst_word == "0000001"
    assert det.events[0].worst_v == pytest.approx(0.85)


def _split_detector_trace():
    """Hand-placed episodes, hold-offs and glitches, then a random
    walk; enter 2 / exit 5, min_duration 3, refractory 8."""
    head = ([6] * 5              # 0-4 quiet
            + [2, 1, 0, 1, 2, 3]  # 5-10 episode across the 7 boundary
            + [6, 6, 2]           # 11 closes; 13 rings back in hold-off
            + [6] * 7             # 14-20: a quiet 7-chunk in hold-off
            + [2, 2, 6]           # 21-23 glitch, discarded
            + [6] * 4
            + [1] * 6 + [6]       # 28-34 episode, hold-off to 42
            + [6] * 6)
    rng = np.random.default_rng(21)
    walk = np.clip(6 + np.cumsum(rng.integers(-1, 2, size=3000)), 0, 7)
    return np.concatenate([head, walk, [1, 1, 1, 1]])


def _detector_run(ks, split):
    det = DroopDetector("s", enter_rung=2, exit_rung=5, reference_v=1.0,
                        min_duration=3, refractory=8)
    mids = 0.8 + 0.03 * ks.astype(float)
    words = (np.arange(7)[None, :] < ks[:, None]).astype(np.uint8)
    times = np.arange(ks.size, dtype=float)
    quiet_in_holdoff = 0
    for lo in range(0, ks.size, split):
        sl = slice(lo, lo + split)
        if det._holdoff > 0 and np.all(ks[sl] > 2):
            quiet_in_holdoff += 1
        det.update_block(times[sl], ks[sl], mids[sl], words[sl])
    det.finalize()
    return det, quiet_in_holdoff


def test_detector_any_chunking_gives_the_same_events():
    ks = _split_detector_trace()
    whole, _ = _detector_run(ks, ks.size)
    assert whole.discarded >= 1 and len(whole.events) >= 3
    assert whole.events[0].start == 5.0 and whole.events[0].end == 10.0
    assert whole.events[1].start == 28.0  # 13 fell in the hold-off
    assert whole.events[-1].truncated
    for split in (1, 7, 1024):
        det, quiet_in_holdoff = _detector_run(ks, split)
        assert det.events == whole.events, split
        assert det.discarded == whole.discarded
    # The 7-split covers a quiet chunk while a hold-off is pending.
    assert _detector_run(ks, 7)[1] >= 1


def test_detector_validation():
    with pytest.raises(ConfigurationError):
        DroopDetector("s", enter_rung=3, exit_rung=3, reference_v=1.0)
    with pytest.raises(ConfigurationError):
        DroopDetector("s", enter_rung=-1, exit_rung=2, reference_v=1.0)
    with pytest.raises(ConfigurationError):
        DroopDetector("s", enter_rung=1, exit_rung=3, reference_v=1.0,
                      min_duration=0)
    with pytest.raises(ConfigurationError):
        DroopDetector("s", enter_rung=1, exit_rung=3, reference_v=1.0,
                      refractory=-1)


def test_event_as_dict_is_json_friendly():
    import json

    det = DroopDetector("s", enter_rung=2, exit_rung=5,
                        reference_v=1.0)
    _feed(det, [6, 1, 1, 6])
    det.finalize()
    row = det.events[0].as_dict()
    assert json.loads(json.dumps(row)) == row
