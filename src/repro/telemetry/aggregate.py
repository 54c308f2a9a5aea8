"""Bounded-memory online aggregators for telemetry streams.

Every aggregator here holds O(1) state no matter how many samples flow
through it — that is the whole point of the streaming layer.  Accuracy
contracts, per aggregator:

* :class:`RunningStats` — count/min/max exact; mean and (sample)
  variance via Welford's update with Chan's pairwise merge for block
  input, numerically stable for arbitrarily long streams.  Block
  merging changes rounding at the last-ulp level versus a per-sample
  loop; min/max/count are unaffected.
* :class:`P2Quantile` — the Jain/Chlamtac P² algorithm: five markers
  updated with parabolic interpolation, no sample retention.  On
  continuous unimodal data the estimate typically lands within a
  fraction of a percent of the exact order statistic; on *quantized*
  data (decoded rung midpoints take at most ``n_bits + 1`` distinct
  values) the guarantee telemetry relies on — and the test suite
  enforces — is one quantization step: ``|P² - np.quantile| <= `` the
  widest interior decode interval of the ladder.  One block update
  is a single pass that gives the same markers, bit for bit, as
  feeding the block one sample at a time, so any chunking of a stream
  yields the same estimate.
* :class:`RungHistogram` — exact per-rung occupancy counts (plus
  bubble tally); counts are the sufficient statistic for any later
  exact quantile of the *rung* distribution.
* :class:`EwmaBaseline` — exponentially weighted moving average,
  updated strictly per-sample (sequentially inside block updates) so
  the value is independent of how the stream was chunked.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError


class RunningStats:
    """Welford/Chan online count, min, max, mean and variance."""

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def update(self, x: float) -> None:
        """One sample (Welford's update)."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def update_block(self, xs: np.ndarray) -> None:
        """A block of samples via Chan's parallel-variance merge."""
        xs = np.asarray(xs, dtype=float).ravel()
        n = xs.size
        if n == 0:
            return
        b_mean = float(xs.mean())
        b_m2 = float(np.sum(np.square(xs - b_mean)))
        delta = b_mean - self.mean
        total = self.count + n
        self.mean += delta * n / total
        self._m2 += b_m2 + delta * delta * self.count * n / total
        self.count = total
        b_min = float(xs.min())
        b_max = float(xs.max())
        if b_min < self.minimum:
            self.minimum = b_min
        if b_max > self.maximum:
            self.maximum = b_max

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN below two samples)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    def as_dict(self) -> dict[str, float | int | None]:
        """JSON-friendly summary (None where undefined)."""
        empty = self.count == 0
        var = self.variance
        return {
            "count": self.count,
            "mean": None if empty else self.mean,
            "min": None if empty else self.minimum,
            "max": None if empty else self.maximum,
            "variance": None if var != var else var,
            "std": None if var != var else math.sqrt(var),
        }


class P2Quantile:
    """Streaming quantile estimation — Jain & Chlamtac's P² algorithm.

    Args:
        q: Target quantile in (0, 1).

    Holds exactly five markers (heights + positions); the first five
    samples are stored verbatim, after which every update is O(1).
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigurationError(f"quantile {q} outside (0, 1)")
        self.q = float(q)
        self._heights: list[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2 * q, 1.0 + 4 * q, 3.0 + 2 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def update(self, x: float) -> None:
        """One sample; the same pass as :meth:`update_block`."""
        self.update_block((x,))

    def update_block(self, xs: np.ndarray) -> None:
        """Fold a block of samples in one pass.

        Every sample takes the same steps, in the same floating-point
        operation order, as the textbook per-sample update, so any
        split of a stream into blocks gives bit-identical markers.
        Per sample: locate the cell holding ``x`` (clamping the end
        markers), shift the positions above it, advance the desired
        positions, then move interior markers 1, 2, 3 in turn one
        step toward their desired positions, parabolically (P²) when
        that stays between the neighbours, linearly otherwise.
        """
        xs = np.asarray(xs, dtype=float).ravel().tolist()
        n = len(xs)
        if n == 0:
            return
        self.count += n
        h = self._heights
        start = min(5 - len(h), n)
        if start > 0:
            # Warm-up: the first five samples are the markers, sorted.
            h.extend(xs[:start])
            h.sort()
            if len(h) < 5:
                return
        h0, h1, h2, h3, h4 = h
        p0, p1, p2, p3, p4 = self._pos
        d1, d2, d3 = self._desired[1:4]
        _, i1, i2, i3, _ = self._increments
        for x in xs[start:]:
            if x < h0:
                h0 = x
                p1 += 1.0
                p2 += 1.0
                p3 += 1.0
            elif x >= h4:
                h4 = x
            elif not x >= h1:
                p1 += 1.0
                p2 += 1.0
                p3 += 1.0
            elif not x >= h2:
                p2 += 1.0
                p3 += 1.0
            elif not x >= h3:
                p3 += 1.0
            p4 += 1.0
            d1 += i1
            d2 += i2
            d3 += i3
            # Marker 1.
            d = d1 - p1
            if (d >= 1.0 and p2 - p1 > 1.0) or \
               (d <= -1.0 and p0 - p1 < -1.0):
                s = 1.0 if d >= 1.0 else -1.0
                c = h1 + s / (p2 - p0) * (
                    (p1 - p0 + s) * (h2 - h1) / (p2 - p1)
                    + (p2 - p1 - s) * (h1 - h0) / (p1 - p0)
                )
                if not h0 < c < h2:
                    if s > 0.0:
                        c = h1 + s * (h2 - h1) / (p2 - p1)
                    else:
                        c = h1 + s * (h0 - h1) / (p0 - p1)
                h1 = c
                p1 += s
            # Marker 2 (sees marker 1's new height and position).
            d = d2 - p2
            if (d >= 1.0 and p3 - p2 > 1.0) or \
               (d <= -1.0 and p1 - p2 < -1.0):
                s = 1.0 if d >= 1.0 else -1.0
                c = h2 + s / (p3 - p1) * (
                    (p2 - p1 + s) * (h3 - h2) / (p3 - p2)
                    + (p3 - p2 - s) * (h2 - h1) / (p2 - p1)
                )
                if not h1 < c < h3:
                    if s > 0.0:
                        c = h2 + s * (h3 - h2) / (p3 - p2)
                    else:
                        c = h2 + s * (h1 - h2) / (p1 - p2)
                h2 = c
                p2 += s
            # Marker 3.
            d = d3 - p3
            if (d >= 1.0 and p4 - p3 > 1.0) or \
               (d <= -1.0 and p2 - p3 < -1.0):
                s = 1.0 if d >= 1.0 else -1.0
                c = h3 + s / (p4 - p2) * (
                    (p3 - p2 + s) * (h4 - h3) / (p4 - p3)
                    + (p4 - p3 - s) * (h3 - h2) / (p3 - p2)
                )
                if not h2 < c < h4:
                    if s > 0.0:
                        c = h3 + s * (h4 - h3) / (p4 - p3)
                    else:
                        c = h3 + s * (h2 - h3) / (p2 - p3)
                h3 = c
                p3 += s
        h[:] = (h0, h1, h2, h3, h4)
        self._pos = [p0, p1, p2, p3, p4]
        # Desired 0 and 4 step by the exact constants 0 and 1, so one
        # step per block equals the per-sample sum.
        self._desired[1:] = [d1, d2, d3, self._desired[4] + (n - start)]

    @property
    def value(self) -> float:
        """Current estimate (NaN before any sample).

        Below five samples this is the exact order statistic of what
        was seen; afterwards the P² center-marker height.
        """
        h = self._heights
        if not h:
            return math.nan
        if len(h) < 5 or self.count <= 5:
            rank = self.q * (len(h) - 1)
            lo = int(math.floor(rank))
            hi = min(lo + 1, len(h) - 1)
            return h[lo] + (rank - lo) * (h[hi] - h[lo])
        return h[2]


class RungHistogram:
    """Exact occupancy counts per thermometer rung (ones count).

    Args:
        n_bits: Array width; rungs run 0..n_bits inclusive.
    """

    def __init__(self, n_bits: int) -> None:
        if n_bits < 1:
            raise ConfigurationError("n_bits must be at least 1")
        self.n_bits = int(n_bits)
        self.counts = np.zeros(self.n_bits + 1, dtype=np.int64)
        self.bubbled = 0

    def update_block(self, ks: np.ndarray,
                     bubbles: np.ndarray | None = None) -> None:
        """Tally a block of ones counts (and optional bubble flags)."""
        ks = np.asarray(ks, dtype=np.int64).ravel()
        if ks.size == 0:
            return
        if ks.min() < 0 or ks.max() > self.n_bits:
            raise ConfigurationError(
                f"ones count outside 0..{self.n_bits}"
            )
        self.counts += np.bincount(ks, minlength=self.n_bits + 1)
        if bubbles is not None:
            self.bubbled += int(np.count_nonzero(bubbles))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def occupancy(self) -> list[float]:
        """Per-rung sample fractions (all zeros when empty)."""
        t = self.total
        if t == 0:
            return [0.0] * (self.n_bits + 1)
        return [float(c) / t for c in self.counts]

    def as_dict(self) -> dict[str, object]:
        return {
            "counts": [int(c) for c in self.counts],
            "occupancy": self.occupancy(),
            "bubbled": self.bubbled,
        }


class EwmaBaseline:
    """Exponentially weighted moving average of the decoded rail.

    Args:
        alpha: Smoothing factor in (0, 1]; higher tracks faster.

    The update is strictly sequential (``v = (1-a) v + a x`` per
    sample), so the baseline does not depend on the chunk size the
    stream happened to arrive in.
    """

    def __init__(self, alpha: float = 0.01) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha {alpha} outside (0, 1]")
        self.alpha = float(alpha)
        self.value = math.nan
        self.count = 0

    def update(self, x: float) -> None:
        if self.count == 0:
            self.value = float(x)
        else:
            self.value += self.alpha * (x - self.value)
        self.count += 1

    def update_block(self, xs: np.ndarray) -> None:
        xs = np.asarray(xs, dtype=float).ravel()
        if xs.size == 0:
            return
        a = self.alpha
        v = float(xs[0]) if self.count == 0 else self.value
        start = 1 if self.count == 0 else 0
        for x in xs[start:].tolist():
            v += a * (x - v)
        self.value = v
        self.count += xs.size
