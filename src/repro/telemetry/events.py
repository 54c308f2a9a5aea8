"""Online droop-episode detection with hysteresis.

A droop *episode* is a contiguous run of samples whose thermometer
reading sits at or below an entry rung; the paper's droop waveforms
ring back through the rung boundary, so a naive single-threshold
detector chatters — one physical droop becomes many events.  The
detector therefore uses the classic hysteresis pair:

* **enter** when the ones count drops to ``enter_rung`` or below;
* **exit** only when it recovers to ``exit_rung`` or above
  (``exit_rung > enter_rung``), so rattling on the entry boundary
  never splits an episode;
* episodes shorter than ``min_duration`` samples are discarded as
  glitches;
* after an episode closes, ``refractory`` samples must elapse before a
  new one may open — ring-back below the entry rung inside that window
  extends nothing and creates nothing.

State per site is O(1); events are emitted as immutable
:class:`DroopEvent` records the pipeline collects and exports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DroopEvent:
    """One detected droop episode.

    Attributes:
        site: Originating sensor site label.
        start: Time of the first in-episode sample, seconds.
        end: Time of the last in-episode sample, seconds.
        n_samples: Samples spent inside the episode.
        depth_v: Reference level minus the deepest decoded voltage
            seen during the episode, volts (>= 0 for real droops).
        worst_v: The deepest decoded voltage itself, volts.
        worst_rung: Lowest ones count reached.
        worst_word: MSB-first word string of the deepest sample
            ("" when the stream carried no word payload).
        truncated: True when the stream ended mid-episode.
    """

    site: str
    start: float
    end: float
    n_samples: int
    depth_v: float
    worst_v: float
    worst_rung: int
    worst_word: str
    truncated: bool = False

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable record (JSONL export row)."""
        return {
            "site": self.site,
            "start": self.start,
            "end": self.end,
            "n_samples": self.n_samples,
            "depth_v": self.depth_v,
            "worst_v": self.worst_v,
            "worst_rung": self.worst_rung,
            "worst_word": self.worst_word,
            "truncated": self.truncated,
        }


class DroopDetector:
    """Per-site hysteresis droop detector.

    Args:
        site: Site label stamped on emitted events.
        enter_rung: Ones count at or below which an episode opens.
        exit_rung: Ones count at or above which it closes; must
            exceed ``enter_rung`` (that gap *is* the hysteresis).
        reference_v: Level droop depth is measured from (e.g. the
            nominal rail), volts.
        min_duration: Minimum in-episode samples for a real event.
        refractory: Samples to hold off after a close before a new
            episode may open.
    """

    def __init__(self, site: str, *, enter_rung: int, exit_rung: int,
                 reference_v: float, min_duration: int = 1,
                 refractory: int = 0) -> None:
        if enter_rung < 0:
            raise ConfigurationError("enter_rung must be >= 0")
        if exit_rung <= enter_rung:
            raise ConfigurationError(
                f"exit_rung ({exit_rung}) must exceed enter_rung "
                f"({enter_rung}) — the gap is the hysteresis"
            )
        if min_duration < 1:
            raise ConfigurationError("min_duration must be >= 1")
        if refractory < 0:
            raise ConfigurationError("refractory must be >= 0")
        self.site = site
        self.enter_rung = int(enter_rung)
        self.exit_rung = int(exit_rung)
        self.reference_v = float(reference_v)
        self.min_duration = int(min_duration)
        self.refractory = int(refractory)
        self.events: list[DroopEvent] = []
        self.discarded = 0  # sub-min_duration episodes dropped
        self._in_episode = False
        self._holdoff = 0
        self._start = math.nan
        self._end = math.nan
        self._n = 0
        self._worst_v = math.inf
        self._worst_rung = 0
        self._worst_word = ""

    @property
    def in_episode(self) -> bool:
        """True while an episode is currently open.  The pipeline's
        fused voltage decode uses this to skip synthesizing word
        payloads for chunks that cannot touch an episode."""
        return self._in_episode

    def _close(self, truncated: bool) -> None:
        if self._n >= self.min_duration:
            self.events.append(DroopEvent(
                site=self.site,
                start=self._start,
                end=self._end,
                n_samples=self._n,
                depth_v=self.reference_v - self._worst_v,
                worst_v=self._worst_v,
                worst_rung=self._worst_rung,
                worst_word=self._worst_word,
                truncated=truncated,
            ))
            self._holdoff = self.refractory
        else:
            self.discarded += 1
        self._in_episode = False
        self._n = 0
        self._worst_v = math.inf

    def update_block(self, times: np.ndarray, ks: np.ndarray,
                     mids: np.ndarray,
                     words: np.ndarray | None = None, *,
                     entering: bool | None = None) -> None:
        """Feed a decoded chunk (times, ones counts, midpoints).

        ``words`` is an optional ``(n, n_bits)`` 0/1 array (bit 1
        first); only the deepest sample's word is ever stringified.
        ``entering`` is whether any ``ks <= enter_rung``; a caller
        that already tested that passes it, else it is computed here.
        On a quiet chunk (no episode open and nothing at or below the
        entry rung) the per-sample loop would only count down the
        hold-off, so that is done in one step instead.
        """
        if not self._in_episode:
            if entering is None:
                entering = bool(np.any(np.asarray(ks) <= self.enter_rung))
            if not entering:
                self._holdoff = max(0, self._holdoff - len(ks))
                return
        t_list = np.asarray(times, dtype=float).tolist()
        k_list = np.asarray(ks, dtype=np.int64).tolist()
        m_list = np.asarray(mids, dtype=float).tolist()
        for i, (t, k, v) in enumerate(zip(t_list, k_list, m_list)):
            if self._in_episode:
                if k >= self.exit_rung:
                    # The recovered sample is *not* part of the episode.
                    self._close(truncated=False)
                    continue
                self._end = t
                self._n += 1
                if v < self._worst_v:
                    self._worst_v = v
                    self._worst_rung = k
                    if words is not None:
                        self._worst_word = "".join(
                            str(int(b)) for b in words[i][::-1]
                        )
            else:
                if self._holdoff > 0:
                    self._holdoff -= 1
                    continue
                if k <= self.enter_rung:
                    self._in_episode = True
                    self._start = t
                    self._end = t
                    self._n = 1
                    self._worst_v = v
                    self._worst_rung = k
                    self._worst_word = ""
                    if words is not None:
                        self._worst_word = "".join(
                            str(int(b)) for b in words[i][::-1]
                        )

    def finalize(self) -> None:
        """Close an episode left open at end of stream (truncated)."""
        if self._in_episode:
            self._close(truncated=True)
