"""``ReplayBackend`` — re-feed a recorded trace, bit-identically.

The replay driver is a strict sequential cursor over a
:class:`~repro.backends.trace.Trace`: every call must match the next
recorded request **exactly** (op, code, levels bit-for-bit, bits, seed
token), and gets the recorded result back, floats untouched.  Any
divergence — reordered calls, a shifted level, a different seed —
raises :class:`~repro.errors.ReplayMismatchError` with the offending
record index, because a campaign that asks different questions than
the trace answered is not a valid regression replay.

This strictness is the point: replaying a committed golden trace
through the current analysis code proves two things at once — the
campaign still *requests* the same measurement sequence, and the
analysis still *derives* the same outputs from the same raw data.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.backends.base import BackendCapabilities, SensorBackend
from repro.backends.trace import (
    Trace,
    floats_equal,
    seed_token,
)
from repro.errors import ReplayMismatchError
from repro.runtime.cache import stable_hash


class ReplayBackend(SensorBackend):
    """Measurement driver fed by a recorded trace.

    Args:
        trace: A loaded :class:`Trace`, or a path to a ``.jsonl`` /
            ``.csv`` trace file.
    """

    id = "replay"

    def __init__(self, trace: "Trace | str | os.PathLike[str]") -> None:
        super().__init__()
        if not isinstance(trace, Trace):
            trace = Trace.load(trace)
        self.trace = trace
        self._cursor = 0

    # -- identity ----------------------------------------------------------

    def engine_version(self) -> tuple[str, ...]:
        # A replay's numbers come from the recorded engine, so its
        # identity folds the recording's fingerprint: replaying a sim
        # trace and a kernel trace are different instruments.
        return super().engine_version() + (
            f"recorded:{self.trace.header.backend}",
            self.trace.header.backend_fingerprint,
        )

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(backend=self.id, thresholds=True,
                                   lot_thresholds=True, s_curve=True,
                                   replay=True)

    # -- cursor ------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True once every recorded op has been replayed."""
        return self._cursor >= len(self.trace.records)

    def rewind(self) -> None:
        """Reset the cursor; the trace can be replayed again."""
        self._cursor = 0

    def _next(self, op: str) -> tuple[int, dict[str, Any]]:
        idx = self._cursor
        if idx >= len(self.trace.records):
            raise ReplayMismatchError(
                f"trace exhausted: campaign requested {op!r} but the "
                f"recording holds only {len(self.trace.records)} ops"
            )
        record = self.trace.records[idx]
        if record["op"] != op:
            raise ReplayMismatchError(
                f"record {idx}: campaign requested {op!r} but the "
                f"recording holds {record['op']!r}"
            )
        self._cursor = idx + 1
        return idx, record

    def _check(self, idx: int, record: Mapping[str, Any],
               key: str, requested: Any) -> None:
        recorded = record.get(key)
        if recorded != requested:
            raise ReplayMismatchError(
                f"record {idx} ({record['op']}): requested {key}="
                f"{requested!r} but the recording holds {recorded!r}"
            )

    # -- replayed ops ------------------------------------------------------

    def configure(self, design, *, rail=None, tech=None) -> None:
        super().configure(design, rail=rail, tech=tech)
        idx, record = self._next("configure")
        self._check(idx, record, "design", stable_hash(design))
        self._check(idx, record, "rail", self.rail.value)
        self._check(idx, record, "tech",
                    "" if tech is None else stable_hash(tech))

    def measure_batch(self, levels: Sequence[float] | np.ndarray, *,
                      code: int) -> np.ndarray:
        from repro.backends.trace import level_array

        v = level_array(levels)
        idx, record = self._next("measure_batch")
        self._check(idx, record, "code", int(code))
        recorded = record["levels"]
        if len(recorded) != v.size or not all(
                floats_equal(float(a), float(b))
                for a, b in zip(recorded, v)):
            raise ReplayMismatchError(
                f"record {idx} (measure_batch): requested levels "
                f"diverge from the recording"
            )
        return np.asarray(record["words"], dtype=np.uint8)

    def bit_thresholds(self, code: int, *,
                       bits: Iterable[int] | None = None
                       ) -> tuple[float, ...]:
        sel = tuple(range(1, self.design.n_bits + 1)) if bits is None \
            else tuple(int(b) for b in bits)
        idx, record = self._next("bit_thresholds")
        self._check(idx, record, "code", int(code))
        self._check(idx, record, "bits", sel)
        return tuple(float(v) for v in record["values"])

    def lot_thresholds(self, lot, code: int) -> np.ndarray:
        idx, record = self._next("lot_thresholds")
        self._check(idx, record, "code", int(code))
        self._check(idx, record, "lot", stable_hash(tuple(lot)))
        return np.asarray(record["table"], dtype=float)

    def s_curve(self, bit: int, *, code: int, noise_rms: float,
                n_per_level: int,
                seed: "int | np.random.SeedSequence",
                span_sigmas: float = 4.0, n_levels: int = 15
                ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        idx, record = self._next("s_curve")
        self._check(idx, record, "code", int(code))
        self._check(idx, record, "bits", (int(bit),))
        self._check(idx, record, "n_per_level", int(n_per_level))
        self._check(idx, record, "n_levels", int(n_levels))
        self._check(idx, record, "seed", seed_token(seed))
        for key, requested in (("noise_rms", noise_rms),
                               ("span_sigmas", span_sigmas)):
            if not floats_equal(float(record[key]), float(requested)):
                raise ReplayMismatchError(
                    f"record {idx} (s_curve): requested {key}="
                    f"{requested!r} but the recording holds "
                    f"{record[key]!r}"
                )
        return (tuple(float(v) for v in record["levels"]),
                tuple(float(p) for p in record["probs"]))
