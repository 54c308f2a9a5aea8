"""``RecordingBackend`` — wrap any driver, transcribe every op.

The recorder is *transparent*: every request passes straight to the
wrapped driver and every result returns unchanged (same objects, same
floats), while a :class:`~repro.backends.trace.TraceWriter` transcribes
the (request, result) pair.  Transparency extends to identity —
:meth:`RecordingBackend.fingerprint` returns the *inner* driver's
fingerprint — so a recorded campaign and a bare one produce identical
cache keys and therefore identical artifacts: recording never changes
what it records.

Designs and corners land in ``configure`` records as environment-free
``stable_hash`` tokens (not the machine-dependent
``design_fingerprint``), so a trace recorded on one platform verifies
on another — the golden-trace CI job depends on this.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.backends.base import (
    BackendCapabilities,
    SensorBackend,
)
from repro.backends.trace import (
    Trace,
    TraceHeader,
    TraceWriter,
    TRACE_SCHEMA,
    seed_token,
)
from repro.runtime.cache import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.calibration import SensorDesign
    from repro.core.sensor import SenseRail
    from repro.devices.technology import Technology
    from repro.devices.variation import VariationSample


def _tech_token(tech: "Technology | None") -> str:
    return "" if tech is None else stable_hash(tech)


class RecordingBackend(SensorBackend):
    """Transcribing decorator around any :class:`SensorBackend`.

    Args:
        inner: The driver doing the actual measuring.
        path: Trace destination (``.jsonl``/``.csv``); ``None`` keeps
            the trace in memory only (read it via :attr:`trace`).
        fmt: Override the suffix-derived format.
        note: Free-form campaign label for the trace header.
    """

    id = "recording"

    def __init__(self, inner: SensorBackend,
                 path: str | os.PathLike[str] | None = None, *,
                 fmt: str | None = None, note: str = "") -> None:
        super().__init__()
        from repro.kernels.montecarlo import MC_SEED_SCHEME

        self.inner = inner
        self.writer = TraceWriter(
            TraceHeader(
                schema=TRACE_SCHEMA,
                backend=inner.id,
                backend_fingerprint=inner.fingerprint(),
                seed_scheme=MC_SEED_SCHEME,
                note=note,
            ),
            path, fmt=fmt,
        )

    # -- trace access ------------------------------------------------------

    @property
    def trace(self) -> Trace:
        """The transcript so far (shared with the streaming writer)."""
        return self.writer.trace

    def close(self) -> None:
        self.writer.close()

    def __enter__(self) -> "RecordingBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- transparent identity ----------------------------------------------

    def fingerprint(self) -> str:
        return self.inner.fingerprint()

    def engine_version(self) -> tuple[str, ...]:
        return self.inner.engine_version()

    def capabilities(self) -> BackendCapabilities:
        return self.inner.capabilities()

    # -- transcribed ops ---------------------------------------------------

    def configure(self, design: "SensorDesign", *,
                  rail: "SenseRail | None" = None,
                  tech: "Technology | None" = None) -> None:
        super().configure(design, rail=rail, tech=tech)
        self.inner.configure(design, rail=self.rail, tech=tech)
        self.writer.record({
            "op": "configure",
            "design": stable_hash(design),
            "rail": self.rail.value,
            "tech": _tech_token(tech),
        })

    def measure_batch(self, levels: Sequence[float] | np.ndarray, *,
                      code: int) -> np.ndarray:
        words = self.inner.measure_batch(levels, code=code)
        self.writer.record({
            "op": "measure_batch",
            "code": int(code),
            "levels": [float(v) for v in np.asarray(levels,
                                                    dtype=float)],
            "words": [tuple(int(b) for b in row) for row in words],
        })
        return words

    def bit_thresholds(self, code: int, *,
                       bits: Iterable[int] | None = None
                       ) -> tuple[float, ...]:
        values = self.inner.bit_thresholds(code, bits=bits)
        sel = tuple(range(1, self.design.n_bits + 1)) if bits is None \
            else tuple(int(b) for b in bits)
        self.writer.record({
            "op": "bit_thresholds",
            "code": int(code),
            "bits": sel,
            "values": [float(v) for v in values],
        })
        return values

    def lot_thresholds(self, lot: Sequence["VariationSample"],
                       code: int) -> np.ndarray:
        table = self.inner.lot_thresholds(lot, code)
        self.writer.record({
            "op": "lot_thresholds",
            "code": int(code),
            "lot": stable_hash(tuple(lot)),
            "table": [[float(v) for v in row] for row in table],
        })
        return table

    def s_curve(self, bit: int, *, code: int, noise_rms: float,
                n_per_level: int,
                seed: "int | np.random.SeedSequence",
                span_sigmas: float = 4.0, n_levels: int = 15
                ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        levels, probs = self.inner.s_curve(
            bit, code=code, noise_rms=noise_rms,
            n_per_level=n_per_level, seed=seed,
            span_sigmas=span_sigmas, n_levels=n_levels,
        )
        self.writer.record({
            "op": "s_curve",
            "code": int(code),
            "bits": (int(bit),),
            "noise_rms": float(noise_rms),
            "span_sigmas": float(span_sigmas),
            "n_per_level": int(n_per_level),
            "n_levels": int(n_levels),
            "seed": seed_token(seed),
            "levels": list(levels),
            "probs": list(probs),
        })
        return levels, probs
