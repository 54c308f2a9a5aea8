"""Per-die calibrated decoding.

The yield study (:mod:`repro.analysis.yield_study`) shows the problem:
inter-die variation shifts the whole threshold ladder, so decoding a
fabricated die's words against the *design* ladder mis-brackets a large
fraction of readings.  The paper's remedy is §III-A's "careful
characterization of the sensor in such condition".

:class:`MeasuredDecoder` is that remedy as an object: a decoder bound
to a ladder *measured on the die itself* — from tester S-curves
(:func:`from_s_curves`), from bisected event-driven screening
(:func:`from_bisection`), or from any externally supplied ladder (e.g.
a corner model).  It decodes words exactly like
:class:`~repro.core.array.SensorArray` but against the measured rungs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.thermometer import (
    ThermometerWord,
    VoltageRange,
    decode_word,
)
from repro.core.calibration import SensorDesign
from repro.devices.technology import Technology
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MeasuredDecoder:
    """A decoder bound to a characterized threshold ladder.

    Attributes:
        ladder: Ascending measured thresholds, volts.
        code: The delay code the ladder was characterized at.
        source: Human-readable provenance ("s-curve", "bisection",
            "corner-model", ...).
    """

    ladder: tuple[float, ...]
    code: int
    source: str = "external"

    def __post_init__(self) -> None:
        if len(self.ladder) < 2:
            raise ConfigurationError("ladder needs at least 2 rungs")
        if np.any(np.diff(self.ladder) <= 0):
            raise ConfigurationError("ladder must be strictly ascending")
        if not 0 <= self.code < 8:
            raise ConfigurationError("code outside 0..7")

    @property
    def n_bits(self) -> int:
        return len(self.ladder)

    def decode(self, word: ThermometerWord, *,
               strict: bool = False) -> VoltageRange:
        """Word -> supply range against the measured ladder."""
        return decode_word(word, self.ladder, strict=strict)

    def measurable_range(self) -> tuple[float, float]:
        return self.ladder[0], self.ladder[-1]

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_s_curves(cls, design: SensorDesign, *,
                      code: int = 3,
                      noise_rms: float = 5e-3,
                      n_per_level: int = 150,
                      seed: int = 13) -> "MeasuredDecoder":
        """Extract the ladder with the tester S-curve flow.

        Purely digital pass/fail statistics at known applied levels —
        see :func:`repro.analysis.repeatability.extract_ladder_via_s_curves`.
        """
        from repro.analysis.repeatability import (
            extract_ladder_via_s_curves,
        )

        fits = extract_ladder_via_s_curves(
            design, code=code, noise_rms=noise_rms,
            n_per_level=n_per_level, seed=seed,
        )
        return cls(
            ladder=tuple(f.threshold for f in fits),
            code=code,
            source="s-curve",
        )

    @classmethod
    def from_bisection(cls, design: SensorDesign, *,
                       code: int = 3,
                       tech: Technology | None = None,
                       tol: float = 0.5e-3) -> "MeasuredDecoder":
        """Extract the ladder by bisecting the event-driven harness.

        The noiseless tester flow: apply static levels, bisect each
        stage's pass/fail boundary.  ``tech`` selects the (possibly
        corner/die-shifted) silicon being characterized.
        """
        from repro.core.characterization import (
            characterize_bit_thresholds,
        )

        ladder = characterize_bit_thresholds(
            design, code, tech=tech, backend="sim", tol=tol,
        )
        return cls(ladder=tuple(ladder), code=code, source="bisection")

    @classmethod
    def from_design(cls, design: SensorDesign, *,
                    code: int = 3,
                    tech: Technology | None = None) -> "MeasuredDecoder":
        """The analytic (model) ladder — the uncalibrated reference."""
        ladder = tuple(
            design.bit_threshold(b, code, tech)
            for b in range(1, design.n_bits + 1)
        )
        return cls(ladder=ladder, code=code, source="design-model")
