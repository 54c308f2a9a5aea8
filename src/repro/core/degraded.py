"""Degraded-mode decoding: measure around known-bad stages.

The paper pitches the sensor for *systematic* deployment — dozens of
arrays spread across a die, screened in production like scan chains.
At that scale some stages **will** fail screening, and discarding a
whole array over one stuck stage throws away six good comparators.
This module implements the graceful alternative: mask the stages
:func:`repro.core.faults.screen_suspects` implicated, drop their rungs
from the threshold ladder, and decode the surviving bits as a
*shorter* thermometer.

The physics cooperates: each stage is an independent comparator
against its own threshold, so removing one simply merges its two
adjacent decode intervals.  The decoded range stays **correct** — the
rail really is inside it — it is just *wider* where the dead rung
used to split it.  :class:`DegradedDecode` reports that widening
explicitly (``resolution`` vs ``full_resolution``, ``uncertainty``),
so downstream consumers can weight or reject degraded readings
instead of trusting a silently wrong word.

Typical flow::

    suspects = screen_suspects(injector, code=code)
    degraded = DegradedArray(design, masked_bits=suspects)
    reading = degraded.decode(raw_word, code)   # raises nothing for
                                                # faults already masked
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.thermometer import (
    ThermometerWord,
    VoltageRange,
    decode_word,
)
from repro.core.array import SensorArray
from repro.core.calibration import SensorDesign
from repro.core.sensor import SenseRail
from repro.devices.technology import Technology
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DegradedDecode:
    """One masked-decode result, with its resolution loss made explicit.

    Attributes:
        word: The reduced word (surviving stages only, bit order
            preserved, MSB-first string).
        decoded: The measured-rail voltage range the surviving stages
            imply.  Correct but wider than a full-array decode
            wherever a masked rung used to subdivide it.
        masked_bits: 1-based stages excluded from the decode.
        resolution: Number of stages that contributed (decode levels
            minus one).
        full_resolution: Stage count of the healthy array.
        uncertainty: Width of ``decoded``, volts; ``inf`` when the
            reading pinned at an open ladder end.
    """

    word: str
    decoded: VoltageRange
    masked_bits: tuple[int, ...]
    resolution: int
    full_resolution: int
    uncertainty: float

    @property
    def degraded(self) -> bool:
        return self.resolution < self.full_resolution


class DegradedArray:
    """A :class:`~repro.core.array.SensorArray` with stages masked out.

    Args:
        design: Calibrated sensor design.
        masked_bits: 1-based stages to exclude (from
            :func:`~repro.core.faults.screen_suspects`); may be empty,
            in which case decoding matches the full array exactly.
        rail: VDD or GND array.
        tech: Corner technology override.

    Raises:
        ConfigurationError: a masked bit outside ``1..n_bits``, or
            every stage masked (nothing left to decode).
    """

    def __init__(self, design: SensorDesign,
                 masked_bits: Iterable[int] = (),
                 rail: SenseRail = SenseRail.VDD,
                 tech: Technology | None = None) -> None:
        masked = tuple(sorted(set(int(b) for b in masked_bits)))
        for b in masked:
            if not 1 <= b <= design.n_bits:
                raise ConfigurationError(
                    f"masked bit {b} outside 1..{design.n_bits}"
                )
        if len(masked) >= design.n_bits:
            raise ConfigurationError(
                f"all {design.n_bits} stages masked; nothing to decode"
            )
        self.design = design
        self.rail = rail
        self.tech = tech
        self.masked_bits = masked
        self.array = SensorArray(design, rail, tech)

    @classmethod
    def from_screen(cls, injector, *, code: int = 3,
                    margin: float = 0.05) -> "DegradedArray":
        """Build directly from a production screen of ``injector``.

        Runs :func:`~repro.core.faults.screen_suspects` and masks
        whatever it implicates.
        """
        from repro.core.faults import screen_suspects

        suspects = screen_suspects(injector, code=code, margin=margin)
        return cls(injector.design, suspects, injector.rail,
                   getattr(injector.harness, "tech", None))

    # -- structure ---------------------------------------------------------

    @property
    def n_bits(self) -> int:
        """Surviving stage count."""
        return self.design.n_bits - len(self.masked_bits)

    @property
    def surviving_bits(self) -> tuple[int, ...]:
        """1-based stages that still contribute, ascending."""
        dead = set(self.masked_bits)
        return tuple(b for b in range(1, self.design.n_bits + 1)
                     if b not in dead)

    def supply_thresholds(self, code: int) -> tuple[float, ...]:
        """Surviving rungs of the effective-supply ladder, ascending.

        A slice of the full array's once-solved ladder
        (:meth:`SensorArray.supply_thresholds`); solver batch invariance
        makes it bit-identical to solving the surviving bits alone.
        """
        ladder = self.array.supply_thresholds(code)
        return tuple(ladder[b - 1] for b in self.surviving_bits)

    def reduce_word(self, word: ThermometerWord) -> ThermometerWord:
        """Project a full-array word onto the surviving stages.

        Masked positions are dropped outright — their sampled values
        are untrusted by construction, whatever they read.
        """
        if word.n_bits != self.design.n_bits:
            raise ConfigurationError(
                f"word has {word.n_bits} bits; array has "
                f"{self.design.n_bits}"
            )
        return ThermometerWord(
            tuple(word.bits[b - 1] for b in self.surviving_bits)
        )

    # -- decoding ----------------------------------------------------------

    def decode(self, word: ThermometerWord, code: int, *,
               strict: bool = False) -> DegradedDecode:
        """Decode a full-array word with the masked stages excluded.

        A word that bubbles only *because of* a masked stage decodes
        cleanly here — the offending bit never reaches the ladder.
        Residual bubbles among the surviving stages are bubble-
        corrected by default (``strict=False``): a degraded decode
        exists to keep measuring, not to re-raise.

        Args:
            word: The raw N-bit word as sampled (masked bits included).
            code: Delay code the word was taken under.
            strict: Forwarded to the underlying decoder for the
                *reduced* word.

        Returns:
            A :class:`DegradedDecode` in measured-rail terms (VDD-n
            volts for the VDD rail, GND-n rise for the GND rail).
        """
        reduced = self.reduce_word(word)
        supply_range = decode_word(
            reduced, self.supply_thresholds(code), strict=strict
        )
        if self.rail is SenseRail.VDD:
            decoded = supply_range
        else:
            nominal = self.design.tech.vdd_nominal
            decoded = VoltageRange(lo=nominal - supply_range.hi,
                                   hi=nominal - supply_range.lo)
        return DegradedDecode(
            word=reduced.to_string(),
            decoded=decoded,
            masked_bits=self.masked_bits,
            resolution=self.n_bits,
            full_resolution=self.design.n_bits,
            uncertainty=decoded.width,
        )

    def measure(self, code: int, *, vdd_n: float | None = None,
                gnd_n: float | None = None) -> DegradedDecode:
        """Analytic masked measurement at a static rail level.

        The underlying full array is measured (faulty stages and all —
        this is the analytic path, so "faulty" means "untrusted", not
        mis-modelled) and the word is masked-decoded.
        """
        full = self.array.measure(code, vdd_n=vdd_n, gnd_n=gnd_n)
        return self.decode(full.word, code)


def degraded_from_screen(injector, *, code: int = 3,
                         margin: float = 0.05) -> DegradedArray:
    """Function-style alias of :meth:`DegradedArray.from_screen`."""
    return DegradedArray.from_screen(injector, code=code, margin=margin)
