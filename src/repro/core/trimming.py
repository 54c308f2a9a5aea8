"""Process-variation-aware delay-code trimming (§III-A).

The paper's compensation story: the multibit characteristic shifts with
process corner, and because the P/CP skew is programmable, "a variation
of P and CP, conveniently trimmed, allows ... to compensate the
different sensor behavior in presence of process variations (of course
having as an input an information on the process corner and having a
careful characterization of the sensor in such condition)".

:class:`TrimmingPolicy` is exactly that: characterize the array per
corner, then pick the delay code whose measurable range best matches a
reference (typical-corner) range.

Note on direction: in this reproduction's symmetric model the PG delay
line, CP route and FF slow down *with* the sensor inverter at a slow
corner, so the drive-strength part of the corner cancels and only the
threshold-voltage shift moves the characteristic.  The paper (whose
blocks need not track perfectly) quotes the slow-corner shift as
"threshold value is lower"; the compensation mechanism — re-choosing
the code — is identical in either direction, and the benches report the
measured shifts explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.calibration import SensorDesign
from repro.devices.corners import ProcessCorner
from repro.devices.technology import Technology
from repro.errors import ConfigurationError
from repro.kernels import ladders


@dataclass(frozen=True)
class TrimResult:
    """Outcome of retrimming one corner.

    Attributes:
        corner_name: The corner that was characterized.
        reference_code: The code whose typical-corner range is the
            target.
        reference_range: (v_min, v_max) of the target characteristic.
        chosen_code: The code selected for the corner.
        corner_ranges: Per-code (v_min, v_max) at the corner.
        achieved_range: The chosen code's range at the corner.
        residual: Sum of absolute endpoint mismatches after trimming, V.
        untrimmed_residual: The mismatch had the reference code been
            kept — the error trimming removed.
    """

    corner_name: str
    reference_code: int
    reference_range: tuple[float, float]
    chosen_code: int
    corner_ranges: tuple[tuple[float, float], ...]
    achieved_range: tuple[float, float]
    residual: float
    untrimmed_residual: float

    @property
    def improved(self) -> bool:
        """True when trimming strictly reduced the range mismatch."""
        return self.residual < self.untrimmed_residual or \
            self.chosen_code == self.reference_code


class TrimmingPolicy:
    """Chooses delay codes to restore a reference characteristic.

    Args:
        design: Calibrated design.
        reference_code: Code defining the target range at the design
            (typical) technology; the paper's running example is 011.
        pg_tracks_corner: When True (default), the PG/route/FF window
            is built on-die and slows with the corner, so the drive
            part of the shift cancels and only the Vth part remains —
            a sub-code shift at the standard corners.  When False, the
            window is referenced to an external (design-value) timing
            source, the full corner shift lands on the sensor inverter,
            and retrimming moves whole codes.
    """

    def __init__(self, design: SensorDesign,
                 reference_code: int = 3, *,
                 pg_tracks_corner: bool = True) -> None:
        if not 0 <= reference_code < 8:
            raise ConfigurationError("reference_code outside 0..7")
        self.design = design
        self.reference_code = reference_code
        self.pg_tracks_corner = pg_tracks_corner
        self.reference_range = self._range(design.tech, reference_code)

    def _range(self, tech: Technology, code: int
               ) -> tuple[float, float]:
        window_tech = None if self.pg_tracks_corner else self.design.tech
        return (
            ladders.bit_threshold(self.design, 1, code, tech,
                                  window_tech=window_tech),
            ladders.bit_threshold(self.design, self.design.n_bits, code,
                                  tech, window_tech=window_tech),
        )

    @staticmethod
    def _mismatch(a: tuple[float, float],
                  b: tuple[float, float]) -> float:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def choose_code(self, tech: Technology) -> int:
        """The code whose corner range best matches the reference."""
        ranges = [self._range(tech, c) for c in range(8)]
        return min(
            range(8),
            key=lambda c: self._mismatch(ranges[c], self.reference_range),
        )

    def retrim(self, tech: Technology, *,
               corner_name: str = "") -> TrimResult:
        """Characterize a corner and pick its compensating code."""
        ranges = tuple(self._range(tech, c) for c in range(8))
        chosen = min(
            range(8),
            key=lambda c: self._mismatch(ranges[c], self.reference_range),
        )
        return TrimResult(
            corner_name=corner_name or tech.name,
            reference_code=self.reference_code,
            reference_range=self.reference_range,
            chosen_code=chosen,
            corner_ranges=ranges,
            achieved_range=ranges[chosen],
            residual=self._mismatch(ranges[chosen], self.reference_range),
            untrimmed_residual=self._mismatch(
                ranges[self.reference_code], self.reference_range
            ),
        )


def retrim_for_corner(design: SensorDesign, corner: ProcessCorner, *,
                      reference_code: int = 3,
                      pg_tracks_corner: bool = True) -> TrimResult:
    """Convenience: retrim the paper design for one named corner."""
    policy = TrimmingPolicy(design, reference_code,
                            pg_tracks_corner=pg_tracks_corner)
    tech = corner.apply(design.tech)
    return policy.retrim(tech, corner_name=corner.name)
