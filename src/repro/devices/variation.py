"""Statistical process variation.

Beyond the discrete corners of :mod:`repro.devices.corners`, real dies
show continuous variation: a die-wide (inter-die) component shared by
every gate on the chip, plus an independent per-gate (intra-die,
"mismatch") component.  The paper's trimming story only needs the
inter-die part — the delay code is a per-die knob — but the intra-die
part matters for the thermometer's monotonicity (adjacent stages with
mismatched thresholds can produce "bubbles" in the output code), which
is exactly what the encoder's bubble correction exists for.

All sampling is deterministic given a seed, so tests are reproducible.
Every die has its own generator, seeded from its own seed, and draws
all its normals in one call; a lot's dies are then scaled together
(:meth:`VariationModel.sample_dies`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.devices.technology import Technology
from repro.errors import ConfigurationError
from repro.units import MV


@dataclass(frozen=True)
class VariationSample:
    """One sampled die: an inter-die shift plus per-instance mismatch.

    Attributes:
        die_vth_shift: Die-wide threshold shift, volts.
        die_drive_scale: Die-wide drive-constant multiplier.
        instance_vth_shifts: Per-gate threshold shifts, volts; one entry
            per requested instance.
        instance_drive_scales: Per-gate drive multipliers.
    """

    die_vth_shift: float
    die_drive_scale: float
    instance_vth_shifts: tuple[float, ...]
    instance_drive_scales: tuple[float, ...]

    @property
    def n_instances(self) -> int:
        return len(self.instance_vth_shifts)

    def technology_for(self, tech: Technology, instance: int) -> Technology:
        """Technology seen by one gate instance on this die."""
        if not 0 <= instance < self.n_instances:
            raise ConfigurationError(
                f"instance {instance} out of range [0, {self.n_instances})"
            )
        return tech.scaled(
            vth_shift=self.die_vth_shift + self.instance_vth_shifts[instance],
            drive_scale=self.die_drive_scale
            * self.instance_drive_scales[instance],
            name=f"{tech.name}-die",
        )

    def die_technology(self, tech: Technology) -> Technology:
        """Technology with only the inter-die component applied."""
        return tech.scaled(
            vth_shift=self.die_vth_shift,
            drive_scale=self.die_drive_scale,
            name=f"{tech.name}-die",
        )


@dataclass(frozen=True)
class VariationModel:
    """Gaussian process-variation generator.

    Attributes:
        sigma_vth_inter: Std-dev of the inter-die Vth shift, volts.
        sigma_vth_intra: Std-dev of the per-gate Vth mismatch, volts.
        sigma_drive_inter: Std-dev of the inter-die log-drive scale.
        sigma_drive_intra: Std-dev of the per-gate log-drive scale.
        clip_sigmas: Samples are clipped to this many sigmas to keep the
            shifted technologies physical.
    """

    sigma_vth_inter: float = 15 * MV
    sigma_vth_intra: float = 6 * MV
    sigma_drive_inter: float = 0.04
    sigma_drive_intra: float = 0.015
    clip_sigmas: float = 4.0

    def __post_init__(self) -> None:
        for name in ("sigma_vth_inter", "sigma_vth_intra",
                     "sigma_drive_inter", "sigma_drive_intra"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.clip_sigmas <= 0:
            raise ConfigurationError("clip_sigmas must be positive")

    def sample_dies(self, n_instances: int, *,
                    seeds: Sequence[int]) -> list[VariationSample]:
        """Sample one die per seed, each with ``n_instances`` varied
        gate instances.

        Each die keeps its own stream: ``default_rng(seed)`` draws the
        die's ``2 + 2 * n_instances`` standard normals in one call, in
        the order die Vth, die drive, instance Vths, instance drives
        (the same stream as drawing the four groups one call at a
        time).  The dies' draws are then clipped, scaled and
        exponentiated together as one array.
        """
        if n_instances < 0:
            raise ConfigurationError("n_instances must be non-negative")
        n = n_instances
        draws = np.empty((len(seeds), 2 + 2 * n))
        for row, seed in zip(draws, seeds):
            row[:] = np.random.default_rng(seed).normal(
                0.0, 1.0, size=2 + 2 * n)
        np.clip(draws, -self.clip_sigmas, self.clip_sigmas, out=draws)
        draws *= np.array([self.sigma_vth_inter, self.sigma_drive_inter]
                          + [self.sigma_vth_intra] * n
                          + [self.sigma_drive_intra] * n)
        # exp into fresh contiguous arrays, as the per-die draws did:
        # some NumPy builds take a scalar exp loop for strided output.
        die_drive = np.exp(draws[:, 1]).tolist()
        inst_drive = np.exp(draws[:, 2 + n:]).tolist()
        return [
            VariationSample(
                die_vth_shift=vth,
                die_drive_scale=drive,
                instance_vth_shifts=tuple(inst_vth),
                instance_drive_scales=tuple(inst_drives),
            )
            for vth, drive, inst_vth, inst_drives in zip(
                draws[:, 0].tolist(), die_drive,
                draws[:, 2:2 + n].tolist(), inst_drive)
        ]

    def sample_die(self, n_instances: int, *, seed: int) -> VariationSample:
        """Sample one die with ``n_instances`` varied gate instances."""
        return self.sample_dies(n_instances, seeds=[seed])[0]

    def sample_lot(self, n_dies: int, n_instances: int, *,
                   seed: int) -> list[VariationSample]:
        """Sample a lot of dies with decorrelated per-die seeds.

        Die ``k``'s seed comes from the ``k``-th child of
        ``SeedSequence(seed)``, so a smaller lot is a prefix of a
        larger one with the same seed.
        """
        if n_dies < 0:
            raise ConfigurationError("n_dies must be non-negative")
        children = np.random.SeedSequence(seed).spawn(n_dies)
        return self.sample_dies(
            n_instances,
            seeds=[int(child.generate_state(1)[0]) for child in children],
        )
