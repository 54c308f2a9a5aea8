"""Measurement repeatability and S-curve threshold extraction.

A real rail is never static: broadband noise rides on any level the
sensor measures, so repeated measures at the same nominal level scatter
across adjacent codes.  Two standard converter-test techniques apply
directly to the thermometer:

* **code histograms** — the distribution of output words over repeated
  measures at one nominal level (how stable is a reading?);
* **S-curves** — per-stage pass *probability* vs. nominal level.  With
  Gaussian rail noise the hard threshold smears into a normal CDF whose
  50 % point is the threshold and whose width is the noise sigma —
  letting a tester extract both from purely digital pass/fail data.

Everything is seeded and deterministic.  Ladder extraction sweeps one
S-curve per stage with a per-bit child seed
(``SeedSequence(seed).spawn`` — see
:mod:`repro.kernels.montecarlo`), so the stages are independent tasks:
:func:`extract_ladder_via_s_curves` takes ``workers=`` (process-pool
fan-out across bits, bit-identical to the serial loop) and ``cache=``
(per-stage memoization) — see :mod:`repro.runtime`.

Both statistical flows run on the batched Monte-Carlo kernels
(:mod:`repro.kernels.montecarlo`); the S-curves go through a
measurement driver's ``s_curve`` op, the kernel driver unless one is
named.  The original per-draw loops live in ``benchmarks/_oracles.py``
as the correctness oracle, and the kernels produce *identical*
histograms and trip probabilities — same Generator stream, same
elementwise arithmetic — which ``tests/test_kernels_montecarlo.py``
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime import (
    ResultCache,
    cached_map,
    design_fingerprint,
    resolve_cache,
    task_key,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.calibration import SensorDesign
    from repro.core.sensor import SenseRail


def _sense_rail():
    # Imported at the call: repro.core.sensor loads the cell and
    # simulator layers, which importing this module does not need.
    from repro.core.sensor import SenseRail

    return SenseRail


def word_histogram(design: "SensorDesign", *, level: float,
                   noise_rms: float, n_measures: int = 200,
                   code: int = 3, seed: int = 7,
                   rail: "SenseRail | None" = None) -> dict[str, int]:
    """Distribution of output words at a noisy nominal level.

    Each measure draws an independent Gaussian rail sample
    ``level + N(0, noise_rms)`` (the sensor's per-measure aperture is
    far shorter than broadband noise correlation anyway).  All samples
    come from one Generator call and the words are counted with
    :func:`repro.kernels.montecarlo.word_grid_mc`, identical to a
    per-measure loop: a batched ``normal(size=n)`` fills from the same
    stream as ``n`` scalar draws, and the kernel's pass/fail
    arithmetic matches the scalar measure float for float.

    Raises:
        ConfigurationError: non-positive measure count or negative rms.
    """
    if n_measures < 1:
        raise ConfigurationError("n_measures must be positive")
    if noise_rms < 0:
        raise ConfigurationError("noise_rms must be non-negative")
    from repro.kernels.montecarlo import (
        effective_supply_grid,
        word_grid_mc,
        word_histogram_grid,
    )

    if rail is None:
        rail = _sense_rail().VDD
    rng = np.random.default_rng(seed)
    draws = level + rng.normal(0.0, noise_rms, size=n_measures)
    v_eff = effective_supply_grid(
        design, draws, rail="vdd" if rail is _sense_rail().VDD else "gnd"
    )
    return word_histogram_grid(word_grid_mc(design, v_eff, code=code))


@dataclass(frozen=True)
class SCurve:
    """Per-stage pass probability vs. nominal level.

    Attributes:
        bit: The characterized stage (1-based).
        levels: Nominal levels, volts (ascending).
        pass_probability: Estimated pass probability per level.
        n_per_level: Measures per level.
    """

    bit: int
    levels: tuple[float, ...]
    pass_probability: tuple[float, ...]
    n_per_level: int

    def fit(self) -> "SCurveFit":
        """Fit a normal CDF; returns threshold and noise estimates.

        Raises:
            ConfigurationError: when the curve never crosses 50 %
                inside the swept range (cannot be fit).
        """
        p = np.asarray(self.pass_probability)
        x = np.asarray(self.levels)
        if p.max() < 0.5 or p.min() > 0.5:
            raise ConfigurationError(
                f"bit {self.bit}: S-curve does not cross 50% in the "
                f"swept range"
            )

        # Imported here so that only a process that fits pays for
        # scipy.optimize (and the scipy.linalg it loads).
        from scipy import optimize, special

        def model(v, mu, sigma):
            return 0.5 * (1.0 + special.erf((v - mu)
                                            / (np.sqrt(2) * sigma)))

        mu0 = float(x[np.argmin(np.abs(p - 0.5))])
        sigma0 = max((x[-1] - x[0]) / 10.0, 1e-4)
        popt, _ = optimize.curve_fit(model, x, p, p0=(mu0, sigma0),
                                     maxfev=10_000)
        residuals = p - model(x, *popt)
        return SCurveFit(
            bit=self.bit,
            threshold=float(popt[0]),
            noise_sigma=float(abs(popt[1])),
            rms_residual=float(np.sqrt(np.mean(residuals ** 2))),
        )


@dataclass(frozen=True)
class SCurveFit:
    """Normal-CDF fit of one S-curve."""

    bit: int
    threshold: float
    noise_sigma: float
    rms_residual: float


def measure_s_curve(design: "SensorDesign", bit: int, *,
                    noise_rms: float, code: int = 3,
                    span_sigmas: float = 4.0,
                    n_levels: int = 15,
                    n_per_level: int = 200,
                    seed: "int | np.random.SeedSequence" = 11,
                    backend: "object | str | None" = None) -> SCurve:
    """Sweep nominal levels across one stage's threshold with noise.

    The sweep covers ``threshold ± span_sigmas * noise_rms``; each
    level takes ``n_per_level`` seeded noisy measures, through a
    measurement driver's ``s_curve`` op: ``backend=`` (an instance or
    registry spec, see :mod:`repro.backends`) names the driver, and
    unset it is the kernel driver (``$REPRO_BACKEND`` is not read),
    which batches every draw into one Generator call and one
    vectorized pass/fail evaluation, equal to the per-draw loop for
    the same ``seed``; the event-sim driver answers every draw with a
    full PREPARE/SENSE run.

    Raises:
        ConfigurationError: bad parameters.
    """
    if not 1 <= bit <= design.n_bits:
        raise ConfigurationError(f"bit {bit} outside 1..{design.n_bits}")
    from repro.backends import KernelBackend, resolve_backend

    bk = resolve_backend(KernelBackend() if backend is None else backend)
    bk.configure(design)
    levels, probs = bk.s_curve(
        bit, code=code, noise_rms=noise_rms, n_per_level=n_per_level,
        seed=seed, span_sigmas=span_sigmas, n_levels=n_levels,
    )
    return SCurve(bit=bit, levels=tuple(levels),
                  pass_probability=tuple(probs), n_per_level=n_per_level)


def _s_curve_fit_task(spec: tuple) -> SCurveFit:
    """Picklable adapter: sweep and fit one stage's S-curve."""
    design, bit, noise_rms, code, seed, n_per_level, backend = spec
    return measure_s_curve(design, bit, noise_rms=noise_rms, code=code,
                           seed=seed, n_per_level=n_per_level,
                           backend=backend).fit()


def extract_ladder_via_s_curves(design: "SensorDesign", *,
                                noise_rms: float = 5e-3,
                                code: int = 3,
                                seed: int = 13,
                                n_per_level: int = 150,
                                workers: int | None = None,
                                cache: "ResultCache | str | None" = None,
                                backend: "object | str | None" = None
                                ) -> list[SCurveFit]:
    """Tester-style ladder extraction: S-curve fit per stage.

    This is how a production tester would *measure* the decode ladder
    of a fabricated die (the paper's "careful characterization of the
    sensor"): purely digital pass/fail statistics under known applied
    levels, no analog probing.

    Each stage's measures are seeded with its child of
    ``SeedSequence(seed).spawn(n_bits)``
    (:func:`repro.kernels.montecarlo.spawn_bit_seeds`) — a pure
    function of ``(seed, bit)``, so fanning the stages across a
    process pool (``workers=``) returns the same fits in the same
    order as the serial loop and as the batched kernel, and
    per-stage memoization (``cache=``) keys on the design fingerprint,
    every sweep parameter, and the seed scheme tag.  (The earlier
    ``seed + bit`` derivation aliased adjacent root seeds: bit 2 of
    ``seed`` shared a stream with bit 1 of ``seed + 1``.)

    ``backend=`` extracts through a named measurement driver instead of
    the kernel driver: the stages sweep serially in this process (a
    stateful driver — replay, recording — cannot fan out across
    processes), so ``workers`` does not apply, and the driver's
    fingerprint is folded into every cache key.
    """
    from repro.kernels.montecarlo import MC_SEED_SCHEME, spawn_bit_seeds

    bit_seeds = spawn_bit_seeds(seed, design.n_bits)
    bk = None
    if backend is not None:
        from repro.backends import resolve_backend

        bk = resolve_backend(backend)
        workers = None
    store = resolve_cache(cache)
    keys = None
    if store is not None:
        # The unnamed route's keys name the kernel in the place of the
        # driver id, so older caches stay warm.
        fp, tag = ((design_fingerprint(design), "kernel") if bk is None
                   else (design_fingerprint(design, backend=bk),
                         f"backend:{bk.id}"))
        keys = [
            task_key("s-curve-fit", fp, bit, noise_rms, code,
                     MC_SEED_SCHEME, seed, n_per_level, tag)
            for bit in range(1, design.n_bits + 1)
        ]
    specs = [
        (design, bit, noise_rms, code, bit_seeds[bit - 1], n_per_level, bk)
        for bit in range(1, design.n_bits + 1)
    ]
    return cached_map(_s_curve_fit_task, specs, keys=keys,
                      cache=store, workers=workers)
