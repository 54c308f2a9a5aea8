"""Batched Monte-Carlo s-curve kernels.

The scalar statistical flows (:mod:`repro.analysis.repeatability`)
measure one noisy draw at a time: build a
:class:`~repro.core.sensor.SensorBit`, evaluate the delay law, compare
against the sensing window, repeat ``trials x levels x bits`` times.
These kernels evaluate the same pass/fail decision over whole draw
cubes at once:

* :func:`trip_margin_grid` / :func:`trip_grid` — setup margin and
  pass/fail over arbitrary draw shapes, **bit-identical** to
  :meth:`repro.core.sensor.SensorBit.measure` (same delay-law
  arithmetic elementwise, same strict ``margin > 0`` comparison);
* :func:`word_grid_mc` / :func:`word_histogram_grid` — whole-array
  words and word-string histograms for repeated noisy measures,
  reproducing :func:`repro.analysis.repeatability.word_histogram`
  exactly;
* :func:`s_curve_trip_probability` — the batched Fig. 4/Fig. 5
  s-curve sweep: every (bit x level x trial) mismatch draw comes from
  one :class:`numpy.random.Generator` call per bit, pass/fail is one
  vectorized margin evaluation, and the returned trip-probability grid
  equals the scalar per-draw sweep *exactly* under the seed-threading
  scheme below.

Seed-threading scheme (``MC_SEED_SCHEME``)
------------------------------------------

Ladder extraction seeds bit ``b`` with child ``b - 1`` of
``numpy.random.SeedSequence(seed).spawn(n_bits)`` (see
:func:`spawn_bit_seeds`).  Three properties make serial, process-pool
and kernel paths statistically bit-identical:

1. a child's stream is a pure function of ``(seed, bit)`` — pool
   scheduling order cannot change any bit's draws;
2. children are cryptographically independent — no overlap between
   ``seed`` and ``seed + 1`` ladders (the old ``seed + bit`` scheme
   aliased adjacent roots);
3. a single ``Generator.normal(size=(levels, trials))`` call fills in
   C order, so the batched draw cube equals the scalar path's
   per-level sequential draws from the same generator, float for
   float.

Instrumented under the ``kernel.mc`` profiler phase.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import ladders
from repro.kernels.delay_law import voltage_factor_grid
from repro.runtime.profiling import phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.calibration import SensorDesign
    from repro.devices.technology import Technology

#: Version tag of the documented ladder seed-threading scheme; folded
#: into result-cache keys so fits drawn under the old ``seed + bit``
#: scheme can never alias the spawn-based ones.
MC_SEED_SCHEME = "mc-seedseq-spawn/v1"


def spawn_bit_seeds(seed: int | np.random.SeedSequence,
                    n_bits: int) -> tuple[np.random.SeedSequence, ...]:
    """Per-bit child seeds: ``SeedSequence(seed).spawn(n_bits)``.

    Bit ``b`` (1-based) consumes child ``b - 1``.  This is the
    documented seed-threading scheme (``MC_SEED_SCHEME``): every
    consumer — serial loop, process-pool task, batched kernel — that
    needs bit ``b``'s draws builds ``default_rng(children[b - 1])``
    and gets the identical stream.
    """
    if n_bits < 1:
        raise ConfigurationError("n_bits must be positive")
    root = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return tuple(root.spawn(n_bits))


def _bits_array(design: "SensorDesign",
                bits: Iterable[int] | None) -> np.ndarray:
    idx = np.arange(1, design.n_bits + 1) if bits is None \
        else np.asarray(list(bits), dtype=int)
    if idx.size < 1:
        raise ConfigurationError("need at least one bit")
    if idx.min() < 1 or idx.max() > design.n_bits:
        raise ConfigurationError(
            f"bit outside 1..{design.n_bits}: {idx.tolist()}"
        )
    return idx


def effective_supply_grid(design: "SensorDesign", draws: np.ndarray,
                          rail: str = "vdd") -> np.ndarray:
    """Rail draws -> effective inverter supplies, elementwise.

    The vectorized :meth:`repro.core.sensor.SensorBit.effective_supply`:
    HIGH-SENSE (``rail="vdd"``) passes the draw through; LOW-SENSE
    (``rail="gnd"``) sees ``vdd_nominal - draw``.
    """
    draws = np.asarray(draws, dtype=float)
    if rail == "vdd":
        return draws
    if rail == "gnd":
        return design.tech.vdd_nominal - draws
    raise ConfigurationError(f"unknown rail {rail!r} (use 'vdd'/'gnd')")


def _delay_law_terms(design: "SensorDesign", idx: np.ndarray,
                     tech: "Technology | None"
                     ) -> tuple[np.ndarray, float, float, float]:
    """Per-bit ``(c_total, k_eff, vth, alpha)`` of the scalar measure.

    Composed exactly as :meth:`SensorBit.measure` ->
    :meth:`SensorDesign.ds_external_load` ->
    :meth:`AlphaPowerModel.delay` does: ``c_total = intrinsic +
    (trim_cap + D-pin cap)``, ``k_eff = drive_constant / strength``.
    """
    tech_eff = design.tech if tech is None else tech
    d_pin_cap = design.sense_flipflop(tech).pin("D").cap
    loads = np.asarray(design.load_caps, dtype=float)[idx - 1] \
        + d_pin_cap
    c_total = tech_eff.intrinsic_cap_unit * design.sensor_strength \
        + loads
    k_eff = tech_eff.drive_constant / design.sensor_strength
    return c_total, k_eff, tech_eff.vth, tech_eff.alpha


def trip_margin_grid(design: "SensorDesign", v_eff: np.ndarray, *,
                     code: int, bits: Iterable[int] | None = None,
                     tech: "Technology | None" = None) -> np.ndarray:
    """Setup margins ``window - d_inv`` over a draw grid, seconds.

    ``out[..., i]`` is the margin of ``bits[i]`` at effective supply
    ``v_eff[...]`` — exactly the ``setup_margin`` of the scalar
    :meth:`~repro.core.sensor.SensorBit.measure` (same elementwise
    delay-law arithmetic, so the sign matches float for float).
    Supplies at or below threshold give ``-inf`` (the gate never
    switches — a clean miss, as in the scalar path).

    Args:
        design: Calibrated design.
        v_eff: Effective supplies, any shape; a bit axis is appended.
        code: Delay code 0..7.
        bits: Bit numbers 1..n_bits (last-axis order); None = all.
        tech: Corner technology of the sensor inverters and the
            window-defining blocks (the scalar measure's convention).
    """
    with phase("kernel.mc"):
        idx = _bits_array(design, bits)
        window = design.effective_window(code, tech)
        c_total, k_eff, vth, alpha = _delay_law_terms(design, idx, tech)
        v = np.asarray(v_eff, dtype=float)
        g = voltage_factor_grid(v[..., None], vth, alpha)
        with np.errstate(invalid="ignore"):
            margins = window - (k_eff * c_total) * g
        return margins


def trip_grid(design: "SensorDesign", v_eff: np.ndarray, *,
              code: int, bits: Iterable[int] | None = None,
              tech: "Technology | None" = None) -> np.ndarray:
    """Pass/fail over a draw grid: ``margin > 0`` (strict, matching
    the scalar measure's comparison).  Shape ``v_eff.shape + (bits,)``.
    """
    return trip_margin_grid(design, v_eff, code=code, bits=bits,
                            tech=tech) > 0.0


def word_grid_mc(design: "SensorDesign", v_eff: np.ndarray, *,
                 code: int,
                 tech: "Technology | None" = None) -> np.ndarray:
    """Whole-array output words per draw: uint8, bit 1 first.

    Equals the word of :meth:`repro.core.array.SensorArray.measure` at
    each draw (analytic per-bit pass/fail; thresholds ascend with bit
    index, so the words are valid thermometer codes by construction).
    """
    return trip_grid(design, v_eff, code=code, tech=tech) \
        .astype(np.uint8)


def word_histogram_grid(words: np.ndarray) -> dict[str, int]:
    """Word-string histogram of a ``(measures, n_bits)`` word grid.

    Strings render MSB-first (``ThermometerWord.to_string``); counts
    equal the scalar ``Counter`` loop exactly.
    """
    with phase("kernel.mc"):
        w = np.asarray(words)
        if w.ndim != 2 or w.shape[1] < 1:
            raise ConfigurationError(
                f"expected a (measures, n_bits) word grid, got {w.shape}"
            )
        uniq, counts = np.unique(w, axis=0, return_counts=True)
        return {
            "".join(str(int(b)) for b in row[::-1]): int(c)
            for row, c in zip(uniq, counts)
        }


def s_curve_levels(design: "SensorDesign", *, code: int,
                   noise_rms: float, span_sigmas: float = 4.0,
                   n_levels: int = 15,
                   bits: Iterable[int] | None = None) -> np.ndarray:
    """Per-bit sweep levels ``threshold +- span_sigmas * noise_rms``.

    Centers come from the *scalar* :meth:`SensorDesign.bit_threshold`
    (the in-tree Brent solver, ``==`` to scipy's ``brentq``), not the
    vectorized solver: the sweep grid must equal the scalar oracle's
    float for float so the noisy draws — which add to these levels —
    coincide exactly.  Each center is read from the
    :mod:`~repro.kernels.ladders` store: a scalar solve costs about as
    much as a small draw cube, so it is not negligible on the serving
    path.

    Returns:
        ``(n_sel_bits, n_levels)`` nominal levels, volts.
    """
    idx = _bits_array(design, bits)
    half = span_sigmas * noise_rms
    centers = [ladders.bit_threshold(design, int(b), code) for b in idx]
    return np.stack([np.linspace(c - half, c + half, n_levels)
                     for c in centers])


def s_curve_trip_probability(
    design: "SensorDesign", *, code: int, noise_rms: float,
    n_per_level: int, seeds: Sequence[int | np.random.SeedSequence],
    span_sigmas: float = 4.0, n_levels: int = 15,
    bits: Iterable[int] | None = None,
    tech: "Technology | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched s-curve sweep: trip probabilities for many stages.

    For each selected bit, all ``n_levels x n_per_level`` mismatch
    draws come from a single ``Generator.normal`` call seeded with that
    bit's entry of ``seeds`` (see :func:`spawn_bit_seeds`), and
    pass/fail is one vectorized margin evaluation — the kernel behind
    :func:`repro.analysis.repeatability.measure_s_curve`.

    Returns:
        ``(levels, probs)`` — both ``(n_sel_bits, n_levels)``; probs
        equal the scalar per-draw sweep exactly under the seed scheme.
    """
    if noise_rms <= 0:
        raise ConfigurationError(
            "noise_rms must be positive (an S-curve needs noise)"
        )
    if n_levels < 5 or n_per_level < 10:
        raise ConfigurationError("need >= 5 levels and >= 10 measures")
    idx = _bits_array(design, bits)
    if len(seeds) != idx.size:
        raise ConfigurationError(
            f"got {len(seeds)} seeds for {idx.size} bits"
        )
    levels = s_curve_levels(design, code=code, noise_rms=noise_rms,
                            span_sigmas=span_sigmas, n_levels=n_levels,
                            bits=idx)
    draws = np.empty((idx.size, n_levels, n_per_level))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        draws[i] = levels[i][:, None] + rng.normal(
            0.0, noise_rms, size=(n_levels, n_per_level)
        )
    with phase("kernel.mc"):
        # One margin evaluation for the whole (bit, level, trial)
        # cube; each bit's lane pairs with its own load capacitance
        # along axis 0, so the cube stays O(bits * levels * trials).
        window = design.effective_window(code, tech)
        c_total, k_eff, vth, alpha = _delay_law_terms(design, idx, tech)
        g = voltage_factor_grid(draws, vth, alpha)
        with np.errstate(invalid="ignore"):
            margins = window - (k_eff * c_total)[:, None, None] * g
        passes = np.count_nonzero(margins > 0.0, axis=-1)
        probs = passes / n_per_level
    return levels, probs
