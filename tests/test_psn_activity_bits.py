"""Bit-identity of the vectorized ``ClockedActivityGenerator.sample``.

``sample`` places every grid sample by its own cycle, ``floor(t / T)``,
and that cycle's neighbours, in one pass per neighbour.  It replaced a
loop that scanned the whole grid once per clock cycle.  That loop is
kept here verbatim as the oracle, and the new trace must match it by
``tobytes`` for every profile, a whole-cycle pulse (whose end point is
the next cycle's start), zero peak current, and grids whose step and
end do not divide the clock period.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.psn.activity import ActivityProfile, ClockedActivityGenerator
from repro.units import NS


def oracle_sample(gen: ClockedActivityGenerator, *, t_end: float,
                  dt: float) -> np.ndarray:
    """The per-cycle ``sample`` loop (verbatim, after its argument
    checks)."""
    pulse_width = gen.pulse_fraction * gen.clock_period
    n = int(round(t_end / dt))
    times = np.arange(n + 1) * dt
    current = np.zeros_like(times)
    n_cycles = int(np.floor(t_end / gen.clock_period)) + 1
    rng = (np.random.default_rng(gen.seed)
           if gen.profile is ActivityProfile.RANDOM else None)
    half = pulse_width / 2.0
    for cycle in range(n_cycles):
        act = gen.activity_for_cycle(cycle, rng)
        peak = act * gen.peak_current
        if peak == 0.0:
            continue
        t0 = cycle * gen.clock_period
        # Triangular pulse rising to `peak` at t0+half, back to 0 at
        # t0+pulse_width.
        in_pulse = (times >= t0) & (times <= t0 + pulse_width)
        rel = times[in_pulse] - t0
        tri = np.where(rel <= half, rel / half,
                       (pulse_width - rel) / half)
        current[in_pulse] += peak * np.clip(tri, 0.0, 1.0)
    return current


#: (clock period, t_end, dt): dividing grids, and steps and ends that
#: leave a remainder against the period.
GRIDS = (
    (2 * NS, 40 * NS, 0.01 * NS),
    (2 * NS, 41.3 * NS, 0.013 * NS),
    (1.7 * NS, 33.33 * NS, 0.0071 * NS),
    (1e-9, 3.7e-8, 3e-11),
    (3 * NS, 10 * NS, 0.1 * NS),
    # Sample 310 sits on cycle 31's start, 31 * 1e-9, yet
    # floor(t / T) puts it in cycle 30.
    (1e-9, 40e-9, 1e-10),
)


def _configs():
    for profile, fraction, peak, (period, t_end, dt) in itertools.product(
            ActivityProfile, (1.0, 0.25, 0.4), (10.0, 0.0, 0.37),
            GRIDS):
        if dt > fraction * period / 4.0:
            continue  # under-resolved: sample rejects it
        yield (ClockedActivityGenerator(
            clock_period=period, peak_current=peak, base_activity=0.8,
            idle_activity=0.1, pulse_fraction=fraction, profile=profile,
            step_cycle=5, burst_cycles=3, seed=11), t_end, dt)


CONFIGS = list(_configs())


@pytest.mark.parametrize("gen,t_end,dt", CONFIGS)
def test_sample_matches_the_per_cycle_oracle(gen, t_end, dt):
    got = gen.sample(t_end=t_end, dt=dt)
    want = oracle_sample(gen, t_end=t_end, dt=dt)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_configs_cover_the_edges():
    fractions = {g.pulse_fraction for g, _, _ in CONFIGS}
    assert {1.0, 0.25} <= fractions
    assert {g.profile for g, _, _ in CONFIGS} == set(ActivityProfile)
    assert any(g.peak_current == 0.0 for g, _, _ in CONFIGS)
    assert any((t_end / g.clock_period) % 1 and (g.clock_period / dt) % 1
               for g, t_end, dt in CONFIGS)
    times = np.arange(401) * 1e-10
    assert times[310] == 31 * 1e-9
    assert np.floor(times[310] / 1e-9) == 30


def test_whole_cycle_pulses_share_their_end_point():
    """With ``pulse_fraction == 1`` a pulse ends where the next cycle's
    starts; a sample there lies in both, and both add to it."""
    gen = ClockedActivityGenerator(clock_period=1.0, peak_current=1.0,
                                   base_activity=1.0, pulse_fraction=1.0)
    out = gen.sample(t_end=4.0, dt=0.125)
    assert out.tobytes() == oracle_sample(gen, t_end=4.0,
                                          dt=0.125).tobytes()
    assert out[::8].tolist() == [0.0] * 5
    assert out[4] == 1.0


def test_random_profile_keeps_its_seeded_draws():
    gen = ClockedActivityGenerator(clock_period=1.0, peak_current=2.0,
                                   profile=ActivityProfile.RANDOM,
                                   seed=5)
    a = gen.sample(t_end=20.0, dt=0.05)
    b = ClockedActivityGenerator(clock_period=1.0, peak_current=2.0,
                                 profile=ActivityProfile.RANDOM,
                                 seed=6).sample(t_end=20.0, dt=0.05)
    assert a.tobytes() == oracle_sample(gen, t_end=20.0,
                                        dt=0.05).tobytes()
    assert a.tobytes() != b.tobytes()
