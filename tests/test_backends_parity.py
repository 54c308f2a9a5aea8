"""Cross-backend parity matrix (the backend layer's contract).

One interface, many drivers — the whole point of
:mod:`repro.backends` is that swapping the driver never silently
changes the physics.  These tests pin that down as a parameterized
matrix over seeded scenarios (the paper design, perturbed trim-cap
ablations, process corners, a 1-bit probe array, masked/degraded
bits):

* **kernel vs. oracle** — :class:`~repro.backends.KernelBackend`
  thresholds match the per-point ``brentq`` scalar solve to within
  the kernel layer's documented 2e-9 V agreement bound;
* **sim vs. kernel** — :class:`~repro.backends.SimBackend` thresholds
  agree with the kernel within a *bisection-tolerance-dominated*
  bound (the event engine's boundary sits within the configured
  ``tol`` of the analytic law; it is NOT a 2e-9-class match), and the
  two drivers return identical words away from decision boundaries;
* **replay vs. recording** — a campaign recorded through
  :class:`~repro.backends.RecordingBackend` replays through
  :class:`~repro.backends.ReplayBackend` *bit-identically*, for both
  trace formats, including NaN (masked-bit) threshold entries;
* **registry** — specs resolve, the env var routes, unknown names
  fail loudly, and every driver's fingerprint keeps cache keys
  distinct (see also the cache-key tests at the bottom).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.backends import (
    BACKEND_ENV,
    BackendError,
    KernelBackend,
    RecordingBackend,
    ReplayBackend,
    SimBackend,
    available,
    get,
    register,
    resolve_backend,
)
from repro.backends.trace import floats_equal
from repro.core.sensor import SenseRail
from repro.devices.corners import CORNERS
from repro.runtime.cache import design_fingerprint

#: Kernel-vs-brentq agreement: the kernel layer's own documented bound.
KERNEL_TOL_V = 2e-9

#: Sim bisection tolerance used in the parity runs (volts).
SIM_TOL_V = 0.5e-3

#: Sim-vs-kernel threshold bound.  The event engine's pass/fail
#: boundary tracks the analytic law but the bisection stops at
#: ``SIM_TOL_V`` and the engine's own time discretization adds a
#: sub-microvolt floor — so parity is tolerance-dominated, not exact.
SIM_VS_KERNEL_V = 2.0 * SIM_TOL_V


def _perturbed(design, seed, scale=0.03):
    """A seeded trim-cap ablation of the paper design (a 'random
    design' that stays inside the physically sensible regime)."""
    rng = np.random.default_rng(seed)
    caps = np.asarray(design.load_caps)
    factors = 1.0 + scale * rng.uniform(-1.0, 1.0, size=caps.size)
    caps = np.sort(caps * factors)  # ladder caps must stay ascending
    return design.with_load_caps(tuple(float(c) for c in caps))


def _scenarios(design):
    """(label, design, tech, codes) scenario matrix."""
    return [
        ("paper", design, None, (3,)),
        ("randcaps-17", _perturbed(design, 17), None, (2, 5)),
        ("randcaps-99", _perturbed(design, 99), None, (3,)),
        ("corner-SS", design, CORNERS["SS"].apply(design.tech), (3,)),
        ("corner-FF", design, CORNERS["FF"].apply(design.tech), (3,)),
        ("1bit", design.with_load_caps((design.load_caps[3],)),
         None, (0, 3, 7)),
    ]


# -- kernel backend vs. the scalar brentq oracle -------------------------------

def test_kernel_thresholds_match_brentq_oracle(design):
    bk = KernelBackend()
    for label, d, tech, codes in _scenarios(design):
        bk.configure(d, tech=tech)
        for code in codes:
            got = bk.bit_thresholds(code)
            assert len(got) == d.n_bits
            for b in range(1, d.n_bits + 1):
                oracle = d.bit_threshold(b, code, tech)
                assert abs(got[b - 1] - oracle) <= KERNEL_TOL_V, \
                    f"{label}: bit {b} code {code}"


def test_kernel_gnd_rail_is_vdd_mirror(design):
    bk = KernelBackend()
    bk.configure(design, rail=SenseRail.VDD)
    vdd = bk.bit_thresholds(3)
    bk.configure(design, rail=SenseRail.GND)
    gnd = bk.bit_thresholds(3)
    mirror = design.tech.vdd_nominal - np.asarray(vdd)
    assert np.allclose(gnd, mirror, atol=0.0, rtol=0.0)


def test_kernel_measure_batch_matches_thresholds(design):
    """Words flip exactly where the thresholds say they should."""
    bk = KernelBackend()
    bk.configure(design)
    th = bk.bit_thresholds(3)
    eps = 1e-6
    for b in range(design.n_bits):
        above, below = bk.measure_batch(
            [th[b] + eps, th[b] - eps], code=3)
        assert above[b] == 1 and below[b] == 0


# -- sim backend vs. kernel backend --------------------------------------------

@pytest.mark.parametrize("label_idx", [0, 5])
def test_sim_thresholds_within_tol_of_kernel(design, label_idx):
    """Event-sim bisection lands within the documented
    tolerance-dominated bound of the analytic kernel — for the paper
    design and for the 1-bit probe array."""
    label, d, tech, codes = _scenarios(design)[label_idx]
    sim = SimBackend(tol=SIM_TOL_V)
    ker = KernelBackend()
    sim.configure(d, tech=tech)
    ker.configure(d, tech=tech)
    code = codes[-1]
    got = np.asarray(sim.bit_thresholds(code))
    ref = np.asarray(ker.bit_thresholds(code))
    assert got.shape == ref.shape
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= SIM_VS_KERNEL_V, label


@pytest.mark.parametrize("code", [1, 2, 3])
def test_sim_gnd_thresholds_follow_negative_kernel_rungs(design, code):
    """Under codes 1-3 some GND rungs are negative bounces (the stage
    already fails at a quiet ground); the sim bisection must bracket
    them and land within its tolerance of the kernel."""
    sim = SimBackend(tol=SIM_TOL_V)
    ker = KernelBackend()
    sim.configure(design, rail=SenseRail.GND)
    ker.configure(design, rail=SenseRail.GND)
    ref = np.asarray(ker.bit_thresholds(code))
    assert np.any(ref < 0.0)
    got = np.asarray(sim.bit_thresholds(code))
    assert np.max(np.abs(got - ref)) <= SIM_TOL_V


def test_sim_words_match_kernel_away_from_boundaries(design):
    """At threshold midpoints (maximally far from any decision
    boundary) the event simulation and the kernel return the same
    word, VDD and GND rails both."""
    ker = KernelBackend()
    ker.configure(design)
    th = ker.bit_thresholds(3)
    edges = np.concatenate(([th[0] - 0.03], th, [th[-1] + 0.03]))
    mids = 0.5 * (edges[:-1] + edges[1:])

    sim = SimBackend()
    for rail in (SenseRail.VDD, SenseRail.GND):
        levels = mids if rail is SenseRail.VDD \
            else design.tech.vdd_nominal - mids
        ker.configure(design, rail=rail)
        sim.configure(design, rail=rail)
        kw = ker.measure_batch(levels, code=3)
        sw = sim.measure_batch(levels, code=3)
        assert np.array_equal(kw, sw), rail


def test_sim_s_curve_probabilities_are_probabilities(design):
    sim = SimBackend()
    sim.configure(design)
    levels, probs = sim.s_curve(4, code=3, noise_rms=5e-3,
                                n_per_level=20, seed=5, n_levels=7)
    assert len(levels) == len(probs) == 7
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert probs[0] <= 0.5 <= probs[-1]  # sweep crosses the threshold


# -- record -> replay bit-identity ---------------------------------------------

def _run_campaign(bk, design, tech=None):
    """A representative campaign touching every capability the
    driver offers; returns everything measured."""
    bk.configure(design, tech=tech)
    out = {"words": bk.measure_batch([0.88, 0.95, 1.02], code=3),
           "thresholds": bk.bit_thresholds(3)}
    caps = bk.capabilities()
    if caps.s_curve:
        out["s_curve"] = bk.s_curve(2, code=3, noise_rms=4e-3,
                                    n_per_level=16, seed=11)
    if caps.lot_thresholds:
        from repro.devices.variation import VariationModel

        model = VariationModel(sigma_vth_inter=10e-3,
                               sigma_vth_intra=4e-3)
        lot = model.sample_lot(3, design.n_bits, seed=21)
        out["lot"] = bk.lot_thresholds(lot, 3)
    return out


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_replay_reproduces_kernel_recording_bit_identically(
        design, tmp_path, fmt):
    path = tmp_path / f"campaign.{fmt}"
    rec = RecordingBackend(KernelBackend(), path)
    live = _run_campaign(rec, design)
    rec.close()

    replay = ReplayBackend(path)
    again = _run_campaign(replay, design)
    assert replay.exhausted

    assert np.array_equal(live["words"], again["words"])
    assert np.array_equal(live["thresholds"], again["thresholds"],
                          equal_nan=True)
    assert live["s_curve"] == again["s_curve"]  # tuples: bit-exact ==
    assert np.array_equal(live["lot"], again["lot"], equal_nan=True)


def test_replay_rewind_allows_second_pass(design, tmp_path):
    path = tmp_path / "c.jsonl"
    rec = RecordingBackend(KernelBackend(), path)
    rec.configure(design)
    live = rec.measure_batch([0.95], code=3)
    rec.close()
    replay = ReplayBackend(path)
    replay.configure(design)
    first = replay.measure_batch([0.95], code=3)
    replay.rewind()
    replay.configure(design)
    second = replay.measure_batch([0.95], code=3)
    assert np.array_equal(live, first) and np.array_equal(first, second)


def test_scalar_measure_records_one_level_batch(design, tmp_path):
    """A scalar ``measure`` goes through ``measure_batch``, so the
    recorder writes it as a one-level batch that replays exactly."""
    path = tmp_path / "m.jsonl"
    rec = RecordingBackend(KernelBackend(), path)
    rec.configure(design)
    live = rec.measure(0.95, code=3)
    rec.close()
    ops = [r for r in rec.trace.records if r["op"] != "configure"]
    assert len(ops) == 1
    assert ops[0]["op"] == "measure_batch"
    assert ops[0]["levels"] == [0.95]
    assert ops[0]["words"] == [live.word]

    replay = ReplayBackend(path)
    replay.configure(design)
    assert replay.measure(0.95, code=3) == live
    assert replay.exhausted


def test_recording_is_transparent(design, tmp_path):
    """Recording never changes what it records: results, fingerprint
    and capabilities all pass through the inner driver unchanged."""
    inner = KernelBackend()
    rec = RecordingBackend(KernelBackend(), tmp_path / "t.jsonl")
    assert rec.fingerprint() == inner.fingerprint()
    assert rec.capabilities().lot_thresholds
    inner.configure(design)
    rec.configure(design)
    assert np.array_equal(inner.measure_batch([0.95], code=3),
                          rec.measure_batch([0.95], code=3))
    rec.close()


# -- masked / degraded bits round-trip -----------------------------------------

class _MaskedDriver(KernelBackend):
    """A kernel driver whose bit 2 is degraded (NaN threshold) — the
    masked-bit convention of the characterization layer."""

    id = "masked-test"

    def bit_thresholds(self, code, *, bits=None):
        out = np.array(super().bit_thresholds(code, bits=bits))
        idx = (bits or range(1, self.design.n_bits + 1))
        for k, b in enumerate(idx):
            if b == 2:
                out[k] = math.nan
        return out


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_masked_bit_nan_survives_record_replay(design, tmp_path, fmt):
    path = tmp_path / f"masked.{fmt}"
    rec = RecordingBackend(_MaskedDriver(), path)
    rec.configure(design)
    live = rec.bit_thresholds(3)
    rec.close()
    assert math.isnan(live[1]) and not math.isnan(live[0])

    replay = ReplayBackend(path)
    replay.configure(design)
    again = replay.bit_thresholds(3)
    assert np.array_equal(live, again, equal_nan=True)
    assert all(floats_equal(a, b) for a, b in zip(live, again))


def test_generic_characterization_masks_nan_bits(design, tmp_path):
    """Characterization maps a driver's NaN thresholds onto the
    masked-bit (None) convention."""
    from repro.core.characterization import (
        characterize_array,
        characterize_bit_thresholds,
    )

    ths = characterize_bit_thresholds(design, 3, backend=_MaskedDriver())
    assert ths[1] is None
    assert all(v is not None for k, v in enumerate(ths) if k != 1)
    char = characterize_array(design, (3,), backend=_MaskedDriver())[3]
    assert char.masked_bits == (2,)
    assert char.thresholds == tuple(v for v in ths if v is not None)


# -- registry & resolution -----------------------------------------------------

def test_registry_lists_and_builds_drivers():
    names = available()
    assert "kernel" in names and "sim" in names
    assert isinstance(get("kernel"), KernelBackend)
    assert isinstance(get("sim"), SimBackend)


def test_unknown_backend_fails_loudly():
    with pytest.raises(BackendError):
        get("spice")
    with pytest.raises(BackendError):
        resolve_backend("spice")


def test_replay_spec_builds_replay_backend(design, tmp_path):
    path = tmp_path / "r.jsonl"
    rec = RecordingBackend(KernelBackend(), path)
    rec.configure(design)
    rec.measure_batch([0.95], code=3)
    rec.close()
    bk = get(f"replay:{path}")
    assert isinstance(bk, ReplayBackend)


def test_env_var_routes_default(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "sim")
    assert isinstance(resolve_backend(None), SimBackend)
    monkeypatch.delenv(BACKEND_ENV)
    assert isinstance(resolve_backend(None), KernelBackend)


def test_register_rejects_bad_names():
    with pytest.raises(BackendError):
        register("", KernelBackend)
    with pytest.raises(BackendError):
        register("with:colon", KernelBackend)


def test_instance_passthrough(design):
    bk = KernelBackend()
    assert resolve_backend(bk) is bk


def test_unconfigured_backend_fails_loudly():
    with pytest.raises(BackendError):
        KernelBackend().measure_batch([0.95], code=3)


def test_sim_lacks_lot_thresholds(design):
    sim = SimBackend()
    sim.configure(design)
    assert not sim.capabilities().lot_thresholds
    with pytest.raises(BackendError):
        sim.lot_thresholds((design,), 3)


# -- cache-key distinctness (the fingerprint fix) ------------------------------

def test_backend_fingerprints_are_distinct(design, tmp_path):
    path = tmp_path / "f.jsonl"
    rec = RecordingBackend(KernelBackend(), path)
    rec.configure(design)
    rec.measure_batch([0.95], code=3)
    rec.close()

    fps = {
        "kernel": KernelBackend().fingerprint(),
        "sim": SimBackend().fingerprint(),
        "replay": ReplayBackend(path).fingerprint(),
    }
    assert len(set(fps.values())) == len(fps)


def test_design_fingerprint_folds_backend_identity(design):
    """Kernel-backed and sim-backed sweeps can never share a cache
    entry — their design fingerprints differ from each other and
    from the classic driverless fingerprint."""
    plain = design_fingerprint(design)
    kernel = design_fingerprint(design, backend=get("kernel"))
    sim = design_fingerprint(design, backend=get("sim"))
    assert len({plain, kernel, sim}) == 3
    # deterministic: same driver spec -> same key
    assert kernel == design_fingerprint(design, backend=get("kernel"))


def test_sim_fingerprint_tracks_tolerance():
    """Tightening the bisection tolerance changes the answers, so it
    must change the cache key too."""
    assert SimBackend(tol=0.5e-3).fingerprint() \
        != SimBackend(tol=1e-4).fingerprint()
