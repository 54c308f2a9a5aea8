"""Statistical process-variation tests."""

import numpy as np
import pytest

from repro.devices.technology import TECH_90NM
from repro.devices.variation import VariationModel, VariationSample
from repro.errors import ConfigurationError


@pytest.fixture()
def model():
    return VariationModel()


def test_sample_deterministic_for_seed(model):
    a = model.sample_die(7, seed=42)
    b = model.sample_die(7, seed=42)
    assert a == b


def test_different_seeds_differ(model):
    a = model.sample_die(7, seed=1)
    b = model.sample_die(7, seed=2)
    assert a != b


def test_sample_instance_count(model):
    s = model.sample_die(7, seed=0)
    assert s.n_instances == 7
    assert len(s.instance_drive_scales) == 7


def test_zero_instances_allowed(model):
    s = model.sample_die(0, seed=0)
    assert s.n_instances == 0


def test_negative_instances_rejected(model):
    with pytest.raises(ConfigurationError):
        model.sample_die(-1, seed=0)


def test_technology_for_applies_both_components(model):
    s = model.sample_die(3, seed=5)
    t = s.technology_for(TECH_90NM, 0)
    expected_vth = (TECH_90NM.vth + s.die_vth_shift
                    + s.instance_vth_shifts[0])
    assert t.vth == pytest.approx(expected_vth)


def test_technology_for_out_of_range(model):
    s = model.sample_die(3, seed=5)
    with pytest.raises(ConfigurationError):
        s.technology_for(TECH_90NM, 3)


def test_die_technology_ignores_instances(model):
    s = model.sample_die(3, seed=5)
    t = s.die_technology(TECH_90NM)
    assert t.vth == pytest.approx(TECH_90NM.vth + s.die_vth_shift)


def test_clipping_bounds_shifts():
    m = VariationModel(clip_sigmas=2.0)
    shifts = [m.sample_die(1, seed=k).die_vth_shift for k in range(200)]
    assert max(abs(s) for s in shifts) <= 2.0 * m.sigma_vth_inter + 1e-12


def test_lot_sampling_decorrelated(model):
    lot = model.sample_lot(5, 7, seed=3)
    assert len(lot) == 5
    shifts = [d.die_vth_shift for d in lot]
    assert len(set(shifts)) == 5  # all distinct


def test_lot_deterministic(model):
    a = model.sample_lot(3, 2, seed=9)
    b = model.sample_lot(3, 2, seed=9)
    assert a == b


def test_inter_die_statistics():
    m = VariationModel()
    shifts = np.array([
        m.sample_die(0, seed=k).die_vth_shift for k in range(500)
    ])
    assert abs(np.mean(shifts)) < 3 * m.sigma_vth_inter / np.sqrt(500) * 2
    assert np.std(shifts) == pytest.approx(m.sigma_vth_inter, rel=0.25)


def test_drive_scales_positive(model):
    s = model.sample_die(50, seed=11)
    assert s.die_drive_scale > 0
    assert all(x > 0 for x in s.instance_drive_scales)


def test_rejects_negative_sigma():
    with pytest.raises(ConfigurationError):
        VariationModel(sigma_vth_inter=-0.01)


def test_rejects_nonpositive_clip():
    with pytest.raises(ConfigurationError):
        VariationModel(clip_sigmas=0.0)


# -- the per-die sampling oracle ------------------------------------------------


def _oracle_sample_die(model, n_instances, *, seed):
    """The per-die body that ``sample_dies`` replaced, kept verbatim:
    four draws from the die's own generator, scaled one group at a
    time."""
    if n_instances < 0:
        raise ConfigurationError("n_instances must be non-negative")
    rng = np.random.default_rng(seed)

    def clipped_normal(sigma, size=None):
        raw = rng.normal(0.0, 1.0, size=size)
        clipped = np.clip(raw, -model.clip_sigmas, model.clip_sigmas)
        return clipped * sigma

    die_vth = float(clipped_normal(model.sigma_vth_inter))
    die_drive = float(np.exp(clipped_normal(model.sigma_drive_inter)))
    inst_vth = clipped_normal(model.sigma_vth_intra, size=n_instances)
    inst_drive = np.exp(
        clipped_normal(model.sigma_drive_intra, size=n_instances)
    )
    return VariationSample(
        die_vth_shift=die_vth,
        die_drive_scale=die_drive,
        instance_vth_shifts=tuple(float(x) for x in inst_vth),
        instance_drive_scales=tuple(float(x) for x in inst_drive),
    )


def _oracle_lot_seeds(n_dies, seed):
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(n_dies)]


def _hex(sample):
    return (sample.die_vth_shift.hex(), sample.die_drive_scale.hex(),
            tuple(x.hex() for x in sample.instance_vth_shifts),
            tuple(x.hex() for x in sample.instance_drive_scales))


MODELS = [
    VariationModel(),
    VariationModel(sigma_vth_inter=0.0, sigma_vth_intra=0.02,
                   sigma_drive_inter=0.3, sigma_drive_intra=0.0),
    # Clips most draws on both sides.
    VariationModel(sigma_vth_inter=0.05, sigma_drive_intra=0.2,
                   clip_sigmas=0.25),
]


@pytest.mark.parametrize("m", MODELS)
@pytest.mark.parametrize("n_instances", [0, 1, 7, 16])
def test_lot_matches_the_per_die_oracle(m, n_instances):
    for seed in (0, 1, 2009):
        lot = m.sample_lot(40, n_instances, seed=seed)
        oracle = [_oracle_sample_die(m, n_instances, seed=s)
                  for s in _oracle_lot_seeds(40, seed)]
        assert [_hex(s) for s in lot] == [_hex(s) for s in oracle]


@pytest.mark.parametrize("m", MODELS)
@pytest.mark.parametrize("n_instances", [0, 1, 7, 16])
def test_die_and_dies_match_the_oracle(m, n_instances):
    seeds = [0, 3, 42, 2**63 + 5]
    dies = m.sample_dies(n_instances, seeds=seeds)
    for seed, die in zip(seeds, dies):
        expect = _hex(_oracle_sample_die(m, n_instances, seed=seed))
        assert _hex(die) == expect
        assert _hex(m.sample_die(n_instances, seed=seed)) == expect


def test_small_clip_really_clips():
    m = MODELS[2]
    die = m.sample_die(16, seed=5)
    bound = m.clip_sigmas * m.sigma_vth_intra
    assert sum(abs(v) == bound for v in die.instance_vth_shifts) > 4


def test_lot_is_prefix_stable(model):
    assert model.sample_lot(3, 7, seed=9) == model.sample_lot(8, 7,
                                                              seed=9)[:3]


def test_no_seeds_no_dies(model):
    assert model.sample_dies(7, seeds=[]) == []
    assert model.sample_lot(0, 7, seed=1) == []


@pytest.mark.parametrize("n_dies", [0, 2])
def test_negative_instances_rejected_for_any_lot_size(model, n_dies):
    with pytest.raises(ConfigurationError):
        model.sample_lot(n_dies, -1, seed=1)
    with pytest.raises(ConfigurationError):
        model.sample_dies(-1, seeds=[])
