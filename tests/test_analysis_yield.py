"""Monte-Carlo yield-study tests."""

import numpy as np
import pytest

from repro.analysis.yield_study import (
    DieCharacteristic,
    die_characteristic,
    run_yield_study,
)
from repro.devices.variation import VariationModel
from repro.errors import ConfigurationError


NO_VARIATION = VariationModel(sigma_vth_inter=0.0, sigma_vth_intra=0.0,
                              sigma_drive_inter=0.0,
                              sigma_drive_intra=0.0)
MILD = VariationModel(sigma_vth_inter=5e-3, sigma_vth_intra=2e-3,
                      sigma_drive_inter=0.01, sigma_drive_intra=0.005)
HEAVY = VariationModel(sigma_vth_intra=20e-3, sigma_drive_intra=0.06)


def test_no_variation_reproduces_design(design):
    sample = NO_VARIATION.sample_die(design.n_bits, seed=1)
    die = die_characteristic(design, sample)
    for got, want in zip(die.thresholds,
                         design.bit_thresholds_code011):
        assert got == pytest.approx(want, abs=1e-9)
    assert die.monotone


def test_no_variation_perfect_yield(design):
    rep = run_yield_study(design, NO_VARIATION, n_dies=5)
    assert rep.monotone_fraction == 1.0
    assert rep.bubble_rate == 0.0
    assert rep.bracket_rate == 1.0
    assert rep.bracket_rate_calibrated == 1.0
    assert max(rep.threshold_sigma) < 1e-9


def test_mild_variation_mostly_clean(design):
    rep = run_yield_study(design, MILD, n_dies=40)
    assert rep.monotone_fraction > 0.7
    assert rep.bubble_rate < 0.05
    assert rep.bracket_rate > 0.7


def test_heavier_variation_more_bubbles(design):
    mild = run_yield_study(design, MILD, n_dies=40)
    heavy = run_yield_study(design, HEAVY, n_dies=40)
    assert heavy.bubble_rate > mild.bubble_rate
    assert heavy.monotone_fraction < mild.monotone_fraction


def test_calibrated_decode_beats_nominal(design):
    """Per-die characterization recovers what inter-die shift costs —
    the quantitative form of the paper's trimming argument."""
    rep = run_yield_study(design, VariationModel(), n_dies=40)
    assert rep.bracket_rate_calibrated > rep.bracket_rate
    assert rep.bracket_rate_calibrated > 0.85


def test_threshold_sigma_tracks_input_sigma(design):
    rep_small = run_yield_study(design, MILD, n_dies=40)
    rep_big = run_yield_study(design, VariationModel(), n_dies=40)
    assert np.mean(rep_big.threshold_sigma) > \
        np.mean(rep_small.threshold_sigma)


def test_study_deterministic(design):
    a = run_yield_study(design, MILD, n_dies=10, seed=7)
    b = run_yield_study(design, MILD, n_dies=10, seed=7)
    assert a == b


def test_die_word_bubbles_when_thresholds_swap():
    die = DieCharacteristic(thresholds=(0.90, 0.88, 0.95))
    word = die.word_at(0.89)
    # Bit 1 (t=0.90) fails, bit 2 (t=0.88) passes: a bubble.
    assert word.bits == (0, 1, 0)
    assert not word.is_valid_thermometer
    # Corrected decode against the sorted ladder still brackets.
    assert die.decode_at(0.89).contains(0.89)


def test_sample_size_validated(design):
    small = NO_VARIATION.sample_die(3, seed=0)
    with pytest.raises(ConfigurationError):
        die_characteristic(design, small)
    with pytest.raises(ConfigurationError):
        run_yield_study(design, MILD, n_dies=0)


def test_failure_policy_validated_on_every_route(design):
    for backend in (None, "kernel"):
        with pytest.raises(ConfigurationError):
            run_yield_study(design, MILD, n_dies=2, backend=backend,
                            failure_policy="bogus")


class _LotWithout:
    """Variation-model stand-in: a fixed lot with one die left out."""

    def __init__(self, lot, skip):
        self.lot = [s for s in lot if s != skip]

    def sample_lot(self, n_dies, n_instances, *, seed):
        return list(self.lot)


def test_partial_policy_drops_only_the_failing_die(design, monkeypatch):
    from repro.backends import KernelBackend

    n, seed = 8, 5
    lot = MILD.sample_lot(n, design.n_bits, seed=seed)
    chosen = lot[3]
    reference = run_yield_study(design, _LotWithout(lot, chosen),
                                n_dies=n - 1, seed=seed)
    real = KernelBackend.lot_thresholds

    def sabotaged(self, samples, code):
        if any(s == chosen for s in samples):
            raise ValueError("injected solve failure")
        return real(self, samples, code)

    monkeypatch.setattr(KernelBackend, "lot_thresholds", sabotaged)
    report = run_yield_study(design, MILD, n_dies=n, seed=seed,
                             workers=1, failure_policy="partial")
    assert report.n_dies == n - 1
    assert report == reference

    def always_fails(*args, **kwargs):
        raise ValueError("injected solve failure")

    monkeypatch.setattr(KernelBackend, "lot_thresholds", always_fails)
    with pytest.raises(ConfigurationError):
        run_yield_study(design, MILD, n_dies=n, seed=seed, workers=1,
                        failure_policy="partial")


def test_recorded_yield_study_is_one_lot_thresholds_record(design):
    """A named driver scores the whole lot from one ``lot_thresholds``
    op: the recorded trace holds that one measurement record after its
    ``configure``, and replaying it gives the same report."""
    from repro.backends import KernelBackend, RecordingBackend, ReplayBackend

    model = VariationModel()
    recorder = RecordingBackend(KernelBackend())
    report = run_yield_study(design, model, n_dies=6, seed=5,
                             backend=recorder)
    assert [r["op"] for r in recorder.trace.records] == \
        ["configure", "lot_thresholds"]
    assert len(recorder.trace.records[1]["table"]) == 6
    assert report == run_yield_study(design, model, n_dies=6, seed=5)
    replay = ReplayBackend(recorder.trace)
    assert run_yield_study(design, model, n_dies=6, seed=5,
                           backend=replay) == report
    assert replay.exhausted


def test_named_driver_ignores_pool_and_cache(design, tmp_path):
    """A named driver stays one in-process ``lot_thresholds`` call
    under ``workers=`` and ``cache=``: a pool worker would record into
    its own copy of the trace, and a cache hit would skip the record."""
    from repro.backends import KernelBackend, RecordingBackend
    from repro.runtime import ResultCache

    cache = ResultCache(tmp_path)
    recorder = RecordingBackend(KernelBackend())
    report = run_yield_study(design, MILD, n_dies=6, seed=5,
                             backend=recorder, workers=2, cache=cache)
    assert [r["op"] for r in recorder.trace.records] == \
        ["configure", "lot_thresholds"]
    assert cache.entries() == []
    assert (cache.hits, cache.misses) == (0, 0)
    assert report == run_yield_study(design, MILD, n_dies=6, seed=5)


def test_smaller_lot_warms_the_prefix_of_a_larger_one(design, tmp_path):
    """Die ``k``'s key depends on its own sample only, so a 500-die lot
    reads the 200 dies a smaller lot with its seed cached."""
    from repro.runtime import ResultCache

    model = VariationModel()
    run_yield_study(design, model, n_dies=200, seed=11,
                    cache=ResultCache(tmp_path))
    cache = ResultCache(tmp_path)
    report = run_yield_study(design, model, n_dies=500, seed=11,
                             cache=cache)
    assert (cache.hits, cache.misses, cache.errors) == (200, 300, 0)
    assert report == run_yield_study(design, model, n_dies=500, seed=11)
