"""Baseline-model tests: RO sensor, Razor, ideal analog sampler."""

import numpy as np
import pytest

from repro.baselines.analog_sampler import IdealAnalogSampler
from repro.baselines.razor import RazorOutcome, RazorStage
from repro.baselines.ring_oscillator import (
    RingOscillatorHarness,
    RingOscillatorSensor,
)
from repro.errors import ConfigurationError
from repro.sim.waveform import (
    ConstantWaveform,
    DampedSineWaveform,
    PiecewiseLinearWaveform,
    StepWaveform,
)
from repro.units import NS


# -- ring oscillator -----------------------------------------------------------

@pytest.fixture(scope="module")
def ro(design):
    return RingOscillatorSensor(design.tech)


def test_ro_frequency_drops_with_supply(ro):
    assert ro.frequency(0.9) < ro.frequency(1.0)


def test_ro_count_monotone_in_supply(ro):
    counts = [ro.count(100 * NS, vdd_n=v) for v in (0.85, 0.95, 1.05)]
    assert counts[0] < counts[1] < counts[2]


def test_ro_cannot_distinguish_vdd_from_gnd(ro):
    """The paper's §I criticism, quantified: a 50 mV droop and a 50 mV
    bounce give the same count."""
    droop = ro.count(200 * NS, vdd_n=0.95, gnd_n=0.0)
    bounce = ro.count(200 * NS, vdd_n=1.0, gnd_n=0.05)
    assert droop == bounce


def test_ro_averages_over_window(ro):
    """A half-window droop reads as the average, not the droop."""
    wf = StepWaveform(1.0, 0.9, 100 * NS)
    count_avg = ro.count(200 * NS, vdd_n=wf)
    count_nom = ro.count(200 * NS, vdd_n=1.0)
    count_low = ro.count(200 * NS, vdd_n=0.9)
    assert count_low < count_avg < count_nom


def test_ro_estimate_inverts_count(ro):
    c = ro.count(200 * NS, vdd_n=0.95)
    v = ro.estimate_supply(c, 200 * NS)
    assert v == pytest.approx(0.95, abs=0.01)


def test_ro_estimate_fooled_by_bounce(ro):
    """Ground bounce decodes as a phantom VDD droop."""
    c = ro.count(200 * NS, vdd_n=1.0, gnd_n=0.05)
    v = ro.estimate_supply(c, 200 * NS)
    assert v == pytest.approx(0.95, abs=0.01)  # wrong rail blamed


def test_ro_calibration_curve_monotone(ro):
    curve = ro.calibration_curve(np.linspace(0.85, 1.1, 6), 100 * NS)
    counts = [c for _, c in curve]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_ro_estimate_out_of_bracket(ro):
    with pytest.raises(ConfigurationError):
        ro.estimate_supply(10 ** 9, 100 * NS)


def test_ro_validation(design):
    with pytest.raises(ConfigurationError):
        RingOscillatorSensor(design.tech, n_stages=4)  # even
    with pytest.raises(ConfigurationError):
        RingOscillatorSensor(design.tech, n_stages=1)


def test_ro_count_validation(ro):
    with pytest.raises(ConfigurationError):
        ro.count(0.0)
    with pytest.raises(ConfigurationError):
        ro.count(100 * NS, dt=0.0)
    with pytest.raises(ConfigurationError):
        ro.calibration_curve([1.0], -1 * NS)


# -- ring oscillator: exactness against the per-sample scalar loop -------------

def _oracle_frequency(ro, v_eff):
    """The scalar frequency law: ``AlphaPowerModel.delay`` per call."""
    p = 2.0 * ro.n_stages * ro.inv.model.delay(v_eff, ro.inv.pin("A").cap)
    if np.isinf(p):
        return 0.0
    return 1.0 / p


def _oracle_count(ro, window, *, vdd_n=1.0, gnd_n=0.0, dt=10e-12):
    """The per-sample scalar count loop ``count`` must equal exactly."""
    vdd = (ConstantWaveform(vdd_n) if isinstance(vdd_n, (int, float))
           else vdd_n)
    gnd = (ConstantWaveform(gnd_n) if isinstance(gnd_n, (int, float))
           else gnd_n)
    ts = np.arange(0.0, window, dt)
    freqs = np.array([_oracle_frequency(ro, vdd(t) - gnd(t)) for t in ts])
    return int(np.floor(np.trapezoid(freqs, dx=dt)))


#: Static levels from well below threshold (0 Hz lanes) up to 1.6 V.
STATIC_LEVELS = [round(v, 2) for v in np.arange(0.0, 1.61, 0.05)]


def test_ro_frequency_law_matches_scalar_model(ro):
    load = ro.inv.pin("A").cap
    for v in STATIC_LEVELS:
        d = ro.inv.model.delay(v, load)
        assert ro.stage_delay(v) == d
        assert ro.period(v) == 2.0 * ro.n_stages * d
        assert ro.frequency(v) == _oracle_frequency(ro, v)
    assert ro.frequency(0.0) == 0.0


def test_ro_count_static_levels_match_oracle(ro):
    counts = [ro.count(20 * NS, vdd_n=v) for v in STATIC_LEVELS]
    assert counts == [_oracle_count(ro, 20 * NS, vdd_n=v)
                      for v in STATIC_LEVELS]
    assert counts[0] == 0 and counts[-1] > 0


@pytest.mark.parametrize("vdd_n, gnd_n", [(0.95, 0.0), (1.0, 0.05), (1, 0)])
def test_ro_count_a2_rails_match_oracle(ro, vdd_n, gnd_n):
    assert ro.count(200 * NS, vdd_n=vdd_n, gnd_n=gnd_n) \
        == _oracle_count(ro, 200 * NS, vdd_n=vdd_n, gnd_n=gnd_n)


@pytest.mark.parametrize("rails", [
    {"vdd_n": StepWaveform(1.0, 0.9, 100 * NS)},
    # Dips through threshold mid-window: 0 Hz lanes inside one count.
    {"vdd_n": PiecewiseLinearWaveform(
        [0.0, 50 * NS, 80 * NS, 120 * NS], [1.0, 0.1, 0.1, 1.05])},
    {"vdd_n": 1.0, "gnd_n": DampedSineWaveform(
        0.0, 0.08, 50e6, 60 * NS, t0=20 * NS)},
    {"vdd_n": DampedSineWaveform(1.0, -0.1, 80e6, 40 * NS),
     "gnd_n": StepWaveform(0.0, 0.03, 70 * NS)},
])
def test_ro_count_waveform_rails_match_oracle(ro, rails):
    assert ro.count(200 * NS, **rails) == _oracle_count(ro, 200 * NS,
                                                        **rails)


def test_ro_count_uneven_window_matches_oracle(ro):
    window, dt = 10.005 * NS, 7e-12  # window / dt is not an integer
    rail = StepWaveform(1.02, 0.93, 4 * NS)
    assert ro.count(window, vdd_n=rail, dt=dt) \
        == _oracle_count(ro, window, vdd_n=rail, dt=dt)
    assert ro.count(window, vdd_n=0.97, dt=dt) \
        == _oracle_count(ro, window, vdd_n=0.97, dt=dt)


def test_ro_a2_counts_and_estimates_exact(ro):
    """The A2 report's RO columns, as the per-sample loop produced
    them: counts and bisection estimates (dyadic floats) must not
    move by an ulp."""
    scenarios = [
        ({"vdd_n": 1.0, "gnd_n": 0.0}, 224, 0.999725341796875),
        ({"vdd_n": 0.95, "gnd_n": 0.0}, 217, 0.946014404296875),
        ({"vdd_n": 1.0, "gnd_n": 0.05}, 217, 0.946014404296875),
        ({"vdd_n": StepWaveform(1.0, 0.9, 100 * NS)}, 217,
         0.946014404296875),
    ]
    for rails, count, estimate in scenarios:
        c = ro.count(200 * NS, **rails)
        assert c == count
        assert ro.estimate_supply(c, 200 * NS) == estimate


def test_ro_calibration_curve_equals_per_level_counts(ro):
    curve = ro.calibration_curve(np.array(STATIC_LEVELS), 20 * NS)
    assert curve == [(v, ro.count(20 * NS, vdd_n=v))
                     for v in STATIC_LEVELS]


def test_ro_structural_ring_oscillates(design):
    h = RingOscillatorHarness(design.tech)
    count = h.count_edges(20 * NS)
    assert count > 10


def test_ro_structural_slows_at_low_supply(design):
    h = RingOscillatorHarness(design.tech)
    c_nom = h.count_edges(20 * NS, vdd_n=1.0)
    c_low = h.count_edges(20 * NS, vdd_n=0.88)
    assert c_low < c_nom


def test_ro_structural_bounce_equals_droop(design):
    h = RingOscillatorHarness(design.tech)
    c_droop = h.count_edges(20 * NS, vdd_n=0.95, gnd_n=0.0)
    c_bounce = h.count_edges(20 * NS, vdd_n=1.0, gnd_n=0.05)
    assert c_droop == c_bounce


# -- Razor ----------------------------------------------------------------------

@pytest.fixture()
def razor(design):
    return RazorStage(design.tech, path_delay_nominal=1.5 * NS,
                      clock_period=2 * NS, delta=0.25 * NS,
                      setup_time=60e-12)


def test_razor_no_error_at_nominal(razor):
    assert razor.observe(1.0).outcome is RazorOutcome.NO_ERROR


def test_razor_detects_moderate_droop(razor):
    t = razor.error_threshold()
    obs = razor.observe(t - 0.01)
    assert obs.outcome is RazorOutcome.DETECTED_ERROR


def test_razor_silent_below_detection_window(razor):
    lo, hi = razor.detection_window()
    assert lo < hi
    obs = razor.observe(lo - 0.05)
    assert obs.outcome is RazorOutcome.UNDETECTED_FAILURE


def test_razor_binary_vs_thermometer(design, razor):
    """Razor yields one threshold; the thermometer yields seven."""
    razor_thresholds = 1
    assert design.n_bits > razor_thresholds


def test_razor_path_delay_scales(razor):
    assert razor.path_delay(0.9) > razor.path_delay(1.0)
    assert razor.path_delay(1.0) == pytest.approx(1.5 * NS)


def test_razor_validation(design):
    with pytest.raises(ConfigurationError):
        RazorStage(design.tech, path_delay_nominal=1.99 * NS,
                   clock_period=2 * NS, delta=0.25 * NS,
                   setup_time=60e-12)  # fails at nominal already


# -- analog sampler ---------------------------------------------------------------

def test_sampler_quantizes_to_lsb():
    s = IdealAnalogSampler(resolution_bits=8)
    q = s.quantize(0.937)
    assert abs(q - 0.937) <= s.lsb / 2


def test_sampler_clips_to_range():
    s = IdealAnalogSampler(v_min=0.6, v_max=1.4)
    assert s.quantize(0.1) == pytest.approx(0.6)
    assert s.quantize(2.0) <= 1.4


def test_sampler_more_bits_less_error():
    w = ConstantWaveform(0.937)
    ts = np.linspace(0, 1e-7, 64)
    e4 = IdealAnalogSampler(resolution_bits=4).rmse_against(w, ts)
    e10 = IdealAnalogSampler(resolution_bits=10).rmse_against(w, ts)
    assert e10 < e4


def test_sampler_noise_deterministic():
    s = IdealAnalogSampler(noise_rms=0.01, seed=5)
    w = ConstantWaveform(1.0)
    ts = np.linspace(0, 1e-7, 16)
    assert np.array_equal(s.sample(w, ts), s.sample(w, ts))


def test_sampler_jitter_on_moving_signal():
    s_jit = IdealAnalogSampler(jitter_rms=1e-9, seed=7,
                               resolution_bits=12)
    s_clean = IdealAnalogSampler(resolution_bits=12)
    w = StepWaveform(1.0, 0.9, 50e-9)
    ts = np.array([50e-9])
    # Jitter can land the sample on either side of the step.
    assert s_clean.sample(w, ts)[0] in (pytest.approx(0.9, abs=1e-3),)
    assert s_jit.sample(w, ts)[0] in (
        pytest.approx(0.9, abs=1e-3), pytest.approx(1.0, abs=1e-3)
    )


def test_sampler_validation():
    with pytest.raises(ConfigurationError):
        IdealAnalogSampler(resolution_bits=0)
    with pytest.raises(ConfigurationError):
        IdealAnalogSampler(v_min=1.0, v_max=0.9)
    s = IdealAnalogSampler()
    with pytest.raises(ConfigurationError):
        s.sample(ConstantWaveform(1.0), np.array([]))
