"""Direct noise-waveform synthesis and scripted scenarios.

Not every experiment wants the full PDN integration: the paper's own
figures drive the sensor with *scripted* supply levels (1.00 V then
0.95 V in Fig. 3; 1.00 V then 0.90 V in Fig. 9).  This module builds
those scripted rails, plus richer composites — DC IR drop, resonant
ringing, band-limited stochastic noise — for the accuracy experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.waveform import (
    ConstantWaveform,
    DampedSineWaveform,
    PiecewiseLinearWaveform,
    StepWaveform,
    SumWaveform,
    Waveform,
)


def two_level_scenario(v_first: float, v_second: float,
                       t_switch: float) -> StepWaveform:
    """The paper's two-measure rail: ``v_first`` then ``v_second``.

    Fig. 3 uses (1.00 V, 0.95 V); Fig. 9 uses (1.00 V, 0.90 V).
    """
    if v_first <= 0 or v_second <= 0:
        raise ConfigurationError("levels must be positive")
    return StepWaveform(before=v_first, after=v_second, t_step=t_switch)


def droop_event(base: float, depth: float, t0: float, *,
                freq: float = 100e6, decay: float = 20e-9
                ) -> SumWaveform:
    """A first-droop event: a dip of ``depth`` ringing back at ``freq``.

    Modelled as the base rail plus a damped sine whose first half-cycle
    is the droop (negative amplitude).
    """
    if depth < 0:
        raise ConfigurationError("depth must be non-negative")
    return SumWaveform([
        ConstantWaveform(base),
        DampedSineWaveform(base=0.0, amplitude=-depth, freq=freq,
                           decay=decay, t0=t0),
    ])


def band_limited_noise(*, t_end: float, dt: float, rms: float,
                       bandwidth: float, seed: int,
                       mean: float = 0.0) -> PiecewiseLinearWaveform:
    """Seeded Gaussian noise low-passed to ``bandwidth``.

    A 4th-order Butterworth low-pass shapes white Gaussian samples; the
    result is rescaled to the requested RMS about ``mean``.  Used to
    emulate broadband switching noise riding on the rail.

    Raises:
        ConfigurationError: if the bandwidth is not resolvable at ``dt``
            (must be below the Nyquist rate ``0.5/dt``).
    """
    if t_end <= 0 or dt <= 0:
        raise ConfigurationError("t_end and dt must be positive")
    if rms < 0:
        raise ConfigurationError("rms must be non-negative")
    nyquist = 0.5 / dt
    if not 0 < bandwidth < nyquist:
        raise ConfigurationError(
            f"bandwidth {bandwidth:g} Hz must lie in (0, {nyquist:g} Hz) "
            f"for dt={dt:g}s"
        )
    n = int(round(t_end / dt)) + 1
    rng = np.random.default_rng(seed)
    white = rng.normal(0.0, 1.0, size=n)
    # Imported here so that only a process that filters pays for
    # scipy.signal (see repro.kernels.transient).
    from scipy import signal as sp_signal

    b, a = sp_signal.butter(4, bandwidth / nyquist)
    shaped = sp_signal.lfilter(b, a, white)
    std = float(np.std(shaped))
    if std > 0 and rms > 0:
        shaped = shaped / std * rms
    else:
        shaped = np.zeros(n)
    times = np.arange(n) * dt
    return PiecewiseLinearWaveform(times, shaped + mean)


@dataclass
class NoiseScenario:
    """A composable description of one VDD-n / GND-n environment.

    Build up the scenario with the ``with_*`` methods, then call
    :meth:`build` to get the two rail waveforms.  The default scenario
    is clean nominal rails.

    Attributes:
        vdd_nominal: Nominal supply level, volts.
        t_end: Scenario duration, seconds (used by stochastic parts).
        dt: Sample step for stochastic parts, seconds.
        seed: RNG seed for stochastic parts.
    """

    vdd_nominal: float = 1.0
    t_end: float = 200e-9
    dt: float = 20e-12
    seed: int = 1234
    _vdd_parts: list[Waveform] = field(default_factory=list)
    _gnd_parts: list[Waveform] = field(default_factory=list)
    _ir_drop: float = 0.0
    _gnd_rise: float = 0.0

    def with_ir_drop(self, drop: float) -> "NoiseScenario":
        """Static IR drop on VDD-n, volts."""
        if drop < 0:
            raise ConfigurationError("drop must be non-negative")
        self._ir_drop = drop
        return self

    def with_ground_rise(self, rise: float) -> "NoiseScenario":
        """Static ground shift on GND-n, volts."""
        if rise < 0:
            raise ConfigurationError("rise must be non-negative")
        self._gnd_rise = rise
        return self

    def with_vdd_droop(self, depth: float, t0: float, *,
                       freq: float = 100e6,
                       decay: float = 20e-9) -> "NoiseScenario":
        """Add a resonant droop event on VDD-n."""
        self._vdd_parts.append(DampedSineWaveform(
            base=0.0, amplitude=-depth, freq=freq, decay=decay, t0=t0,
        ))
        return self

    def with_gnd_bounce(self, height: float, t0: float, *,
                        freq: float = 100e6,
                        decay: float = 20e-9) -> "NoiseScenario":
        """Add a resonant bounce event on GND-n."""
        self._gnd_parts.append(DampedSineWaveform(
            base=0.0, amplitude=height, freq=freq, decay=decay, t0=t0,
        ))
        return self

    def with_vdd_random_noise(self, rms: float, *,
                              bandwidth: float = 500e6) -> "NoiseScenario":
        """Add band-limited stochastic noise on VDD-n."""
        self._vdd_parts.append(band_limited_noise(
            t_end=self.t_end, dt=self.dt, rms=rms,
            bandwidth=bandwidth, seed=self.seed,
        ))
        return self

    def with_gnd_random_noise(self, rms: float, *,
                              bandwidth: float = 500e6) -> "NoiseScenario":
        """Add band-limited stochastic noise on GND-n."""
        self._gnd_parts.append(band_limited_noise(
            t_end=self.t_end, dt=self.dt, rms=rms,
            bandwidth=bandwidth, seed=self.seed + 1,
        ))
        return self

    def build(self) -> tuple[Waveform, Waveform]:
        """Return ``(vdd_n, gnd_n)`` waveforms."""
        vdd_parts: list[Waveform] = [
            ConstantWaveform(self.vdd_nominal - self._ir_drop)
        ]
        vdd_parts.extend(self._vdd_parts)
        gnd_parts: list[Waveform] = [ConstantWaveform(self._gnd_rise)]
        gnd_parts.extend(self._gnd_parts)
        vdd = vdd_parts[0] if len(vdd_parts) == 1 else SumWaveform(vdd_parts)
        gnd = gnd_parts[0] if len(gnd_parts) == 1 else SumWaveform(gnd_parts)
        return vdd, gnd
