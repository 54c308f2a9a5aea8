"""Comparison baselines from the paper's introduction.

The paper positions its thermometer against three families of prior
art; each gets a quantitative model here so the introduction's
qualitative claims become benches:

* :mod:`repro.baselines.ring_oscillator` — the standard-cell RO sensor
  of their ref [7] (Ogasahara et al.): digital and simple, but it
  averages over its counting window and — the paper's explicit
  criticism — "it cannot distinguish between power and ground voltage
  variations";
* :mod:`repro.baselines.razor` — the Razor shadow-latch scheme of their
  ref [8]: detects actual timing errors in a datapath but reports only
  error/no-error, no noise magnitude, and needs a pipeline to live in;
* :mod:`repro.baselines.analog_sampler` — an idealized on-chip analog
  sampler in the spirit of their ref [5]: the accuracy golden
  reference that a digital sensor trades against.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "RingOscillatorSensor": ".ring_oscillator",
    "RingOscillatorHarness": ".ring_oscillator",
    "RazorStage": ".razor",
    "RazorObservation": ".razor",
    "IdealAnalogSampler": ".analog_sampler",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
