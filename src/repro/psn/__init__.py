"""Power-supply-noise substrate.

The paper measures its sensor against supply waveforms produced by a
real 90 nm CUT; we have no silicon, so this package synthesizes the
equivalent electrical environment:

* :mod:`repro.psn.pdn` — a lumped RLC power-delivery-network model
  (package R/L, on-die decap) integrated with a fixed-step trapezoidal
  scheme; produces the classic first-droop and mid-frequency resonance
  waveforms;
* :mod:`repro.psn.activity` — synthetic CUT switching-current
  generators (idle/active bursts, random activity, clock-locked
  triangular pulses);
* :mod:`repro.psn.noise` — direct waveform synthesis for scripted
  scenarios (steps between measures, droop events, band-limited noise)
  plus ready-made scenarios for the paper's figures;
* :mod:`repro.psn.grid` — a resistive on-die power-grid solver for
  spatial IR-drop maps (the multi-point "PSN scan chain" experiments).
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "PDNParameters": ".pdn",
    "PDNModel": ".pdn",
    "ActivityProfile": ".activity",
    "ClockedActivityGenerator": ".activity",
    "NoiseScenario": ".noise",
    "two_level_scenario": ".noise",
    "IRDropGrid": ".grid",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
