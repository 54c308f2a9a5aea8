"""The paper's contribution: the fully digital PSN thermometer.

Layout (mirroring the paper's block diagram, Fig. 6):

* :mod:`repro.core.paperdata` — every number the paper publishes
  (delay-code table, Fig. 4 anchor, Fig. 5 ranges, Fig. 9 codes);
* :mod:`repro.core.calibration` — fits the technology model to those
  anchors and emits the :class:`~repro.core.calibration.SensorDesign`
  used by every component;
* :mod:`repro.core.sensor` — the single-bit INV+FF+C sensor (Fig. 1
  left) with analytic and event-simulated measurement paths;
* :mod:`repro.core.array` — the multi-bit thermometer (Fig. 1 right);
* :mod:`repro.core.pulsegen` — the PG with eight delay codes (Fig. 7);
* :mod:`repro.core.encoder` — thermometer-to-binary ENC with bubble
  correction;
* :mod:`repro.core.counter` — measurement sequencing counter;
* :mod:`repro.core.control` — the CNTR FSM (Fig. 8);
* :mod:`repro.core.system` — the assembled sensor system (Fig. 6);
* :mod:`repro.core.characterization` — threshold extraction (Figs. 4/5);
* :mod:`repro.core.trimming` — process-corner delay-code retrimming;
* :mod:`repro.core.scanchain` — multi-point PSN scan chain.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "SensorDesign": ".calibration",
    "fit_paper_design": ".calibration",
    "paper_design": ".calibration",
    "SenseRail": ".sensor",
    "SensorBit": ".sensor",
    "SensorBitHarness": ".sensor",
    "SensorArray": ".array",
    "SensorArrayHarness": ".array",
    "PulseGenerator": ".pulsegen",
    "ThermometerEncoder": ".encoder",
    "MeasurementCounter": ".counter",
    "ControlFSM": ".control",
    "ControlState": ".control",
    "SensorSystem": ".system",
    "MeasurementResult": ".system",
    "characterize_bit_thresholds": ".characterization",
    "characterize_array": ".characterization",
    "threshold_vs_capacitance": ".characterization",
    "TrimmingPolicy": ".trimming",
    "retrim_for_corner": ".trimming",
    "PSNScanChain": ".scanchain",
    "AutoRangingMeter": ".autorange",
    "NoiseMonitor": ".monitor",
    "ScanRegisterHarness": ".scan_register",
    "FaultInjector": ".faults",
    "FaultType": ".faults",
    "coverage_study": ".faults",
    "MeasuredDecoder": ".calibrated_decoder",
    "GuardbandController": ".guardband",
    "GuardbandAction": ".guardband",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
