"""repro — reproduction of "A Fully Digital Power Supply Noise
Thermometer" (Graziano & Vittori, IEEE SOCC 2009).

The package builds, from the transistor model up, the paper's fully
digital PSN sensor and everything it needs to be evaluated:

* :mod:`repro.devices` — alpha-power-law 90 nm device models, corners,
  statistical variation;
* :mod:`repro.cells` — the standard-cell library (INV/FF/MUX/delay
  elements) with NLDM characterization;
* :mod:`repro.sim` — a supply-aware event-driven simulator;
* :mod:`repro.psn` — RLC PDN models, activity generators, IR-drop grid;
* :mod:`repro.core` — the sensor itself: single bit, thermometer array,
  pulse generator, encoder, control FSM, full system, calibration to
  the paper's published anchors, trimming, scan chain;
* :mod:`repro.sta` — supply-aware static timing analysis;
* :mod:`repro.baselines` — RO sensor, Razor, ideal analog sampler;
* :mod:`repro.analysis` — word decoding, statistics, reconstruction.

Quickstart::

    from repro import paper_design, SensorSystem
    from repro.sim.waveform import StepWaveform

    design = paper_design()
    system = SensorSystem(design)
    run = system.run(2, vdd_n=StepWaveform(1.0, 0.9, 16e-9))
    for measure in run.hs:
        print(measure.word.to_string(), measure.decoded)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "SensorDesign": ".core.calibration",
    "fit_paper_design": ".core.calibration",
    "paper_design": ".core.calibration",
    "SenseRail": ".core.sensor",
    "SensorBit": ".core.sensor",
    "SensorBitHarness": ".core.sensor",
    "SensorArray": ".core.array",
    "SensorArrayHarness": ".core.array",
    "PulseGenerator": ".core.pulsegen",
    "PulseGeneratorHarness": ".core.pulsegen",
    "ThermometerEncoder": ".core.encoder",
    "MeasurementCounter": ".core.counter",
    "ControlFSM": ".core.control",
    "ControlState": ".core.control",
    "MeasurementResult": ".core.system",
    "SensorSystem": ".core.system",
    "SystemRun": ".core.system",
    "TrimmingPolicy": ".core.trimming",
    "retrim_for_corner": ".core.trimming",
    "PSNScanChain": ".core.scanchain",
    "AutoRangingMeter": ".core.autorange",
    "NoiseMonitor": ".core.monitor",
    "run_yield_study": ".analysis.yield_study",
    "ThermometerWord": ".analysis.thermometer",
    "VoltageRange": ".analysis.thermometer",
    "decode_word": ".analysis.thermometer",
    "TECH_90NM": ".devices.technology",
    "Technology": ".devices.technology",
    "CORNERS": ".devices.corners",
    "corner_by_name": ".devices.corners",
    "ReproError": ".errors",
    "__version__": ".",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
