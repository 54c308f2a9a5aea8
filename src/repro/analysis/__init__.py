"""Measurement decoding and statistics.

Turns raw thermometer output words into voltage ranges (the flash-ADC
reading the paper describes), checks/repairs code integrity, and
aggregates repeated measures into waveform estimates:

* :mod:`repro.analysis.thermometer` — output words, bubble detection
  and correction, word→voltage-range decoding;
* :mod:`repro.analysis.statistics` — quantization/accuracy metrics for
  the comparison benches;
* :mod:`repro.analysis.reconstruct` — iterated-measure waveform
  reconstruction (the paper's "measures should be iterated so that
  noise values can be captured in different moments").
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "ThermometerWord": ".thermometer",
    "VoltageRange": ".thermometer",
    "decode_word": ".thermometer",
    "decode_table": ".thermometer",
    "quantization_step": ".statistics",
    "range_error": ".statistics",
    "tracking_rmse": ".statistics",
    "coverage_probability": ".statistics",
    "WaveformReconstructor": ".reconstruct",
    "run_yield_study": ".yield_study",
    "YieldReport": ".yield_study",
    "measure_s_curve": ".repeatability",
    "extract_ladder_via_s_curves": ".repeatability",
    "word_histogram": ".repeatability",
    "linearity": ".converter_metrics",
    "effective_resolution_bits": ".converter_metrics",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
