"""PSN-aware static timing analysis.

The authors' companion methodology (their ref [9], "Including Power
Supply Variations into Static Timing Analysis") folds supply levels
into STA delay calculation.  This package implements that flow over the
reproduction's netlists: per-instance supply-aware delay calculation
(analytic or NLDM-table driven), topological arrival propagation, slack
against a clock period, and critical-path extraction — used to
reproduce the paper's "critical path of the whole control system at
90nm is 1.22ns" claim.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "TimingGraph": ".graph",
    "TimingEdge": ".graph",
    "DelayCalculator": ".delay_calc",
    "TimingReport": ".analysis",
    "PathSegment": ".analysis",
    "analyze": ".analysis",
    "critical_path": ".analysis",
    "min_clock_period": ".analysis",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
