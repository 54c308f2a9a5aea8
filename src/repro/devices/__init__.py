"""Device-level models: the analytic stand-in for the paper's SPICE runs.

The paper characterizes its sensor with ELDO post-layout simulations of a
90 nm standard-cell implementation.  This package provides the behavioural
replacement: a Sakurai–Newton alpha-power-law MOSFET timing model
(:mod:`repro.devices.mosfet`), a 90 nm-class technology description
(:mod:`repro.devices.technology`), discrete process corners
(:mod:`repro.devices.corners`) and statistical process variation
(:mod:`repro.devices.variation`).
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "Technology": ".technology",
    "TECH_90NM": ".technology",
    "AlphaPowerModel": ".mosfet",
    "ProcessCorner": ".corners",
    "CORNERS": ".corners",
    "corner_by_name": ".corners",
    "VariationModel": ".variation",
    "VariationSample": ".variation",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
