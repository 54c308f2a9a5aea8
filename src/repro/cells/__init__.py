"""Standard-cell library: the behavioural 90 nm cell set.

The paper's sensor is "fully digital and standard cell based": an
inverter, a flip-flop, a mux-based pulse generator and ordinary control
logic.  This package provides those cells with timing derived from the
alpha-power device model (:mod:`repro.devices`):

* :mod:`repro.cells.base` — cell/pin/timing framework and logic values;
* :mod:`repro.cells.combinational` — INV/BUF/NAND/NOR/XOR/AOI/MUX;
* :mod:`repro.cells.sequential` — D flip-flops with setup/hold checking
  and a regenerative metastability model;
* :mod:`repro.cells.delay_elements` — trimmed delay buffers for the PG;
* :mod:`repro.cells.library` — named library container;
* :mod:`repro.cells.characterize` — NLDM-style lookup-table generation.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "LOW": ".base",
    "HIGH": ".base",
    "UNKNOWN": ".base",
    "LogicValue": ".base",
    "PinDirection": ".base",
    "Pin": ".base",
    "Cell": ".base",
    "Inverter": ".combinational",
    "Buffer": ".combinational",
    "Nand2": ".combinational",
    "Nor2": ".combinational",
    "And2": ".combinational",
    "Or2": ".combinational",
    "Xor2": ".combinational",
    "Xnor2": ".combinational",
    "Aoi21": ".combinational",
    "Oai21": ".combinational",
    "Mux2": ".combinational",
    "DFlipFlop": ".sequential",
    "SampleOutcome": ".sequential",
    "SampleResult": ".sequential",
    "DelayElement": ".delay_elements",
    "StdCellLibrary": ".library",
    "default_library": ".library",
    "NLDMTable": ".characterize",
    "characterize_cell": ".characterize",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
