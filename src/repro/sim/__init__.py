"""Event-driven, supply-aware digital simulator.

This is the reproduction's stand-in for the paper's ELDO runs: a
gate-level event simulator whose per-event delays come from the
alpha-power cell models and — crucially — from the *instantaneous*
voltage of the supply net each cell is connected to.  Supply nets carry
arbitrary waveforms (:mod:`repro.sim.waveform`), so a sensor inverter
powered by a drooping ``VDD-n`` slows down mid-simulation exactly as the
paper's Fig. 2/3 traces show.

Modules:

* :mod:`repro.sim.waveform` — piecewise-linear/analytic voltage and
  current waveforms;
* :mod:`repro.sim.events` — the time-ordered event queue;
* :mod:`repro.sim.netlist` — nets, supply nets, instances, validation;
* :mod:`repro.sim.engine` — the simulation kernel;
* :mod:`repro.sim.trace` — transition recording and queries;
* :mod:`repro.sim.stimulus` — clock/pulse stimulus helpers.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "Waveform": ".waveform",
    "ConstantWaveform": ".waveform",
    "PiecewiseLinearWaveform": ".waveform",
    "SumWaveform": ".waveform",
    "DampedSineWaveform": ".waveform",
    "StepWaveform": ".waveform",
    "Event": ".events",
    "EventQueue": ".events",
    "Net": ".netlist",
    "SupplyNet": ".netlist",
    "Instance": ".netlist",
    "Netlist": ".netlist",
    "SimulationEngine": ".engine",
    "Trace": ".trace",
    "clock_edges": ".stimulus",
    "schedule_clock": ".stimulus",
    "schedule_pulse": ".stimulus",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
