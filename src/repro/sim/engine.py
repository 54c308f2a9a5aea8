"""The event-driven simulation kernel.

Semantics:

* nets hold three-state values; every committed transition is recorded
  in a :class:`~repro.sim.trace.Trace`;
* combinational cells re-evaluate when any input changes and schedule
  their output after a delay computed from the cell model, the net's
  capacitive load, and the *instantaneous* voltage of the instance's
  supply rails (``vdd(t) - gnd(t)``) — the mechanism by which power
  supply noise becomes observable timing behaviour;
* output scheduling is inertial: a re-evaluation that contradicts a
  still-pending output transition cancels it (glitches shorter than the
  gate delay are swallowed);
* D flip-flops sample on the rising edge of their ``CP`` pin using the
  metastability model of :class:`~repro.cells.sequential.DFlipFlop`;
  every sampling event is logged with its outcome, margin and
  resolution time (the data behind the paper's Fig. 2);
* a D-input change landing inside the hold window after a clock edge
  corrupts the just-taken sample to ``UNKNOWN``.
"""

from __future__ import annotations

import math

from repro.cells.base import (
    Cell,
    HIGH,
    LOW,
    LogicValue,
    PinDirection,
    UNKNOWN,
)
from repro.cells.sequential import DFlipFlop
from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.netlist import Instance, Netlist
from repro.sim.trace import SampleRecord, Trace


class SimulationEngine:
    """Runs one netlist.  Create a fresh engine per simulation.

    Args:
        netlist: The (validated) netlist to simulate.
        max_events: Hard cap on processed events; exceeded means a
            runaway oscillation and raises :class:`SimulationError`.
    """

    def __init__(self, netlist: Netlist, *, max_events: int = 2_000_000
                 ) -> None:
        netlist.validate()
        self.netlist = netlist
        # Nets belong to the (reusable) netlist but their runtime state
        # belongs to one engine: reset it so a fresh engine never sees a
        # previous run's values or timestamps.
        for net in netlist.nets.values():
            net.value = UNKNOWN
            net.previous_value = UNKNOWN
            net.last_change = float("-inf")
        self.queue = EventQueue()
        self.trace = Trace()
        self.max_events = max_events
        self._processed = 0
        #: pending inertial event per net (single-driver nets)
        self._pending: dict[str, Event] = {}
        #: nets held at a fixed value (Verilog-style force)
        self._forced: dict[str, LogicValue] = {}
        #: switching energy per driving instance, joules
        self.energy_by_instance: dict[str, float] = {}
        #: last rising clock-edge time per sequential instance
        self._last_clock_edge: dict[str, float] = {}
        #: last sample per sequential instance (for hold corruption)
        self._last_sample: dict[str, SampleRecord] = {}

    # -- stimulus -------------------------------------------------------

    def schedule_stimulus(self, net: str, value: LogicValue,
                          time: float) -> Event:
        """Schedule an external transition on an input net."""
        if net not in self.netlist.nets:
            raise SimulationError(f"unknown net {net!r}")
        return self.queue.schedule(time, net, value, cause="stimulus")

    def force_net(self, net: str, value: LogicValue) -> None:
        """Hold a net at a value; driver events are discarded.

        The fault-injection mechanism (stuck-at faults, test-mode
        overrides), equivalent to Verilog's ``force``.  Applies from
        now until :meth:`release_net`.
        """
        if net not in self.netlist.nets:
            raise SimulationError(f"unknown net {net!r}")
        self._forced[net] = value
        n = self.netlist.nets[net]
        if n.value != value:
            pending = self._pending.pop(net, None)
            if pending is not None:
                pending.cancel()
            n.previous_value = n.value
            n.value = value
            n.last_change = max(self.queue.now, 0.0)
            self.trace.record(net, n.last_change, value)
            for ref in self.netlist.sinks_of(net):
                inst = ref.instance
                if inst.cell.is_sequential:
                    continue  # sequential state follows at clock edges
                self._update_combinational(
                    inst, ref.pin_name,
                    Event(time=n.last_change, seq=-1, net=net,
                          value=value),
                )

    def release_net(self, net: str) -> None:
        """Remove a force; the net follows its driver again from the
        next driver event."""
        self._forced.pop(net, None)

    def set_initial(self, net: str, value: LogicValue) -> None:
        """Set a net's value at t=0 without generating fanout activity.

        Used to establish the PREPARE-phase preconditions; the value is
        recorded in the trace so queries see it.
        """
        n = self.netlist.nets.get(net)
        if n is None:
            raise SimulationError(f"unknown net {net!r}")
        n.previous_value = n.value
        n.value = value
        n.last_change = 0.0
        self.trace.record(net, 0.0, value)

    def settle(self, *, time: float = 0.0, max_iters: int = 10_000
               ) -> int:
        """Zero-delay combinational settling at initialization time.

        Repeatedly evaluates every combinational cell from the current
        net values and applies the outputs immediately, until a fixpoint
        is reached — the standard way to establish consistent internal
        node values from the externally set inputs before the first
        stimulus.  Sequential outputs are untouched.  Settled values are
        recorded in the trace at ``time`` but keep ``last_change`` at
        -inf so flip-flops treat them as ancient (full setup margin).

        Returns:
            The number of settling passes performed.

        Raises:
            SimulationError: if no fixpoint is reached in ``max_iters``
                passes (a combinational loop).
        """
        iters = 0
        changed = True
        while changed:
            iters += 1
            if iters > max_iters:
                raise SimulationError(
                    f"settle did not converge in {max_iters} passes; "
                    "combinational loop?"
                )
            changed = False
            for inst in self.netlist.iter_instances():
                if inst.cell.is_sequential:
                    continue
                outputs = inst.cell.evaluate(self._input_values(inst))
                for pin, val in outputs.items():
                    if inst.net_of(pin) in self._forced:
                        continue
                    net = self.netlist.nets[inst.net_of(pin)]
                    if net.value != val:
                        net.value = val
                        net.previous_value = val
                        net.last_change = float("-inf")
                        self.trace.record(net.name, time, val)
                        changed = True
        return iters

    # -- main loop ------------------------------------------------------

    def run(self, until: float = math.inf) -> float:
        """Process events up to and including time ``until``.

        Returns the time of the last processed event (or ``until`` if
        the queue drained earlier).

        Raises:
            SimulationError: when ``max_events`` is exceeded.
        """
        last_time = self.queue.now
        while True:
            t_next = self.queue.peek_time()
            if t_next is None or t_next > until:
                break
            event = self.queue.pop()
            if event is None:  # pragma: no cover - guarded by peek
                break
            self._processed += 1
            if self._processed > self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events}; "
                    "probable oscillation"
                )
            self._apply(event)
            last_time = event.time
        return last_time

    # -- event application ----------------------------------------------

    def _apply(self, event: Event) -> None:
        net = self.netlist.nets[event.net]
        if self._pending.get(event.net) is event:
            del self._pending[event.net]
        if event.net in self._forced:
            return  # net is held; the driver event is discarded
        if net.value == event.value:
            return  # no transition
        net.previous_value = net.value
        net.value = event.value
        net.last_change = event.time
        self.trace.record(event.net, event.time, event.value)
        self._account_energy(event)
        for ref in self.netlist.sinks_of(event.net):
            inst = ref.instance
            if inst.cell.is_sequential:
                self._update_sequential(inst, ref.pin_name, event)
            else:
                self._update_combinational(inst, ref.pin_name, event)

    def _account_energy(self, event: Event) -> None:
        """Charge ``1/2 * C * V^2`` to the driving cell per transition.

        The standard dynamic-energy model: each committed output
        transition (dis)charges the net's total capacitance (fanout
        pins + explicit cap + the driver's intrinsic cap) through the
        driver, at the driver's instantaneous supply.  External
        stimulus transitions draw from off-netlist sources and are not
        charged.
        """
        driver = self.netlist.driver_of(event.net)
        if driver is None:
            return
        inst = driver.instance
        v = self.netlist.supply_of(inst, event.time)
        cap = (self.netlist.load_of(event.net)
               + inst.cell.model.intrinsic_cap)
        energy = 0.5 * cap * v * v
        self.energy_by_instance[inst.name] = \
            self.energy_by_instance.get(inst.name, 0.0) + energy

    @property
    def total_energy(self) -> float:
        """Total switching energy charged so far, joules."""
        return sum(self.energy_by_instance.values())

    def _input_values(self, inst: Instance) -> dict[str, LogicValue]:
        return {
            pin.name: self.netlist.nets[inst.net_of(pin.name)].value
            for pin in inst.cell.input_pins
        }

    def _update_combinational(self, inst: Instance, changed_pin: str,
                              event: Event) -> None:
        outputs = inst.cell.evaluate(self._input_values(inst))
        supply = self.netlist.supply_of(inst, event.time)
        for out_pin, target in outputs.items():
            out_net = inst.net_of(out_pin)
            load = self.netlist.load_of(out_net)
            delay = inst.cell.propagation_delay(
                changed_pin, out_pin, supply, load
            )
            self._schedule_output(
                out_net, target, event.time, delay,
                cause=f"{inst.name}.{out_pin}",
            )

    def _schedule_output(self, out_net: str, target: LogicValue,
                         now: float, delay: float, *, cause: str) -> None:
        pending = self._pending.get(out_net)
        projected = (pending.value if pending is not None
                     else self.netlist.nets[out_net].value)
        if target == projected:
            return
        if pending is not None:
            pending.cancel()
            del self._pending[out_net]
        if math.isinf(delay):
            # Supply collapsed below threshold: the gate never resolves.
            return
        if self.netlist.nets[out_net].value == target:
            return  # cancellation restored the steady state
        ev = self.queue.schedule(now + delay, out_net, target, cause=cause)
        self._pending[out_net] = ev

    def _update_sequential(self, inst: Instance, changed_pin: str,
                           event: Event) -> None:
        cell = inst.cell
        if not isinstance(cell, DFlipFlop):
            raise SimulationError(
                f"unsupported sequential cell {type(cell).__name__}"
            )
        pin = cell.pin(changed_pin)
        if pin.is_clock:
            clock_net = self.netlist.nets[inst.net_of(changed_pin)]
            rising = event.value == HIGH and clock_net.previous_value == LOW
            if not rising:
                return
            d_net = self.netlist.nets[inst.net_of("D")]
            self._sample_ff(inst, cell, event.time, d_net)
        elif changed_pin == "D":
            self._check_hold(inst, cell, event.time)

    def _sample_ff(self, inst: Instance, cell: DFlipFlop, t_clk: float,
                   d_net) -> None:
        supply = self.netlist.supply_of(inst, t_clk)
        if d_net.last_change == float("-inf"):
            new_value = old_value = d_net.value
            arrival = t_clk - 1.0  # effectively "long ago"
        else:
            new_value = d_net.value
            old_value = d_net.previous_value
            arrival = d_net.last_change
        result = cell.sample(
            new_value=new_value,
            old_value=old_value,
            data_arrival=arrival,
            clock_edge=t_clk,
            supply_v=supply,
        )
        record = SampleRecord(
            time=t_clk,
            instance=inst.name,
            outcome=result.outcome.value,
            value=result.value,
            clk_to_q=result.clk_to_q,
            setup_margin=result.setup_margin,
        )
        self.trace.record_sample(record)
        self._last_clock_edge[inst.name] = t_clk
        self._last_sample[inst.name] = record
        q_net = inst.net_of("Q")
        self._schedule_output(
            q_net, result.value, t_clk, result.clk_to_q,
            cause=f"{inst.name}.Q",
        )

    def _check_hold(self, inst: Instance, cell: DFlipFlop,
                    t_data: float) -> None:
        t_clk = self._last_clock_edge.get(inst.name)
        if t_clk is None:
            return
        supply = self.netlist.supply_of(inst, t_data)
        scale = cell.model.supply_scale(supply)
        if math.isinf(scale):
            return
        if 0.0 <= t_data - t_clk < cell.hold_time * scale:
            # Data moved inside the hold window: the sample is corrupt.
            q_net = inst.net_of("Q")
            self._schedule_output(
                q_net, UNKNOWN, t_data, cell.clk_to_q * scale,
                cause=f"{inst.name}.Q(hold-violation)",
            )
            prev = self._last_sample.get(inst.name)
            if prev is not None:
                self.trace.record_sample(SampleRecord(
                    time=t_data,
                    instance=inst.name,
                    outcome="hold_corrupted",
                    value=UNKNOWN,
                    clk_to_q=cell.clk_to_q * scale,
                    setup_margin=-(t_data - t_clk),
                ))

    # -- bookkeeping ------------------------------------------------------

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def now(self) -> float:
        return self.queue.now
