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

Per-event work reads the netlist's
:class:`~repro.sim.netlist.CompiledNetlist`, taken when the engine is
built: each net's load, driver and energy cap, tagged fanout tuples,
each instance's rails, input pairs and output ``(net, load, cause)``
entries.  Rail waveforms and net values are read live, so a
``set_supply_waveform`` between runs needs no recompile; a structural
mutation of the netlist is seen by the next engine, not this one.
Cells are still asked for every delay (``Cell.propagation_delay``) and
every sample (``DFlipFlop.sample``).
"""

from __future__ import annotations

import math

from repro.cells.base import HIGH, LOW, LogicValue, UNKNOWN
from repro.cells.sequential import DFlipFlop
from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.netlist import (
    CLOCK,
    COMBINATIONAL,
    DATA,
    Net,
    Netlist,
    GateView,
    NetView,
)
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
        netlist.validate()  # also rebuilds a view with stale caps
        self.netlist = netlist
        # The structure this engine runs on: later mutations of the
        # netlist build a new view for the next engine, not this one.
        view = netlist.compiled()
        self._nodes = view.nodes
        self._gates = view.gates
        # Nets belong to the (reusable) netlist but their runtime state
        # belongs to one engine: reset it so a fresh engine never sees a
        # previous run's values or timestamps.
        for node in self._nodes.values():
            net = node.net
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
        if net not in self._nodes:
            raise SimulationError(f"unknown net {net!r}")
        return self.queue.schedule(time, net, value, cause="stimulus")

    def force_net(self, net: str, value: LogicValue) -> None:
        """Hold a net at a value; driver events are discarded.

        The fault-injection mechanism (stuck-at faults, test-mode
        overrides), equivalent to Verilog's ``force``.  Applies from
        now until :meth:`release_net`.
        """
        node = self._nodes.get(net)
        if node is None:
            raise SimulationError(f"unknown net {net!r}")
        self._forced[net] = value
        n = node.net
        if n.value != value:
            pending = self._pending.pop(net, None)
            if pending is not None:
                pending.cancel()
            n.previous_value = n.value
            n.value = value
            n.last_change = max(self.queue.now, 0.0)
            self.trace.record(net, n.last_change, value)
            for gate, pin, tag in node.fanout:
                if tag != COMBINATIONAL:
                    continue  # sequential state follows at clock edges
                self._update_combinational(
                    gate, pin,
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
        node = self._nodes.get(net)
        if node is None:
            raise SimulationError(f"unknown net {net!r}")
        n = node.net
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
            for gate in self._gates.values():
                if gate.cell.is_sequential:
                    continue
                outputs = gate.cell.evaluate(
                    {pin: net.value for pin, net in gate.inputs}
                )
                for pin, val in outputs.items():
                    name, net, _, _ = gate.outputs[pin]
                    if name in self._forced:
                        continue
                    if net.value != val:
                        net.value = val
                        net.previous_value = val
                        net.last_change = float("-inf")
                        self.trace.record(name, time, val)
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
        queue = self.queue
        apply = self._apply
        last_time = queue.now
        while True:
            t_next = queue.peek_time()
            if t_next is None or t_next > until:
                break
            event = queue.pop()
            if event is None:  # pragma: no cover - guarded by peek
                break
            self._processed += 1
            if self._processed > self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events}; "
                    "probable oscillation"
                )
            apply(event)
            last_time = event.time
        return last_time

    # -- event application ----------------------------------------------

    def _apply(self, event: Event) -> None:
        name = event.net
        if self._pending.get(name) is event:
            del self._pending[name]
        if name in self._forced:
            return  # net is held; the driver event is discarded
        node = self._nodes[name]
        net = node.net
        if net.value == event.value:
            return  # no transition
        net.previous_value = net.value
        net.value = event.value
        net.last_change = event.time
        self.trace.record(name, event.time, event.value)
        self._account_energy(node, event.time)
        for gate, pin, tag in node.fanout:
            if tag == COMBINATIONAL:
                self._update_combinational(gate, pin, event)
            else:
                self._update_sequential(gate, pin, tag, event)

    def _account_energy(self, node: NetView, t: float) -> None:
        """Charge ``1/2 * C * V^2`` to the driving cell per transition.

        The standard dynamic-energy model: each committed output
        transition (dis)charges the net's total capacitance (fanout
        pins + explicit cap + the driver's intrinsic cap) through the
        driver, at the driver's instantaneous supply.  External
        stimulus transitions draw from off-netlist sources and are not
        charged.
        """
        gate = node.driver
        if gate is None:
            return
        v = gate.supply(t)
        energy = 0.5 * node.energy_cap * v * v
        self.energy_by_instance[gate.name] = \
            self.energy_by_instance.get(gate.name, 0.0) + energy

    @property
    def total_energy(self) -> float:
        """Total switching energy charged so far, joules."""
        return sum(self.energy_by_instance.values())

    def _update_combinational(self, gate: GateView, changed_pin: str,
                              event: Event) -> None:
        cell = gate.cell
        outputs = cell.evaluate({pin: net.value for pin, net in gate.inputs})
        supply = gate.supply(event.time)
        for out_pin, target in outputs.items():
            name, net, load, cause = gate.outputs[out_pin]
            delay = cell.propagation_delay(
                changed_pin, out_pin, supply, load
            )
            self._schedule_output(name, net, target, event.time, delay,
                                  cause)

    def _schedule_output(self, name: str, net: Net, target: LogicValue,
                         now: float, delay: float, cause: str) -> None:
        pending = self._pending.get(name)
        projected = pending.value if pending is not None else net.value
        if target == projected:
            return
        if pending is not None:
            pending.cancel()
            del self._pending[name]
        if math.isinf(delay):
            # Supply collapsed below threshold: the gate never resolves.
            return
        if net.value == target:
            return  # cancellation restored the steady state
        self._pending[name] = self.queue.schedule(now + delay, name, target,
                                                  cause=cause)

    def _update_sequential(self, gate: GateView, changed_pin: str, tag: int,
                           event: Event) -> None:
        cell = gate.cell
        if not isinstance(cell, DFlipFlop):
            raise SimulationError(
                f"unsupported sequential cell {type(cell).__name__}"
            )
        if tag == CLOCK:
            clock_net = gate.pins[changed_pin]
            rising = event.value == HIGH and clock_net.previous_value == LOW
            if not rising:
                return
            self._sample_ff(gate, cell, event.time, gate.pins["D"])
        elif tag == DATA:
            self._check_hold(gate, cell, event.time)

    def _sample_ff(self, gate: GateView, cell: DFlipFlop, t_clk: float,
                   d_net: Net) -> None:
        supply = gate.supply(t_clk)
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
            instance=gate.name,
            outcome=result.outcome.value,
            value=result.value,
            clk_to_q=result.clk_to_q,
            setup_margin=result.setup_margin,
        )
        self.trace.record_sample(record)
        self._last_clock_edge[gate.name] = t_clk
        self._last_sample[gate.name] = record
        name, net, _, cause = gate.outputs["Q"]
        self._schedule_output(name, net, result.value, t_clk,
                              result.clk_to_q, cause)

    def _check_hold(self, gate: GateView, cell: DFlipFlop,
                    t_data: float) -> None:
        t_clk = self._last_clock_edge.get(gate.name)
        if t_clk is None:
            return
        supply = gate.supply(t_data)
        scale = cell.model.supply_scale(supply)
        if math.isinf(scale):
            return
        if 0.0 <= t_data - t_clk < cell.hold_time * scale:
            # Data moved inside the hold window: the sample is corrupt.
            name, net, _, cause = gate.outputs["Q"]
            self._schedule_output(
                name, net, UNKNOWN, t_data, cell.clk_to_q * scale,
                f"{cause}(hold-violation)",
            )
            prev = self._last_sample.get(gate.name)
            if prev is not None:
                self.trace.record_sample(SampleRecord(
                    time=t_data,
                    instance=gate.name,
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
