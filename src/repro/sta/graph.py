"""Timing graph construction from a netlist.

Nodes are nets; edges are cell timing arcs (one per input→output pin
pair of each combinational instance).  Sequential cells break the
graph: their Q nets are *launch* points (arrival = clock-to-Q) and
their D nets are *capture* endpoints (required = period − setup).
External input nets launch at t = 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cells.base import PinDirection
from repro.cells.sequential import DFlipFlop
from repro.errors import NetlistError
from repro.sim.netlist import Instance, Netlist
from repro.sta.delay_calc import DelayCalculator


@dataclass(frozen=True)
class TimingEdge:
    """One timing arc: ``from_net`` through a cell to ``to_net``."""

    from_net: str
    to_net: str
    instance: str
    input_pin: str
    output_pin: str
    delay: float


@dataclass
class TimingGraph:
    """The levelized arc graph of one netlist.

    Attributes:
        netlist: Source netlist.
        edges_from: Outgoing arcs per net.
        edges_to: Incoming arcs per net.
        launch_arrivals: Initial arrival per launch net, seconds.
        capture_setups: Setup time per capture (FF D) net, seconds.
        capture_clk_to_q: Clock-to-Q used for launch FFs, seconds.
        topo_order: Nets in topological order.
    """

    netlist: Netlist
    edges_from: dict[str, list[TimingEdge]] = field(default_factory=dict)
    edges_to: dict[str, list[TimingEdge]] = field(default_factory=dict)
    launch_arrivals: dict[str, float] = field(default_factory=dict)
    capture_setups: dict[str, float] = field(default_factory=dict)
    #: Launch nets that are flip-flop Q outputs (same-clock launches);
    #: hold analysis seeds only from these — primary inputs are treated
    #: as unconstrained for min-delay checks, per standard STA practice.
    sequential_launch_nets: set[str] = field(default_factory=set)
    topo_order: list[str] = field(default_factory=list)

    @classmethod
    def build(cls, netlist: Netlist,
              calculator: DelayCalculator | None = None) -> "TimingGraph":
        """Construct the graph and compute every arc delay.

        Raises:
            NetlistError: on a combinational cycle.
        """
        calc = calculator if calculator is not None else \
            DelayCalculator(netlist)
        graph = cls(netlist=netlist)

        for inst in netlist.iter_instances():
            if inst.cell.is_sequential:
                graph._add_sequential(inst, calc)
            else:
                graph._add_combinational(inst, calc)
        for net in netlist.nets:
            if netlist.is_external_input(net):
                graph.launch_arrivals.setdefault(net, 0.0)
        graph._toposort()
        return graph

    def _add_combinational(self, inst: Instance,
                           calc: DelayCalculator) -> None:
        in_pins = [p for p in inst.cell.input_pins]
        out_pins = [p for p in inst.cell.output_pins]
        for ip in in_pins:
            for op in out_pins:
                edge = TimingEdge(
                    from_net=inst.net_of(ip.name),
                    to_net=inst.net_of(op.name),
                    instance=inst.name,
                    input_pin=ip.name,
                    output_pin=op.name,
                    delay=calc.arc_delay(inst, ip.name, op.name),
                )
                self.edges_from.setdefault(edge.from_net, []).append(edge)
                self.edges_to.setdefault(edge.to_net, []).append(edge)

    def _add_sequential(self, inst: Instance,
                        calc: DelayCalculator) -> None:
        cell = inst.cell
        if not isinstance(cell, DFlipFlop):
            raise NetlistError(
                f"STA supports DFlipFlop sequentials, got "
                f"{type(cell).__name__}"
            )
        supply = calc.supply_of(inst)
        scale = cell.model.supply_scale(supply)
        q_net = inst.net_of("Q")
        d_net = inst.net_of("D")
        launch = cell.clk_to_q * scale
        prev = self.launch_arrivals.get(q_net)
        self.launch_arrivals[q_net] = max(launch, prev or 0.0)
        self.sequential_launch_nets.add(q_net)
        setup = cell.setup_time * scale
        prev_setup = self.capture_setups.get(d_net)
        self.capture_setups[d_net] = max(setup, prev_setup or 0.0)

    def _toposort(self) -> None:
        """Kahn's algorithm over nets reachable through arcs."""
        indeg: dict[str, int] = {net: 0 for net in self.netlist.nets}
        for edges in self.edges_from.values():
            for e in edges:
                indeg[e.to_net] += 1
        queue = deque(net for net, d in indeg.items() if d == 0)
        order: list[str] = []
        while queue:
            net = queue.popleft()
            order.append(net)
            for e in self.edges_from.get(net, ()):
                indeg[e.to_net] -= 1
                if indeg[e.to_net] == 0:
                    queue.append(e.to_net)
        if len(order) != len(indeg):
            cyclic = sorted(net for net, d in indeg.items() if d > 0)
            raise NetlistError(
                f"combinational cycle through nets: {cyclic[:8]}"
            )
        self.topo_order = order
