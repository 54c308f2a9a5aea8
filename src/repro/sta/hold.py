"""Hold (min-delay) analysis.

The max-delay pass in :mod:`repro.sta.analysis` answers "can the clock
be this fast?"; the hold pass answers "does fast data race through and
corrupt the *same-edge* capture?" — the failure the event engine models
as hold corruption.  For each capture FF the earliest possible data
arrival (launch clock-to-Q plus the *shortest* combinational path) must
exceed the FF's hold time:

    hold_slack = min_arrival - t_hold        (>= 0 required)

Useful in this reproduction both as a completeness feature of the STA
substrate and as a real check on the control netlist (short FSM
feedback paths are classic hold risks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cells.sequential import DFlipFlop
from repro.errors import ConfigurationError
from repro.sim.netlist import Netlist
from repro.sta.analysis import PathSegment
from repro.sta.delay_calc import DelayCalculator
from repro.sta.graph import TimingEdge, TimingGraph


@dataclass(frozen=True)
class HoldReport:
    """Result of one hold-analysis run.

    Attributes:
        min_arrivals: Earliest arrival per net, seconds.
        hold_slacks: Per-FF-D-net hold slack (positive = safe), s.
        worst_endpoint: The endpoint with the smallest slack.
        shortest_path: Launch-to-capture segments of the worst (i.e.
            fastest) path.
    """

    min_arrivals: dict[str, float]
    hold_slacks: dict[str, float]
    worst_endpoint: str
    shortest_path: tuple[PathSegment, ...]

    @property
    def whs(self) -> float:
        """Worst hold slack."""
        return min(self.hold_slacks.values())

    @property
    def clean(self) -> bool:
        return self.whs >= 0.0


def _hold_times(netlist: Netlist,
                calc: DelayCalculator) -> dict[str, float]:
    """Per-capture-net hold requirement (supply-scaled)."""
    out: dict[str, float] = {}
    for inst in netlist.iter_instances():
        if not isinstance(inst.cell, DFlipFlop):
            continue
        cell = inst.cell
        supply = calc.supply_of(inst)
        scale = cell.model.supply_scale(supply)
        d_net = inst.net_of("D")
        req = cell.hold_time * scale
        out[d_net] = max(out.get(d_net, 0.0), req)
    return out


def analyze_hold(netlist: Netlist, *,
                 calculator: DelayCalculator | None = None
                 ) -> HoldReport:
    """Run min-delay propagation and hold checks.

    Raises:
        ConfigurationError: when the netlist has no capture endpoints.
    """
    calc = calculator if calculator is not None else \
        DelayCalculator(netlist)
    graph = TimingGraph.build(netlist, calc)
    if not graph.capture_setups:
        raise ConfigurationError(
            "netlist has no flip-flop capture endpoints to analyze"
        )
    holds = _hold_times(netlist, calc)

    # Seed only from clocked launches: a primary input changing at the
    # clock edge is an input-constraint question, not a same-edge race.
    arrivals: dict[str, float] = {
        net: t for net, t in graph.launch_arrivals.items()
        if net in graph.sequential_launch_nets
    }
    best_in_edge: dict[str, TimingEdge] = {}
    for net in graph.topo_order:
        for e in graph.edges_from.get(net, ()):
            src = arrivals.get(net)
            if src is None:
                continue
            candidate = src + e.delay
            if candidate < arrivals.get(e.to_net, float("inf")):
                arrivals[e.to_net] = candidate
                best_in_edge[e.to_net] = e

    # Endpoints never reached from a clocked launch are unconstrained
    # (fed by primary inputs only) and are excluded from the checks.
    slacks = {
        net: arrivals[net] - holds.get(net, 0.0)
        for net in graph.capture_setups
        if net in arrivals
    }
    if not slacks:
        raise ConfigurationError(
            "no hold-constrained endpoints (every capture FF is fed "
            "directly from primary inputs)"
        )
    worst = min(slacks, key=slacks.__getitem__)

    segments: list[PathSegment] = []
    net = worst
    while net in best_in_edge:
        e = best_in_edge[net]
        segments.append(PathSegment(
            net=net,
            instance=e.instance,
            input_pin=e.input_pin,
            output_pin=e.output_pin,
            delay=e.delay,
            cumulative=arrivals[net],
        ))
        net = e.from_net
    segments.reverse()
    return HoldReport(
        min_arrivals=arrivals,
        hold_slacks=slacks,
        worst_endpoint=worst,
        shortest_path=tuple(segments),
    )
