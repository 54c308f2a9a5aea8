"""Nets, supply nets, cell instances and the netlist container.

The structural model mirrors what the paper's sensor needs:

* **signal nets** carry logic values and accumulate load capacitance
  from the input pins they fan out to plus any *explicit* capacitor —
  the sensor's programmable ``C`` at the delay-sense node is exactly an
  explicit net capacitance;
* **supply nets** carry voltage waveforms; every instance names the
  supply net powering it, so the noisy ``VDD-n`` rail and the nominal
  control-logic rail coexist in one netlist (paper Fig. 6's central
  trick: sensor inverters on the noisy rail, everything else nominal).

The event engine reads a netlist through its :class:`CompiledNetlist`,
built on first use and dropped by every structural mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.cells.base import Cell, LogicValue, Pin, PinDirection, UNKNOWN
from repro.errors import NetlistError
from repro.sim.waveform import ConstantWaveform, Waveform


@dataclass
class Net:
    """A signal net.

    Attributes:
        name: Unique net name.
        extra_cap: Explicit capacitance attached to the net, farads
            (the sensor's load ``C``).  It may be changed in place: the
            netlist's next :meth:`Netlist.validate` (so its next
            engine) and :meth:`Netlist.load_of` see the new value.
        value: Current logic value (engine-owned at run time).
        last_change: Time of the most recent transition, seconds.
        previous_value: Value held before the most recent transition.
    """

    name: str
    extra_cap: float = 0.0
    value: LogicValue = UNKNOWN
    last_change: float = float("-inf")
    previous_value: LogicValue = UNKNOWN

    def __post_init__(self) -> None:
        if self.extra_cap < 0:
            raise NetlistError(f"net {self.name}: extra_cap must be >= 0")


@dataclass
class SupplyNet:
    """A power/ground rail carrying a voltage waveform.

    Attributes:
        name: Unique rail name (e.g. ``"VDDN"``, ``"VDD"``, ``"GNDN"``).
        waveform: Voltage vs. time; a plain float is wrapped in a
            :class:`ConstantWaveform`.
        is_ground: True for ground-reference rails; the effective supply
            of an instance is ``vdd(t) - gnd(t)`` and ground *bounce* on
            ``GND-n`` raises the rail above 0 V.
    """

    name: str
    waveform: Waveform
    is_ground: bool = False

    def voltage(self, t: float) -> float:
        return self.waveform(t)


@dataclass
class Instance:
    """A placed cell with its pin-to-net connections.

    Attributes:
        name: Unique instance name.
        cell: The library cell (owns logic + timing).
        connections: Pin name -> net name.
        vdd: Name of the supply rail powering this instance.
        gnd: Name of the ground rail referencing this instance.
    """

    name: str
    cell: Cell
    connections: dict[str, str]
    vdd: str
    gnd: str

    def net_of(self, pin: str) -> str:
        try:
            return self.connections[pin]
        except KeyError:
            raise NetlistError(
                f"instance {self.name}: pin {pin!r} is not connected"
            ) from None


@dataclass
class _PinRef:
    """(instance, pin) endpoint attached to a net."""

    instance: Instance
    pin_name: str
    pin: Pin


class Netlist:
    """A flat gate-level netlist with supply binding and validation."""

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.nets: dict[str, Net] = {}
        self.supplies: dict[str, SupplyNet] = {}
        self.instances: dict[str, Instance] = {}
        self._sinks: dict[str, list[_PinRef]] = {}
        self._driver: dict[str, _PinRef] = {}
        self._external_inputs: set[str] = set()
        self._view: CompiledNetlist | None = None

    # -- construction ---------------------------------------------------

    def add_net(self, name: str, *, extra_cap: float = 0.0) -> Net:
        """Create a signal net.

        Raises:
            NetlistError: on duplicate name (against nets or supplies).
        """
        self._check_fresh_name(name)
        net = Net(name=name, extra_cap=extra_cap)
        self._view = None
        self.nets[name] = net
        self._sinks[name] = []
        return net

    def add_supply(self, name: str, waveform: Waveform | float, *,
                   is_ground: bool = False) -> SupplyNet:
        """Create a supply rail; floats become constant waveforms."""
        self._check_fresh_name(name)
        if isinstance(waveform, (int, float)):
            waveform = ConstantWaveform(float(waveform))
        rail = SupplyNet(name=name, waveform=waveform, is_ground=is_ground)
        self._view = None
        self.supplies[name] = rail
        return rail

    def set_supply_waveform(self, name: str,
                            waveform: Waveform | float) -> None:
        """Rebind a rail's waveform (e.g. a new noise trace per run).

        The rail object is updated in place, so a compiled view (and
        any engine holding one) sees the new waveform.
        """
        if name not in self.supplies:
            raise NetlistError(f"unknown supply rail {name!r}")
        if isinstance(waveform, (int, float)):
            waveform = ConstantWaveform(float(waveform))
        self.supplies[name].waveform = waveform

    def add_instance(self, name: str, cell: Cell,
                     connections: dict[str, str], *,
                     vdd: str, gnd: str) -> Instance:
        """Place a cell and wire its pins.

        Every cell pin must be mapped to an existing net; output pins
        claim exclusive drivership of their net.

        Raises:
            NetlistError: duplicate instance, unknown net/rail,
                unconnected pin, or multiply-driven net.
        """
        if name in self.instances:
            raise NetlistError(f"duplicate instance name {name!r}")
        if vdd not in self.supplies or gnd not in self.supplies:
            raise NetlistError(
                f"instance {name}: unknown supply {vdd!r} or {gnd!r}"
            )
        for pin_name in cell.pins:
            if pin_name not in connections:
                raise NetlistError(
                    f"instance {name}: pin {pin_name!r} left unconnected"
                )
        for pin_name, net_name in connections.items():
            pin = cell.pin(pin_name)  # validates pin name
            if net_name not in self.nets:
                raise NetlistError(
                    f"instance {name}: pin {pin_name!r} wired to unknown "
                    f"net {net_name!r}"
                )
            del pin
        inst = Instance(name=name, cell=cell,
                        connections=dict(connections), vdd=vdd, gnd=gnd)
        self._view = None
        for pin_name, net_name in connections.items():
            ref = _PinRef(instance=inst, pin_name=pin_name,
                          pin=cell.pin(pin_name))
            if ref.pin.direction is PinDirection.OUTPUT:
                if net_name in self._driver:
                    other = self._driver[net_name]
                    raise NetlistError(
                        f"net {net_name!r} driven by both "
                        f"{other.instance.name}.{other.pin_name} and "
                        f"{name}.{pin_name}"
                    )
                if net_name in self._external_inputs:
                    raise NetlistError(
                        f"net {net_name!r} is an external input and cannot "
                        f"also be driven by {name}.{pin_name}"
                    )
                self._driver[net_name] = ref
            else:
                self._sinks[net_name].append(ref)
        self.instances[name] = inst
        return inst

    def mark_external_input(self, net_name: str) -> None:
        """Declare a net as externally driven (stimulus only)."""
        if net_name not in self.nets:
            raise NetlistError(f"unknown net {net_name!r}")
        if net_name in self._driver:
            ref = self._driver[net_name]
            raise NetlistError(
                f"net {net_name!r} already driven by "
                f"{ref.instance.name}.{ref.pin_name}"
            )
        self._view = None
        self._external_inputs.add(net_name)

    def _check_fresh_name(self, name: str) -> None:
        if name in self.nets or name in self.supplies:
            raise NetlistError(f"duplicate net/supply name {name!r}")

    # -- queries ----------------------------------------------------------

    def compiled(self) -> CompiledNetlist:
        """The run-invariant view of this netlist, built on first use.

        Every structural mutation (:meth:`add_net`, :meth:`add_supply`,
        :meth:`add_instance`, :meth:`mark_external_input`) drops it, so
        the next call rebuilds it; :meth:`validate` and :meth:`load_of`
        also rebuild it when a net's ``extra_cap`` changed in place.
        Rail waveforms and net values are not part of it: the view
        holds the live :class:`SupplyNet` and :class:`Net` objects.
        """
        view = self._view
        if view is None:
            view = self._view = CompiledNetlist(self)
        return view

    def is_external_input(self, net_name: str) -> bool:
        return net_name in self._external_inputs

    def load_of(self, net_name: str) -> float:
        """Total capacitive load on a net, farads.

        Sum of fanout input-pin capacitances plus the explicit net
        capacitor.  This is the ``C_load`` handed to the driving cell's
        delay model (the driver's own intrinsic cap lives inside the
        cell model).
        """
        node = self.compiled().nodes.get(net_name)
        if node is None:
            raise NetlistError(f"unknown net {net_name!r}")
        if node.extra_cap != node.net.extra_cap:  # changed in place
            self._view = None
            node = self.compiled().nodes[net_name]
        return node.load

    def supply_of(self, inst: Instance, t: float) -> float:
        """Effective supply (vdd - gnd) seen by an instance at time t."""
        return self.compiled().gates[inst.name].supply(t)

    def validate(self) -> None:
        """Structural sanity check of the whole netlist.

        Ensures every instance input is driven (by a gate or declared
        external input).  Floating *outputs* are allowed (observation
        points may be unconnected).

        Raises:
            NetlistError: describing the first violation found.
        """
        view = self.compiled()
        if any(node.extra_cap != node.net.extra_cap
               for node in view.nodes.values()):
            # A net's cap was changed in place: rebuild the view rather
            # than let the next engine run on stale loads.
            view = self._view = CompiledNetlist(self)
        if view.problem is not None:
            raise NetlistError(view.problem)

    def stats(self) -> dict[str, int]:
        """Cell-count accounting (used by the overhead bench)."""
        counts: dict[str, int] = {}
        for inst in self.instances.values():
            key = type(inst.cell).__name__
            counts[key] = counts.get(key, 0) + 1
        counts["#nets"] = len(self.nets)
        counts["#instances"] = len(self.instances)
        return counts

    def iter_instances(self) -> Iterable[Instance]:
        return self.instances.values()


#: Fanout tags of :attr:`NetView.fanout`: what an event on a net does at
#: one sink pin.
COMBINATIONAL = 0  # re-evaluate the (combinational) cell
CLOCK = 1          # clock pin of a sequential cell: sample on a rising edge
DATA = 2           # ``D`` pin of a sequential cell: hold check
SEQUENTIAL = 3     # any other pin of a sequential cell: nothing


class GateView:
    """One instance as the engine reads it.

    Attributes:
        name / cell: The placed instance's name and cell.
        vdd / gnd: Its two rail objects (waveforms are read live).
        inputs: ``(pin, Net)`` per input pin, in the cell's pin order.
        pins: Pin name -> :class:`Net` for every connection.
        outputs: Output pin -> ``(net name, Net, load, cause)``; the
            cause is the event's debug string ``"<instance>.<pin>"``.
    """

    __slots__ = ("name", "cell", "vdd", "gnd", "inputs", "pins", "outputs")

    def __init__(self, inst: Instance, netlist: Netlist) -> None:
        nets = netlist.nets
        cell = inst.cell
        self.name = inst.name
        self.cell = cell
        self.vdd = netlist.supplies[inst.vdd]
        self.gnd = netlist.supplies[inst.gnd]
        self.pins = {pin: nets[net]
                     for pin, net in inst.connections.items()}
        self.inputs = tuple([(pin.name, self.pins[pin.name])
                             for pin in cell.input_pins])
        self.outputs: dict[str, tuple[str, Net, float, str]] = {}

    def supply(self, t: float) -> float:
        """Effective supply (vdd - gnd) at time ``t``."""
        return self.vdd.waveform(t) - self.gnd.waveform(t)


class NetView:
    """One net as the engine reads it.

    Attributes:
        net: The live :class:`Net`.
        extra_cap: ``net.extra_cap`` when the view was built.
        load: Explicit cap plus fanout pin caps
            (:meth:`Netlist.load_of`).
        fanout: ``(gate, pin, tag)`` per sink pin, in wiring order.
        driver: The driving gate, or None for inputs and floaters.
        energy_cap: ``load`` plus the driver's intrinsic cap: the
            capacitance one transition (dis)charges.
    """

    __slots__ = ("net", "extra_cap", "load", "fanout", "driver",
                 "energy_cap")


class CompiledNetlist:
    """The run-invariant view of a :class:`Netlist`.

    Built by :meth:`Netlist.compiled` so that the engine does not
    re-derive structure on every event: each net's load and its
    driver's energy cap, tagged fanout tuples, each instance's rails,
    input pairs and output ``(net, load, cause)`` entries, and the
    first :meth:`Netlist.validate` violation (``problem``, None when
    clean).

    Attributes:
        nodes: Net name -> :class:`NetView`, in net creation order.
        gates: Instance name -> :class:`GateView`, in placement order.
        problem: Validation message, or None.
    """

    __slots__ = ("nodes", "gates", "problem")

    def __init__(self, netlist: Netlist) -> None:
        gates = {name: GateView(inst, netlist)
                 for name, inst in netlist.instances.items()}
        drivers = netlist._driver
        self.problem: str | None = None
        self.nodes: dict[str, NetView] = {}
        for name, net in netlist.nets.items():
            sinks = netlist._sinks[name]
            node = NetView()
            node.net = net
            node.extra_cap = net.extra_cap
            # Pin caps summed in wiring order, then added to the explicit
            # cap: the float every golden delay and energy was made with.
            node.load = net.extra_cap + sum([ref.pin.cap for ref in sinks])
            node.fanout = tuple([
                (gates[ref.instance.name], ref.pin_name, _sink_tag(ref))
                for ref in sinks
            ])
            ref = drivers.get(name)
            if ref is None:
                node.driver = None
                node.energy_cap = node.load
                if (sinks and self.problem is None
                        and name not in netlist._external_inputs):
                    consumer = sinks[0]
                    self.problem = (
                        f"net {name!r} feeds "
                        f"{consumer.instance.name}.{consumer.pin_name} "
                        f"but has no driver and is not a declared "
                        f"external input"
                    )
            else:
                driver = gates[ref.instance.name]
                node.driver = driver
                node.energy_cap = (node.load
                                   + driver.cell.model.intrinsic_cap)
                driver.outputs[ref.pin_name] = (
                    name, net, node.load,
                    f"{driver.name}.{ref.pin_name}",
                )
            self.nodes[name] = node
        self.gates = gates


def _sink_tag(ref: _PinRef) -> int:
    if not ref.instance.cell.is_sequential:
        return COMBINATIONAL
    if ref.pin.is_clock:
        return CLOCK
    return DATA if ref.pin_name == "D" else SEQUENTIAL
