"""The event engine against a per-event oracle, by ``float.hex``.

:class:`OracleEngine` is the engine as it was before it read a
:class:`~repro.sim.netlist.CompiledNetlist`: on every event it asks the
netlist for fanout, drivers, loads and supplies (the ``_*_of`` helpers
below are the old ``Netlist`` queries, verbatim) and formats each
event's cause string.  Every scenario runs twice, once with each
engine patched into the modules that build one, and every engine the
run builds must agree with its oracle twin on trace transitions,
sample records, ``energy_by_instance``, ``events_processed`` and
``now``, bit for bit.

The invalidation tests pin what the compiled view caches: a structural
mutation rebuilds it for the next engine, a rail waveform is read live,
and an engine keeps the view it was built with.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines.ring_oscillator import RingOscillatorHarness
from repro.cells.base import HIGH, LOW, LogicValue, UNKNOWN
from repro.cells.combinational import Inverter
from repro.cells.sequential import DFlipFlop
from repro.core.array import SensorArrayHarness
from repro.core.counter import run_counter_netlist
from repro.core.faults import FaultInjector, FaultType
from repro.core.pulsegen import PulseGeneratorHarness
from repro.core.sensor import SenseRail, SensorBitHarness
from repro.core.system import SensorSystem
from repro.devices.technology import TECH_90NM
from repro.errors import NetlistError, SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventQueue
from repro.sim.netlist import Instance, Netlist
from repro.sim.trace import SampleRecord, Trace
from repro.sim.waveform import PiecewiseLinearWaveform, StepWaveform
from repro.units import NS


# -- the oracle -------------------------------------------------------------


def _sinks_of(netlist: Netlist, net_name: str) -> list:
    if net_name not in netlist.nets:
        raise NetlistError(f"unknown net {net_name!r}")
    return list(netlist._sinks[net_name])


def _driver_of(netlist: Netlist, net_name: str):
    return netlist._driver.get(net_name)


def _load_of(netlist: Netlist, net_name: str) -> float:
    net = netlist.nets.get(net_name)
    if net is None:
        raise NetlistError(f"unknown net {net_name!r}")
    return net.extra_cap + sum(
        ref.pin.cap for ref in netlist._sinks[net_name]
    )


def _supply_of(netlist: Netlist, inst: Instance, t: float) -> float:
    vdd = netlist.supplies[inst.vdd].voltage(t)
    gnd = netlist.supplies[inst.gnd].voltage(t)
    return vdd - gnd


# The engine before the compiled view, verbatim but for the four netlist
# queries above.


class OracleEngine:
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
            for ref in _sinks_of(self.netlist, net):
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
        for ref in _sinks_of(self.netlist, event.net):
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
        driver = _driver_of(self.netlist, event.net)
        if driver is None:
            return
        inst = driver.instance
        v = _supply_of(self.netlist, inst, event.time)
        cap = (_load_of(self.netlist, event.net)
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
        supply = _supply_of(self.netlist, inst, event.time)
        for out_pin, target in outputs.items():
            out_net = inst.net_of(out_pin)
            load = _load_of(self.netlist, out_net)
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
        supply = _supply_of(self.netlist, inst, t_clk)
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
        supply = _supply_of(self.netlist, inst, t_data)
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


# -- running a scenario under both engines -----------------------------------

#: Every module that builds an engine by its own ``SimulationEngine`` name.
ENGINE_MODULES = (
    "repro.core.sensor",
    "repro.core.system",
    "repro.core.pulsegen",
    "repro.core.counter",
    "repro.baselines.ring_oscillator",
    "repro.sim.engine",  # baselines/razor.py imports it at call time
)


def _recording(base: type, made: list) -> type:
    class Recorded(base):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    return Recorded


def _hex(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


def fingerprint(engine) -> dict:
    """Everything one engine run leaves behind, floats as hex."""
    trace = engine.trace
    return {
        "transitions": {
            net: [(_hex(t), v) for t, v in trace.transitions(net)]
            for net in trace.nets()
        },
        "samples": [
            (_hex(s.time), s.instance, s.outcome, s.value,
             _hex(s.clk_to_q), _hex(s.setup_margin))
            for s in trace.samples
        ],
        "energy": [(name, _hex(e))
                   for name, e in engine.energy_by_instance.items()],
        "events_processed": engine.events_processed,
        "now": _hex(engine.now),
    }


def run_both(monkeypatch, scenario):
    """Run ``scenario`` under the oracle, then under the engine; return
    both results and both lists of per-engine fingerprints."""
    runs = []
    for base in (OracleEngine, SimulationEngine):
        made: list = []
        recorded = _recording(base, made)
        with monkeypatch.context() as patch:
            for module in ENGINE_MODULES:
                patch.setattr(f"{module}.SimulationEngine", recorded)
            result = scenario()
        runs.append((result, [fingerprint(e) for e in made]))
    (want, want_fps), (got, got_fps) = runs
    return want, got, want_fps, got_fps


def assert_same(monkeypatch, scenario) -> list[dict]:
    want, got, want_fps, got_fps = run_both(monkeypatch, scenario)
    assert want_fps, "the scenario built no engine"
    assert len(got_fps) == len(want_fps)
    for i, (w, g) in enumerate(zip(want_fps, got_fps)):
        assert g == w, f"engine {i} diverges from the oracle"
    assert got == want
    return got_fps


# -- the paper's netlists ----------------------------------------------------

TIMES = [4 * NS, 8 * NS, 12 * NS]


@pytest.mark.parametrize("rail", [SenseRail.VDD, SenseRail.GND],
                         ids=lambda r: r.value)
@pytest.mark.parametrize("bit", [1, 4, 7])
def test_bit_harness(monkeypatch, design, rail, bit):
    if rail is SenseRail.VDD:
        rails = [{"vdd_n": 0.93},
                 {"vdd_n": StepWaveform(1.0, 0.88, 7 * NS)},
                 {"vdd_n": design.bit_threshold(bit, 3)}]
    else:
        rails = [{"gnd_n": 0.05},
                 {"gnd_n": StepWaveform(0.0, 0.09, 7 * NS)}]

    def scenario():
        h = SensorBitHarness(design, bit, rail)
        return [h.run_measures(code, TIMES, **kw)
                for code in (0, 3, 7) for kw in rails]

    assert_same(monkeypatch, scenario)


@pytest.mark.parametrize("fault", list(FaultType), ids=lambda f: f.value)
def test_array_harness_with_forced_net(monkeypatch, design, fault):
    ts = [design.bit_threshold(b, 3) for b in range(1, design.n_bits + 1)]

    def scenario():
        injector = FaultInjector(design)
        reports = []
        for bit in (1, 4, design.n_bits):
            injector.inject(fault, bit)
            for level in (ts[0] - 0.05, ts[3], ts[-1] + 0.05):
                reports.append(injector.screen(
                    code=3, vdd_n=level, reference_level=level))
        return reports

    assert_same(monkeypatch, scenario)


def test_array_harness_both_rails(monkeypatch, design):
    def scenario():
        vdd = SensorArrayHarness(design, SenseRail.VDD)
        gnd = SensorArrayHarness(design, SenseRail.GND)
        return (vdd.run_measures(3, TIMES, vdd_n=StepWaveform(
                    1.0, 0.9, 6 * NS)),
                gnd.run_measures(5, TIMES, gnd_n=0.06))

    assert_same(monkeypatch, scenario)


@pytest.mark.parametrize("rails", ["constant", "step", "pwl"])
def test_system_with_ls_chain(monkeypatch, design, rails):
    if rails == "constant":
        kw = {"vdd_n": 0.92, "gnd_n": 0.05}
    elif rails == "step":
        kw = {"vdd_n": StepWaveform(1.0, 0.9, 9 * NS),
              "gnd_n": StepWaveform(0.0, 0.08, 11 * NS)}
    else:
        kw = {"vdd_n": PiecewiseLinearWaveform(
                  [0.0, 6 * NS, 12 * NS, 20 * NS], [1.0, 0.86, 0.97, 0.9]),
              "gnd_n": PiecewiseLinearWaveform(
                  [0.0, 8 * NS, 16 * NS], [0.0, 0.1, 0.02])}

    def scenario():
        system = SensorSystem(design, include_ls=True)
        run = system.run(4, code_hs=3, code_ls=5, **kw)
        return run, system.run(2, code_hs=6, code_ls=1, **kw)

    fps = assert_same(monkeypatch, scenario)
    assert all(fp["energy"] for fp in fps)


def test_pulse_generator_netlist(monkeypatch, design):
    assert_same(monkeypatch,
                lambda: PulseGeneratorHarness(design).measure_table())


def test_counter_netlist(monkeypatch, design):
    assert_same(monkeypatch, lambda: run_counter_netlist(design, 19))


def test_ring_oscillator(monkeypatch, design):
    def scenario():
        ro = RingOscillatorHarness(design.tech)
        return [ro.count_edges(8 * NS, vdd_n=v) for v in
                (1.0, 0.85, StepWaveform(1.0, 0.8, 4 * NS))]

    assert_same(monkeypatch, scenario)


def _dff_netlist(lib) -> tuple[Netlist, DFlipFlop]:
    nl = Netlist("dff")
    nl.add_supply("VDD", 1.0)
    nl.add_supply("GND", 0.0, is_ground=True)
    for net in ("d", "cp", "q", "qb"):
        nl.add_net(net)
    nl.mark_external_input("d")
    nl.mark_external_input("cp")
    ff = lib.make("DFF")
    nl.add_instance("ff", ff, {"D": "d", "CP": "cp", "Q": "q"},
                    vdd="VDD", gnd="GND")
    nl.add_instance("inv", Inverter(TECH_90NM), {"A": "q", "Y": "qb"},
                    vdd="VDD", gnd="GND")
    return nl, ff


def test_hold_violation_force_and_release(lib):
    """Paths the paper's harnesses rarely take: a hold violation, a
    forced net and its release, driven by hand on both engines."""
    fps = []
    for cls in (OracleEngine, SimulationEngine):
        nl, ff = _dff_netlist(lib)
        eng = cls(nl)
        eng.set_initial("d", 1)
        eng.set_initial("cp", 0)
        eng.set_initial("q", 0)
        eng.settle()
        eng.schedule_stimulus("cp", 1, 2 * NS)
        eng.schedule_stimulus("d", 0, 2 * NS + ff.hold_time / 4)
        eng.schedule_stimulus("cp", 0, 3 * NS)
        eng.run(3.5 * NS)
        eng.force_net("q", 1)
        eng.schedule_stimulus("cp", 1, 4 * NS)
        eng.run(5 * NS)
        eng.release_net("q")
        eng.schedule_stimulus("cp", 0, 5.5 * NS)
        eng.schedule_stimulus("cp", 1, 6 * NS)
        eng.run(8 * NS)
        fps.append(fingerprint(eng))
    assert "hold_corrupted" in [s[2] for s in fps[1]["samples"]]
    assert fps[1] == fps[0]


# -- what the compiled view caches --------------------------------------------


def _chain() -> Netlist:
    nl = Netlist("chain")
    nl.add_supply("VDD", 1.0)
    nl.add_supply("GND", 0.0, is_ground=True)
    nl.add_net("a")
    nl.add_net("y")
    nl.mark_external_input("a")
    nl.add_instance("inv0", Inverter(TECH_90NM), {"A": "a", "Y": "y"},
                    vdd="VDD", gnd="GND")
    return nl


def _pulse(cls, nl: Netlist) -> dict:
    eng = cls(nl)
    eng.set_initial("a", 0)
    eng.settle()
    eng.schedule_stimulus("a", 1, 1 * NS)
    eng.schedule_stimulus("a", 0, 3 * NS)
    eng.run(6 * NS)
    return fingerprint(eng)


def test_mutation_after_first_engine_is_seen(lib):
    nl = _chain()
    before = _pulse(SimulationEngine, nl)
    view = nl.compiled()
    # A new net and instance: "y" gains fanout (so inv0 sees more load)
    # and "z" a driver.
    nl.add_net("z", extra_cap=4e-15)
    nl.add_instance("inv1", Inverter(TECH_90NM), {"A": "y", "Y": "z"},
                    vdd="VDD", gnd="GND")
    assert nl.compiled() is not view
    after = _pulse(SimulationEngine, nl)
    assert after == _pulse(OracleEngine, nl)
    assert after["transitions"]["y"] != before["transitions"]["y"]
    assert after["transitions"]["z"]
    assert "inv1" in dict(after["energy"])

    # A new external input: validation reads the view as well.
    nl.add_net("b")
    nl.add_net("w")
    nl.add_instance("inv2", Inverter(TECH_90NM), {"A": "b", "Y": "w"},
                    vdd="VDD", gnd="GND")
    with pytest.raises(NetlistError):
        SimulationEngine(nl)
    nl.mark_external_input("b")
    eng = SimulationEngine(nl)
    eng.set_initial("b", 1)
    eng.settle()
    assert nl.nets["w"].value == 0


def test_cap_changed_in_place_is_seen():
    nl = _chain()
    before = _pulse(SimulationEngine, nl)
    nl.nets["y"].extra_cap += 6e-15  # seen by the next engine ...
    after = _pulse(SimulationEngine, nl)
    assert after == _pulse(OracleEngine, nl)
    assert after["transitions"]["y"] != before["transitions"]["y"]
    nl.nets["y"].extra_cap += 6e-15  # ... and by load_of ("y" has no fanout)
    assert nl.load_of("y") == nl.nets["y"].extra_cap == 12e-15


def test_rail_rebinding_is_seen_without_recompiling():
    nl = _chain()
    nominal = _pulse(SimulationEngine, nl)
    view = nl.compiled()
    nl.set_supply_waveform("VDD", StepWaveform(1.0, 0.8, 2 * NS))
    drooped = _pulse(SimulationEngine, nl)
    assert nl.compiled() is view
    assert drooped == _pulse(OracleEngine, nl)
    assert drooped["transitions"]["y"] != nominal["transitions"]["y"]
    assert nl.supply_of(nl.instances["inv0"], 3 * NS) == 0.8


def test_engine_keeps_the_view_it_was_built_with():
    nl = _chain()
    eng = SimulationEngine(nl)
    nl.add_net("z")
    nl.add_instance("inv1", Inverter(TECH_90NM), {"A": "y", "Y": "z"},
                    vdd="VDD", gnd="GND")
    with pytest.raises(SimulationError):
        eng.schedule_stimulus("z", 1, 1 * NS)
    eng.set_initial("a", 0)
    eng.settle()
    eng.schedule_stimulus("a", 1, 1 * NS)
    eng.run(6 * NS)
    # inv1 arrived after the engine: it neither switches nor loads "y".
    assert eng.trace.transitions("z") == []
    assert "inv1" not in eng.energy_by_instance
    old = _chain()
    want = _pulse(OracleEngine, old)
    assert fingerprint(eng)["transitions"]["y"] == \
        want["transitions"]["y"][:2]
