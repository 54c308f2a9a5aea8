"""Command-line interface: ``python -m repro <command>``.

Exposes the headline reproductions and a general measurement command
without writing any Python:

* ``info`` — the calibrated design constants;
* ``table`` — the §III-B delay-code table (behavioural + structural);
* ``fig4`` — threshold-vs-capacitance characteristic;
* ``fig5`` — the multibit characteristic per delay code;
* ``fig9`` — the full-system two-measure sequence;
* ``critical-path`` — STA over the control netlist;
* ``measure`` — decode an arbitrary static rail level;
* ``telemetry`` — stream a synthetic PSN scenario through the
  bounded-memory online monitoring pipeline (droop events, quantiles,
  occupancy; ``--events-out`` exports JSONL);
* ``cache`` — inspect/clear the characterization result cache
  (``stats`` reports hit/miss/error counters and the hit rate);
* ``backends`` — list the registered measurement drivers
  (:mod:`repro.backends`) and what each can do;
* ``bench`` — run a perf bench from ``benchmarks/`` by name
  (``--list`` enumerates what is available);
* ``serve`` / ``submit`` — the sensing-as-a-service job server
  (:mod:`repro.service`) and its one-shot client: admission control,
  per-tenant rate limits, deadlines, circuit breakers and graceful
  degradation over the pluggable backends;
* ``campaign`` — declarative campaign orchestration
  (:mod:`repro.campaign`): ``validate`` a TOML/JSON spec, ``run`` /
  ``resume`` it on the resilient runtime (kill it mid-run, re-invoke,
  it finishes from cache bit-identically), ``diff`` a run against a
  committed golden tree;
* ``versions`` — the full provenance tuple (package, numpy/numba,
  kernel layout, MC seed scheme, wire-format schemas) that campaign
  manifests embed; ``repro --version`` prints the short form.

Error hygiene: any :class:`~repro.errors.ReproError` exits nonzero
with a one-line ``error: <Type>: <message>`` on stderr; ``repro
--traceback <command>`` restores the full stack for debugging.

Characterization sweeps (``fig4``, ``fig5``, ``yield``) accept
``--workers N`` (process-pool fan-out, bit-identical to serial) and
``--cache-dir PATH`` (on-disk memoization) via :mod:`repro.runtime`;
``$REPRO_WORKERS`` sets the default pool size.  The fault-tolerance
flags ``--retries``, ``--task-timeout`` and ``--failure-policy``
(see :mod:`repro.runtime.resilient`) let long sweeps survive worker
crashes, stuck tasks and flaky failures; an unusable ``--cache-dir``
degrades to an uncached run with a warning.  ``--profile`` prints a
per-phase wall-time breakdown (kernel solve/decode, pool dispatch,
cache IO — see :mod:`repro.runtime.profiling`) after the sweep.

Measurement routing: ``fig4``, ``fig5``, ``yield`` and ``measure``
accept ``--backend NAME`` (a :mod:`repro.backends` registry spec such
as ``kernel``, ``sim`` or ``replay:trace.jsonl``); without the flag,
``$REPRO_BACKEND`` sets the driver and the analytic kernel remains the
default.  ``measure`` additionally takes ``--record-trace PATH`` (wrap
the driver in a :class:`~repro.backends.RecordingBackend` and save a
``trace/v1`` file) and ``--replay-trace PATH`` (re-feed a recorded
trace bit-identically, no simulation at all).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.units import to_ns, to_pf, to_ps


def _add_runtime_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size for the sweep "
                        "(default: $REPRO_WORKERS or serial)")
    p.add_argument("--cache-dir", default=None,
                   help="memoize sweep results in this directory")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts per failed task (exponential "
                        "backoff with deterministic jitter)")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-task wall-clock budget; stuck workers "
                        "are killed and the task retried")
    p.add_argument("--failure-policy", choices=("raise", "partial"),
                   default="raise",
                   help="'raise' aborts on the first exhausted task "
                        "(default); 'partial' completes the sweep and "
                        "reports failed slots")
    p.add_argument("--profile", action="store_true",
                   help="print a per-phase wall-time breakdown "
                        "(kernel solves/decodes, pool dispatch, cache "
                        "IO) after the sweep")


def _runtime_kwargs(args: argparse.Namespace) -> dict:
    """Runtime keywords from parsed flags.

    An unusable ``--cache-dir`` (not a directory, unwritable,
    read-only filesystem) warns and runs the sweep uncached instead
    of crashing — caching is an accelerator, never a requirement.
    """
    from repro.runtime import env_workers, resolve_cache

    workers = args.workers if args.workers is not None else env_workers()
    cache = resolve_cache(args.cache_dir, strict=False) \
        if args.cache_dir else None
    return {
        "workers": workers,
        "cache": cache,
        "retries": args.retries,
        "task_timeout": args.task_timeout,
        "failure_policy": args.failure_policy,
    }


def _add_backend_arg(p: argparse.ArgumentParser, *,
                     sim_flag: bool = False) -> None:
    """``--backend NAME``; with ``sim_flag``, also ``--sim``, another
    spelling of ``--backend sim`` (the two are mutually exclusive)."""
    group = p.add_mutually_exclusive_group() if sim_flag else p
    group.add_argument("--backend", default=None, metavar="NAME",
                       help="measurement driver: a repro.backends "
                            "registry spec ('kernel', 'sim', "
                            "'replay:PATH'; see 'repro backends').  "
                            "Default: $REPRO_BACKEND or the analytic "
                            "kernel")
    if sim_flag:
        group.add_argument("--sim", dest="backend",
                           action="store_const", const="sim",
                           help="bisect the event simulation instead "
                                "of the analytic law (same as "
                                "--backend sim)")


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core.calibration import paper_design

    d = paper_design()
    print("Calibrated design (anchored to the paper's published data)")
    print(f"  technology       : {d.tech.name}")
    print(f"  fitted Vth       : {d.tech.vth:.4f} V (alpha="
          f"{d.tech.alpha})")
    print(f"  t0 (CP-P offset) : {to_ps(d.t0):.1f} ps")
    print(f"  sensor strength  : {d.sensor_strength:.1f}x")
    print(f"  FF setup time    : {to_ps(d.ff_setup_time):.1f} ps")
    print(f"  trim caps [pF]   : "
          f"{[round(to_pf(c), 3) for c in d.load_caps]}")
    print(f"  delay codes [ps] : "
          f"{[round(to_ps(x)) for x in d.delay_codes]}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.core.calibration import paper_design
    from repro.core.pulsegen import PulseGenerator, PulseGeneratorHarness

    d = paper_design()
    behavioural = PulseGenerator(d).delay_table()
    print("code  paper[ps]  behavioural[ps]", end="")
    structural = None
    if args.sim:
        structural = PulseGeneratorHarness(d).measure_table()
        print("  structural[ps]", end="")
    print()
    paper = (26, 40, 50, 65, 77, 92, 100, 107)
    for code in range(8):
        line = (f"{code:03b}   {paper[code]:>8}  "
                f"{to_ps(behavioural[code]):>14.2f}")
        if structural is not None:
            line += f"  {to_ps(structural[code]):>13.2f}"
        print(line)
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.core.calibration import paper_design
    from repro.core.characterization import threshold_vs_capacitance
    from repro.units import PF

    d = paper_design()
    caps = [(args.cap_min + k * args.cap_step) * PF
            for k in range(args.points)]
    points = threshold_vs_capacitance(
        d, caps, code=args.code, backend=args.backend,
        **_runtime_kwargs(args),
    )
    print("C [pF]   threshold [V]")
    for c, v in points:
        shown = "FAILED" if v is None else f"{v:.4f}"
        print(f"{to_pf(c):>6.2f}   {shown}")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.core.calibration import paper_design
    from repro.core.characterization import characterize_array

    d = paper_design()
    chars = characterize_array(
        d, codes=tuple(args.codes), backend=args.backend,
        **_runtime_kwargs(args),
    )
    for code, ch in chars.items():
        print(f"delay code {code:03b}: dynamic {ch.v_min:.3f} .. "
              f"{ch.v_max:.3f} V")
        if ch.masked_bits:
            print(f"  DEGRADED: bits {ch.masked_bits} failed "
                  f"characterization and are masked")
        for word, rng in ch.table:
            lo = "-inf " if rng.lo == float("-inf") else f"{rng.lo:.4f}"
            hi = "+inf " if rng.hi == float("inf") else f"{rng.hi:.4f}"
            print(f"  {word}  ({lo}, {hi}]")
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    from repro.core.calibration import paper_design
    from repro.core.system import SensorSystem
    from repro.sim.waveform import StepWaveform
    from repro.units import NS

    d = paper_design()
    system = SensorSystem(d, include_ls=False)
    rail = StepWaveform(args.v1, args.v2, 16 * NS)
    run = system.run(2, code_hs=args.code, vdd_n=rail)
    for k, (v, m) in enumerate(zip((args.v1, args.v2), run.hs), 1):
        print(f"measure {k} (VDD-n={v:.2f} V): PREPARE "
              f"{m.prepare_word} -> SENSE {m.word.to_string()} "
              f"(OUTE={m.encoded.oute}) -> ({m.decoded.lo:.4f}, "
              f"{m.decoded.hi:.4f}] V")
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    from repro.core.calibration import paper_design
    from repro.core.control import build_control_netlist
    from repro.sta.analysis import analyze
    from repro.sta.hold import analyze_hold
    from repro.sta.report import format_hold_report, format_setup_report

    d = paper_design()
    nl, _ = build_control_netlist(d)
    report = analyze(nl, clock_period=args.period * 1e-9)
    print(f"control-system critical path: "
          f"{to_ns(report.min_period):.4f} ns (paper: 1.22 ns)\n")
    print(format_setup_report(report))
    print()
    hold = analyze_hold(nl)
    print(format_hold_report(hold))
    print(f"\nworst hold slack: {to_ps(hold.whs):.1f} ps "
          f"({'clean' if hold.clean else 'VIOLATED'})")
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    import os

    from repro.backends import BACKEND_ENV, RecordingBackend, \
        ReplayBackend, resolve_backend
    from repro.core.autorange import AutoRangingMeter
    from repro.core.calibration import paper_design
    from repro.core.sensor import SenseRail

    recording = None
    if args.replay_trace is not None:
        if args.backend is not None or args.record_trace is not None:
            raise SystemExit(
                "error: --replay-trace replaces the driver; it cannot "
                "be combined with --backend or --record-trace")
        backend = ReplayBackend(args.replay_trace)
    else:
        spec = args.backend or os.environ.get(BACKEND_ENV) or None
        backend = resolve_backend(spec) \
            if spec is not None or args.record_trace is not None \
            else None
        if args.record_trace is not None:
            backend = recording = RecordingBackend(
                backend, args.record_trace, note="repro measure")

    d = paper_design()
    rail = SenseRail.GND if args.gnd is not None else SenseRail.VDD
    meter = AutoRangingMeter(d, rail, initial_code=args.code,
                             backend=backend)
    if rail is SenseRail.GND:
        result = meter.measure_level(gnd_n=args.gnd)
        label = "GND-n"
        level = args.gnd
    else:
        result = meter.measure_level(vdd_n=args.vdd)
        label = "VDD-n"
        level = args.vdd
    print(f"{label} = {level:.4f} V: word {result.word.to_string()} "
          f"at code {result.code:03b} "
          f"({result.attempts} attempt(s))")
    print(f"decoded: ({result.decoded.lo:.4f}, "
          f"{result.decoded.hi:.4f}] V"
          + ("  [saturated]" if result.saturated else ""))
    if recording is not None:
        recording.close()
        print(f"recorded {len(recording.trace.records)} trace "
              f"record(s) to {args.record_trace} "
              f"(replay with --replay-trace)")
    return 0 if not result.saturated else 2


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.core.calibration import paper_design
    from repro.core.scanchain import PSNScanChain
    from repro.psn.grid import IRDropGrid

    d = paper_design()
    grid = IRDropGrid(rows=args.rows, cols=args.cols,
                      r_segment=0.05, r_pad=0.01)
    step_r = max(1, (args.rows - 1) // 2)
    step_c = max(1, (args.cols - 1) // 2)
    sites = [(r, c) for r in range(1, args.rows, step_r)
             for c in range(1, args.cols, step_c)][:9]
    chain = PSNScanChain(d, grid, sites, code=args.code)
    hotspot = (args.rows // 2, args.cols // 2)
    currents = grid.hotspot_currents(
        total_current=args.current, hotspot=hotspot, hotspot_share=0.8,
    )
    measures = chain.measure_map(currents)
    for m in measures:
        mark = " <-- deepest" if m.site == chain.hotspot_site(measures) \
            else ""
        print(f"tile {m.site}: {m.word.to_string()} -> "
              f"({m.decoded.lo:.4f}, {m.decoded.hi:.4f}] V "
              f"[true {m.true_voltage:.4f}]{mark}")
    err = chain.map_error(measures)
    print(f"map RMSE {err['rmse'] * 1e3:.1f} mV, bracket rate "
          f"{err['bracket_rate']:.0%}; injected hotspot {hotspot}")
    return 0


def _cmd_yield(args: argparse.Namespace) -> int:
    from repro.analysis.yield_study import run_yield_study
    from repro.core.calibration import paper_design
    from repro.devices.variation import VariationModel

    d = paper_design()
    model = VariationModel(
        sigma_vth_inter=args.sigma_inter * 1e-3,
        sigma_vth_intra=args.sigma_intra * 1e-3,
    )
    rep = run_yield_study(d, model, n_dies=args.dies,
                          backend=args.backend,
                          **_runtime_kwargs(args))
    print(f"{args.dies} dies, mismatch sigma inter/intra = "
          f"{args.sigma_inter:.1f}/{args.sigma_intra:.1f} mV")
    print(f"  worst per-bit threshold sigma : "
          f"{max(rep.threshold_sigma) * 1e3:.1f} mV")
    print(f"  monotone (bubble-free) dies   : "
          f"{rep.monotone_fraction:.0%}")
    print(f"  raw bubble rate               : {rep.bubble_rate:.1%}")
    print(f"  bracket rate, nominal ladder  : {rep.bracket_rate:.0%}")
    print(f"  bracket rate, per-die ladder  : "
          f"{rep.bracket_rate_calibrated:.0%}")
    return 0


def _bench_names() -> list[str] | None:
    """Available bench names (``benchmarks/bench_*.py`` stems), or
    None when the ``benchmarks`` package is not importable (not run
    from a repo checkout)."""
    import importlib
    import pathlib

    try:
        pkg = importlib.import_module("benchmarks")
    except ModuleNotFoundError:
        return None
    bench_dir = pathlib.Path(pkg.__file__).parent
    return sorted(p.stem[len("bench_"):]
                  for p in bench_dir.glob("bench_*.py"))


def _bench_all(args: argparse.Namespace) -> int:
    """Run every perf bench exposing ``run()`` and merge one report.

    The perf-regression benches share the ``run(*, smoke, repeats)``
    contract (each gates agreement before timing and writes its own
    ``BENCH_*`` report); figure benches without ``run`` are skipped.
    The merged payload lands at ``benchmarks/reports/BENCH_all.json``.
    """
    import importlib

    names = _bench_names()
    if names is None:
        print("benchmarks/ not importable; run from the repository "
              "root, e.g. PYTHONPATH=src python -m repro bench --all")
        return 2
    from benchmarks._perf import write_bench_json

    merged: dict[str, object] = {}
    skipped: list[str] = []
    failures: list[str] = []
    for name in names:
        module = importlib.import_module(f"benchmarks.bench_{name}")
        runner = getattr(module, "run", None)
        if not callable(runner):
            skipped.append(name)
            continue
        print(f"== bench {name} ==", flush=True)
        try:
            merged[name] = runner(smoke=args.smoke,
                                  repeats=args.repeats)
        except Exception as exc:
            failures.append(name)
            merged[name] = {"error": f"{type(exc).__name__}: {exc}"}
            print(f"bench {name} FAILED: {exc}")
    path = write_bench_json("BENCH_all", {
        "bench": "all",
        "mode": "smoke" if args.smoke else "full",
        "benches": merged,
        "skipped": skipped,
    })
    print(f"ran {len(merged)} benches ({len(skipped)} without run() "
          f"skipped); merged report: {path}")
    if failures:
        print("FAILED: " + ", ".join(failures))
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run one perf bench by name: ``repro bench kernels --smoke``.

    Resolves ``benchmarks/bench_<name>.py`` (the ``benchmarks``
    package must be importable, i.e. run from a repo checkout).  A
    bench exposing ``main(argv)`` (the perf-regression benches) gets
    the remaining arguments; older figure benches without one are run
    through pytest.  ``repro bench --list`` enumerates what is
    available; ``repro bench --all`` runs every bench with a ``run()``
    entry point and merges one report.
    """
    import importlib

    if args.all:
        return _bench_all(args)
    if args.list or args.name is None:
        names = _bench_names()
        if names is None:
            print("benchmarks/ not importable; run from the repository "
                  "root, e.g. PYTHONPATH=src python -m repro bench --list")
            return 2
        print("available benches (repro bench <name>):")
        for name in names:
            print(f"  {name}")
        if args.name is None and not args.list:
            return 2  # asked to run, named nothing
        return 0
    try:
        module = importlib.import_module(f"benchmarks.bench_{args.name}")
    except ModuleNotFoundError as exc:
        names = _bench_names()
        print(f"bench {args.name!r} not found ({exc}); run from the "
              f"repository root, e.g. "
              f"PYTHONPATH=src python -m repro bench kernels --smoke")
        if names:
            print("available: " + ", ".join(names))
        return 2
    extra = list(args.bench_args)
    if extra and extra[0] == "--":
        extra = extra[1:]
    if hasattr(module, "main"):
        return int(module.main(extra))
    import pytest as _pytest

    return int(_pytest.main(["-q", module.__file__, *extra]))


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime import ResultCache

    cache = ResultCache(args.dir)
    if args.action == "stats":
        s = cache.stats()
        rate = ("n/a (no lookups)" if s["hit_rate"] is None
                else f"{s['hit_rate']:.1%}")
        print(f"cache dir : {s['dir']}")
        print(f"entries   : {s['entries']}")
        print(f"size      : {s['bytes']} bytes")
        print(f"hits      : {s['hits']}")
        print(f"misses    : {s['misses']}")
        print(f"errors    : {s['errors']}")
        print(f"hit rate  : {rate}")
        # Lifetime counters aggregate every process that ever touched
        # this cache dir — pool workers flush their tallies to the
        # stats log, so fan-out hits are not lost with the workers.
        lt = s.get("lifetime") or {}
        total = lt.get("hits", 0) + lt.get("misses", 0)
        lt_rate = (f"{lt['hits'] / total:.1%}" if total
                   else "n/a (no lookups)")
        print(f"lifetime  : {lt.get('hits', 0)} hits / "
              f"{lt.get('misses', 0)} misses / "
              f"{lt.get('errors', 0)} errors "
              f"(all processes; hit rate {lt_rate})")
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the sensing-as-a-service job server until interrupted.

    ``--max-requests N`` serves N requests and exits (smoke tests and
    CI drills); ``--stats-out`` dumps the final stats registry as
    JSON for post-run assertions.
    """
    import asyncio
    import json

    from repro.runtime import resolve_cache
    from repro.service import FleetConfig, JobServer

    config = FleetConfig(n_dies=args.dies, n_shards=args.shards,
                         seed=args.seed)
    cache = resolve_cache(args.cache_dir, strict=False) \
        if args.cache_dir else None
    server = JobServer(
        config=config,
        backend=args.backend or "kernel",
        executor=args.executor,
        pool_workers=args.pool_workers,
        queue_depth=args.queue_depth,
        queue_policy=args.queue_policy,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        cache=cache,
        default_deadline_s=args.deadline,
        degrade_margin_s=args.degrade_margin,
    )

    async def _run() -> None:
        address = await server.start(unix_path=args.unix,
                                     host=args.host, port=args.port)
        print(f"serving on {address} "
              f"({config.n_dies} dies / {config.n_shards} shards, "
              f"executor {server.executor})", flush=True)
        try:
            if args.max_requests:
                while server.counters["responses"] < args.max_requests:
                    await asyncio.sleep(0.02)
            else:
                await server.serve_forever()
        finally:
            await server.stop()
            stats = server.stats()
            if args.stats_out:
                with open(args.stats_out, "w") as fh:
                    json.dump(stats, fh, indent=2, sort_keys=True)
            c = stats["counters"]
            print(f"served {c['responses']} responses "
                  f"(full {c['full']}, cached {c['cached']}, "
                  f"degraded {c['degraded']}, rejected "
                  f"{c['rejected']}, errors {c['errors']})",
                  flush=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Send one request to a running job server and print the reply.

    Exit code: 0 for an ``ok`` response (any quality), 3 when the
    server shed the request (``rejected``), 4 when execution errored.
    """
    import asyncio
    import json

    from repro.errors import ProtocolError, ServiceError
    from repro.service.client import AsyncServiceClient

    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"--params is not valid JSON: {exc}") \
            from None

    async def _round_trip() -> dict:
        client = await AsyncServiceClient(args.address).connect()
        try:
            await client.send("c1", args.kind, tenant=args.tenant,
                              params=params, deadline_s=args.deadline)
            while True:
                response = await client.read_response()
                if response is None:
                    raise ServiceError(
                        "connection closed before a terminal response"
                    )
                if response.get("id") == "c1":
                    return response
        finally:
            await client.close()

    try:
        response = asyncio.run(
            asyncio.wait_for(_round_trip(), args.timeout))
    except asyncio.TimeoutError:
        raise ServiceError(
            f"no response from {args.address} within {args.timeout} s"
        ) from None
    print(json.dumps(response, indent=2, sort_keys=True))
    status = response.get("status")
    if status == "ok":
        return 0
    return 3 if status == "rejected" else 4


def _cmd_backends(args: argparse.Namespace) -> int:
    """List the registered measurement drivers and their features."""
    from repro.backends import available, get

    print("registered measurement drivers (--backend NAME):")
    for name in available():
        bk = get(name)
        caps = bk.capabilities()
        feats = ", ".join(
            feat for feat in
            ("thresholds", "lot_thresholds", "s_curve")
            if getattr(caps, feat)
        ) or "-"
        det = "deterministic" if caps.deterministic else "stochastic"
        print(f"  {name:<12} {det:<14} {feats}")
        if args.fingerprints:
            print(f"  {'':<12} fingerprint {bk.fingerprint()}")
    print("  replay:PATH  re-feeds a recorded trace/v1 file "
          "(.jsonl or .csv) bit-identically")
    print("record a campaign with 'repro measure --record-trace PATH'")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """Stream a synthetic multi-site PSN scenario through the
    telemetry pipeline and print the metrics snapshot.

    Each site gets the same droop scenario with a per-site seed (so
    noise differs) — the paper's "sensor arrays ... replicated in
    different parts of the CUT" in miniature.  ``--events-out`` writes
    detected droop episodes as JSONL; ``--json`` dumps the full
    snapshot registry instead of the table.
    """
    import json

    from repro.core.calibration import paper_design
    from repro.telemetry import (
        TelemetryPipeline,
        array_source,
        synthetic_droop_trace,
    )

    d = paper_design()
    pipeline = TelemetryPipeline(
        d, code=args.code, chunk=args.chunk, capacity=args.capacity,
        policy=args.policy, min_duration=args.min_duration,
        refractory=args.refractory,
        alert_depth_v=args.alert_depth,
    )
    for s in range(args.sites):
        times, volts, _ = synthetic_droop_trace(
            n_samples=args.samples, dt=args.dt_ns * 1e-9,
            n_droops=args.droops, depth=args.depth,
            noise_rms=args.noise_mv * 1e-3, seed=args.seed + s,
        )
        pipeline.ingest_all(
            array_source(f"site{s}", times, volts, block=args.block)
        )
    pipeline.flush()
    snap = pipeline.snapshot()

    if args.events_out:
        n_events = pipeline.export_events_jsonl(args.events_out)
        print(f"wrote {n_events} event(s) to {args.events_out}")
    if args.json:
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0

    cfg = snap["config"]
    print(f"telemetry: code {cfg['code']:03b}, chunk {cfg['chunk']}, "
          f"capacity {cfg['capacity']}, policy {cfg['policy']}")
    print(f"  ladder [V]: "
          f"{[round(t, 4) for t in cfg['ladder_v']]}")
    print(f"  droop rungs: enter <= {cfg['enter_rung']}, "
          f"exit >= {cfg['exit_rung']}")
    for site, s in snap["sites"].items():
        st = s["stats"]
        q = s["quantiles"]
        print(f"site {site}: {s['decoded']} samples, "
              f"mean {st['mean']:.4f} V, min {st['min']:.4f} V, "
              f"p50 {q['0.5']:.4f} V, p99 {q['0.99']:.4f} V")
        ring = s["ring"]
        print(f"  buffer: peak {ring['high_watermark']}"
              f"/{ring['capacity']}, dropped {ring['dropped']}, "
              f"deferred {ring['deferred']}")
        ev = s["events"]
        depth = ("-" if ev["max_depth_v"] is None
                 else f"{ev['max_depth_v']:.3f} V")
        print(f"  events: {ev['count']} "
              f"(max depth {depth}, discarded {ev['discarded']})")
        if s["alerts"]:
            print(f"  ALERTS: {', '.join(s['alerts'])}")
    for e in pipeline.events:
        print(f"  droop @{e.site}: {e.start * 1e9:.1f}..{e.end * 1e9:.1f}"
              f" ns, depth {e.depth_v:.3f} V, worst word "
              f"{e.worst_word} ({e.n_samples} samples)")
    return 1 if snap["alerts"] and args.fail_on_alert else 0


def _cmd_versions(args: argparse.Namespace) -> int:
    """Print the full provenance tuple — the same table every
    campaign manifest embeds, so an operator can check whether a
    golden fixture was frozen under the numerics they are running."""
    import json

    from repro.campaign.manifest import provenance_info

    info = provenance_info()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    width = max(len(k) for k in info)
    for key, value in info.items():
        print(f"  {key:<{width}} : {value}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Declarative campaign orchestration (see :mod:`repro.campaign`).

    ``validate`` parses and schema-checks a spec and prints its stage
    order and spec hash.  ``run`` executes the stage DAG resumably
    (``resume`` is the same verb, spelled for re-invocations of an
    interrupted run — both replay completed work from the cache under
    ``--out``).  ``diff`` compares a run tree against a golden tree.

    Exit codes: 0 — passed; 1 — campaign error (bad spec, missing
    tree, golden divergence); 2 — stages ran but checks failed.
    """
    import json

    from repro.campaign import (
        diff_campaign,
        load_spec,
        run_campaign,
    )

    if args.campaign_cmd == "validate":
        spec = load_spec(args.spec)
        order = spec.topo_order()
        print(f"{spec.source}: valid campaign/v1 spec")
        print(f"  name       : {spec.name}")
        print(f"  backend    : {spec.backend}")
        print(f"  corner     : {spec.corner or 'nominal'}")
        print(f"  chaos      : "
              f"{'active' if spec.chaos and spec.chaos.active else 'none'}")
        print(f"  stage order: {' -> '.join(order)}")
        print(f"  spec hash  : {spec.spec_hash()}")
        return 0

    if args.campaign_cmd == "diff":
        report = diff_campaign(args.run_dir, args.golden_dir,
                               float_tol=args.float_tol)
        print(f"compared {len(report.compared_stages)} deterministic "
              f"stage payload(s); skipped "
              f"{len(report.skipped_stages)} nondeterministic")
        for d in report.provenance:
            print(f"  provenance drift: {d}")
        for d in report.divergences:
            print(f"  DIVERGENCE: {d}")
        report.raise_on_divergence(
            strict_provenance=args.strict_provenance)
        print("zero divergences"
              + (f" ({len(report.provenance)} provenance drift(s) "
                 f"tolerated)" if report.provenance else ""))
        return 0

    # run / resume (one verb: the runner resumes from the out dir)
    spec = load_spec(args.spec)
    run = run_campaign(
        spec, out_dir=args.out, cache=args.cache_dir,
        kill_after_puts=args.chaos_kill_after,
        execution=args.execution, stage_workers=args.stage_workers,
    )
    for record in run.records:
        flags = []
        if record.resumed:
            flags.append("resumed")
        if not record.deterministic:
            flags.append("nondeterministic")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        print(f"  {record.id:<20} {record.kind:<18} "
              f"{record.status:<8} {record.wall_s:8.2f}s{suffix}")
        for check in record.checks:
            mark = "ok" if check["ok"] else "FAIL"
            print(f"    check {check['kind']:<12} {mark:<5} "
                  f"{check['detail']}")
    print(f"campaign {run.manifest['name']!r}: {run.outcome} "
          f"(manifest: {run.out_dir / 'manifest.json'})")
    if args.json:
        print(json.dumps(run.manifest, indent=2, sort_keys=True))
    if args.golden is not None:
        report = diff_campaign(run.out_dir, args.golden,
                               float_tol=args.float_tol)
        report.raise_on_divergence()
        print(f"golden diff vs {args.golden}: zero divergences")
    return 0 if run.ok else 2


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.core.calibration import paper_design
    from repro.core.faults import coverage_study

    d = paper_design()
    cov = coverage_study(d, code=args.code)
    for name, frac in cov.items():
        print(f"  {name:<18} {frac:.0%}")
    return 0 if cov["overall"] == 1.0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PSN-thermometer reproduction command line",
    )
    parser.add_argument("--traceback", action="store_true",
                        help="print full tracebacks for repro errors "
                             "instead of the one-line message")
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"repro {__version__} "
                                f"('repro versions' prints the full "
                                f"provenance tuple)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="calibrated design constants") \
        .set_defaults(func=_cmd_info)

    p = sub.add_parser("table", help="delay-code table")
    p.add_argument("--sim", action="store_true",
                   help="also measure the structural PG netlist")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("fig4", help="threshold vs. capacitance")
    p.add_argument("--code", type=int, default=3)
    p.add_argument("--cap-min", type=float, default=1.80,
                   help="first capacitance, pF")
    p.add_argument("--cap-step", type=float, default=0.05)
    p.add_argument("--points", type=int, default=9)
    _add_backend_arg(p, sim_flag=True)
    _add_runtime_args(p)
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser("fig5", help="multibit characteristic")
    p.add_argument("--codes", type=int, nargs="+", default=[1, 2, 3])
    _add_backend_arg(p, sim_flag=True)
    _add_runtime_args(p)
    p.set_defaults(func=_cmd_fig5)

    p = sub.add_parser("fig9", help="full-system two-measure run")
    p.add_argument("--v1", type=float, default=1.00)
    p.add_argument("--v2", type=float, default=0.90)
    p.add_argument("--code", type=int, default=3)
    p.set_defaults(func=_cmd_fig9)

    p = sub.add_parser("critical-path",
                       help="STA (setup + hold) over the control netlist")
    p.add_argument("--period", type=float, default=2.0,
                   help="clock-period constraint, ns")
    p.set_defaults(func=_cmd_critical_path)

    p = sub.add_parser("scan", help="scan-chain IR-drop map demo")
    p.add_argument("--rows", type=int, default=8)
    p.add_argument("--cols", type=int, default=8)
    p.add_argument("--current", type=float, default=5.0,
                   help="total CUT current, amperes")
    p.add_argument("--code", type=int, default=3)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("yield", help="Monte-Carlo mismatch study")
    p.add_argument("--dies", type=int, default=40)
    p.add_argument("--sigma-inter", type=float, default=15.0,
                   help="inter-die Vth sigma, mV")
    p.add_argument("--sigma-intra", type=float, default=6.0,
                   help="per-stage Vth mismatch sigma, mV")
    _add_backend_arg(p)
    _add_runtime_args(p)
    p.set_defaults(func=_cmd_yield)

    p = sub.add_parser("bench",
                       help="run a perf bench from benchmarks/ by name")
    p.add_argument("name", nargs="?", default=None,
                   help="bench name, e.g. 'kernels' for "
                        "benchmarks/bench_kernels.py")
    p.add_argument("--list", action="store_true",
                   help="list available bench names and exit")
    p.add_argument("--all", action="store_true",
                   help="run every perf bench exposing run() and merge "
                        "one report under benchmarks/reports/")
    p.add_argument("--smoke", action="store_true",
                   help="with --all: CI-sized grids")
    p.add_argument("--repeats", type=int, default=3,
                   help="with --all: timed repeats per workload")
    p.add_argument("bench_args", nargs=argparse.REMAINDER,
                   help="arguments passed through to the bench "
                        "(e.g. --smoke --assert-speedup 3)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "telemetry",
        help="stream a synthetic PSN scenario through the "
             "bounded-memory telemetry pipeline",
    )
    p.add_argument("--samples", type=int, default=100_000,
                   help="samples per site (default 100000)")
    p.add_argument("--sites", type=int, default=1,
                   help="replicated sensor sites")
    p.add_argument("--dt-ns", type=float, default=1.0,
                   help="sample spacing, ns")
    p.add_argument("--droops", type=int, default=2,
                   help="injected droop events per site")
    p.add_argument("--depth", type=float, default=0.15,
                   help="droop depth, volts")
    p.add_argument("--noise-mv", type=float, default=5.0,
                   help="rail noise RMS, millivolts")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--code", type=int, default=3,
                   help="delay code for the decode ladder")
    p.add_argument("--chunk", type=int, default=1024,
                   help="decode chunk size, samples")
    p.add_argument("--capacity", type=int, default=8192,
                   help="per-site ring capacity, samples")
    p.add_argument("--policy", default="drop_oldest",
                   choices=("drop_oldest", "block", "error"),
                   help="ring overflow policy")
    p.add_argument("--block", type=int, default=4096,
                   help="source block size, samples")
    p.add_argument("--min-duration", type=int, default=2,
                   help="min in-episode samples for a droop event")
    p.add_argument("--refractory", type=int, default=8,
                   help="hold-off samples after an event closes")
    p.add_argument("--alert-depth", type=float, default=None,
                   metavar="VOLTS",
                   help="fire the droop-depth alert at this depth")
    p.add_argument("--fail-on-alert", action="store_true",
                   help="exit 1 when any alert fires")
    p.add_argument("--events-out", default=None, metavar="PATH",
                   help="write detected droop events as JSONL")
    p.add_argument("--json", action="store_true",
                   help="print the full snapshot registry as JSON")
    p.add_argument("--profile", action="store_true",
                   help="print the per-phase wall-time breakdown "
                        "(telemetry.ingest/decode/aggregate)")
    p.set_defaults(func=_cmd_telemetry)

    p = sub.add_parser("cache",
                       help="characterization result cache")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--dir", default=None,
                   help="cache directory (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro-psn)")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "versions",
        help="print the full provenance tuple (package, numpy/numba, "
             "kernel layout, seed scheme, wire schemas)",
    )
    p.add_argument("--json", action="store_true",
                   help="print the tuple as JSON")
    p.set_defaults(func=_cmd_versions)

    p = sub.add_parser(
        "campaign",
        help="declarative campaign orchestration: validate, run "
             "(resumable), diff against a golden",
    )
    csub = p.add_subparsers(dest="campaign_cmd", required=True)

    pv = csub.add_parser("validate",
                         help="schema-check a spec; print stage order "
                              "and spec hash")
    pv.add_argument("spec", help="campaign spec file (.toml or .json)")
    pv.set_defaults(func=_cmd_campaign)

    for verb, doc in (("run", "execute a campaign spec"),
                      ("resume", "re-invoke an interrupted run "
                                 "(same as run: completed stages "
                                 "replay from the cache)")):
        pr = csub.add_parser(verb, help=doc)
        pr.add_argument("spec",
                        help="campaign spec file (.toml or .json)")
        pr.add_argument("--out", required=True, metavar="DIR",
                        help="output directory (results/, "
                             "manifest.json, and — by default — the "
                             "resume cache)")
        pr.add_argument("--cache-dir", default=None,
                        help="task/stage cache root (default: "
                             "<out>/cache)")
        pr.add_argument("--golden", default=None, metavar="DIR",
                        help="after the run, diff against this golden "
                             "tree (nonzero exit on divergence)")
        pr.add_argument("--float-tol", type=float, default=0.0,
                        help="numeric tolerance for --golden payload "
                             "comparison (default: exact)")
        pr.add_argument("--json", action="store_true",
                        help="also print the manifest as JSON")
        pr.add_argument("--chaos-kill-after", type=int, default=None,
                        metavar="N",
                        help="crash drill: SIGKILL this process after "
                             "the Nth task-cache write (armed once "
                             "per out dir; re-invoke to resume)")
        pr.add_argument("--execution", default=None,
                        choices=("serial", "parallel", "threads"),
                        help="override runtime.execution: 'serial' "
                             "(stage bodies inline in this process) or "
                             "'parallel' (stage bodies in stage "
                             "processes, the default; 'threads' is "
                             "its legacy spelling); both produce "
                             "bit-identical manifests, and chaos "
                             "drills always run serial")
        pr.add_argument("--stage-workers", type=int, default=None,
                        metavar="N",
                        help="override runtime.stage_workers (stage "
                             "processes for concurrent stages; 0 = "
                             "default)")
        pr.add_argument("--profile", action="store_true",
                        help="print the per-phase wall-time breakdown "
                             "(campaign.stage.<id> per stage, the "
                             "kernel and cache phases inside it, "
                             "merged from stage processes, plus "
                             "campaign.schedule overhead) after the "
                             "run")
        pr.set_defaults(func=_cmd_campaign)

    pd = csub.add_parser("diff",
                         help="compare a run tree against a golden "
                              "tree")
    pd.add_argument("run_dir", help="the run to judge")
    pd.add_argument("golden_dir", help="the committed golden tree")
    pd.add_argument("--float-tol", type=float, default=0.0,
                    help="numeric tolerance for payload comparison "
                         "(default: exact)")
    pd.add_argument("--strict-provenance", action="store_true",
                    help="fail on provenance drift (engine versions, "
                         "fingerprints, cache keys) too")
    pd.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("faults",
                       help="stuck-at screening coverage study")
    p.add_argument("--code", type=int, default=3)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser("measure",
                       help="decode a static rail level (auto-ranged)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--vdd", type=float, help="VDD-n level, volts")
    group.add_argument("--gnd", type=float, help="GND-n rise, volts")
    p.add_argument("--code", type=int, default=3,
                   help="starting delay code")
    _add_backend_arg(p)
    p.add_argument("--record-trace", default=None, metavar="PATH",
                   help="record the driver's measurements to a "
                        "trace/v1 file (.jsonl or .csv)")
    p.add_argument("--replay-trace", default=None, metavar="PATH",
                   help="re-feed a recorded trace instead of "
                        "measuring (bit-identical replay)")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("backends",
                       help="list the registered measurement drivers")
    p.add_argument("--fingerprints", action="store_true",
                   help="also print each driver's cache fingerprint")
    p.set_defaults(func=_cmd_backends)

    p = sub.add_parser(
        "serve",
        help="run the sensing-as-a-service job server",
    )
    p.add_argument("--unix", default=None, metavar="PATH",
                   help="serve on a unix socket instead of TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0: pick a free one, printed at "
                        "startup)")
    p.add_argument("--dies", type=int, default=64,
                   help="virtual dies in the fleet")
    p.add_argument("--shards", type=int, default=4,
                   help="shards the fleet is hashed across")
    p.add_argument("--seed", type=int, default=2009,
                   help="fleet variation seed")
    p.add_argument("--executor", choices=("inline", "pool"),
                   default="inline",
                   help="'inline' worker threads (default) or one "
                        "process pool per shard (survives worker "
                        "kills)")
    p.add_argument("--pool-workers", type=int, default=2,
                   help="processes per shard pool")
    p.add_argument("--queue-depth", type=int, default=32,
                   help="admission queue depth per shard")
    p.add_argument("--queue-policy", default="block",
                   choices=("drop_oldest", "block", "error"),
                   help="admission overflow policy (the telemetry "
                        "ring semantics)")
    p.add_argument("--tenant-rate", type=float, default=None,
                   help="per-tenant token-bucket rate, requests/s")
    p.add_argument("--tenant-burst", type=float, default=None,
                   help="per-tenant burst capacity (default: rate)")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive failures that open a shard's "
                        "circuit breaker")
    p.add_argument("--breaker-cooldown", type=float, default=0.5,
                   metavar="SECONDS",
                   help="open dwell before a half-open probe")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="default per-request deadline")
    p.add_argument("--degrade-margin", type=float, default=0.0,
                   metavar="SECONDS",
                   help="answer degraded when less than this budget "
                        "remains at execution time")
    p.add_argument("--cache-dir", default=None,
                   help="serve repeat requests from this result cache")
    p.add_argument("--max-requests", type=int, default=None,
                   help="serve this many responses, then exit "
                        "(smoke tests)")
    p.add_argument("--stats-out", default=None, metavar="PATH",
                   help="write the final stats registry as JSON")
    _add_backend_arg(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="send one request to a running job server",
    )
    p.add_argument("address",
                   help="'unix:<path>' or '<host>:<port>' (as printed "
                        "by 'repro serve')")
    p.add_argument("kind",
                   choices=("ping", "measure", "characterize",
                            "s_curve", "yield", "window"),
                   help="request kind")
    p.add_argument("--params", default=None, metavar="JSON",
                   help="request parameters as a JSON object, e.g. "
                        "'{\"level\": 1.05, \"code\": 3}'")
    p.add_argument("--tenant", default="default")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="per-request deadline")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="client timeout over connect, send and reply, "
                        "seconds")
    p.set_defaults(func=_cmd_submit)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if getattr(args, "profile", False):
        import time as _time

        from repro.runtime import PROFILER

        PROFILER.reset()
        PROFILER.enable()
        t0 = _time.perf_counter()
        try:
            code = args.func(args)
        finally:
            wall = _time.perf_counter() - t0
            PROFILER.disable()
            print("\n--profile")
            print(PROFILER.report(total=wall))
        return code
    return args.func(args)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Any :class:`~repro.errors.ReproError` — a bad flag combination, an
    unreachable server, a driver capability miss — exits nonzero with
    a one-line message on stderr instead of a traceback; ``repro
    --traceback <command> ...`` opts back into the full stack for
    debugging.
    """
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        if getattr(args, "traceback", False):
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
