"""CLI tests: every subcommand produces its expected report."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info(capsys):
    code, out = run(capsys, "info")
    assert code == 0
    assert "fitted Vth" in out
    assert "0.1695" in out
    assert "[26, 40, 50, 65, 77, 92, 100, 107]" in out


def test_table_behavioural(capsys):
    code, out = run(capsys, "table")
    assert code == 0
    assert "011" in out
    assert "65.00" in out


def test_table_with_sim(capsys):
    code, out = run(capsys, "table", "--sim")
    assert code == 0
    assert "structural" in out


def test_fig4(capsys):
    code, out = run(capsys, "fig4", "--points", "5")
    assert code == 0
    assert "threshold" in out
    assert "2.00" in out and "0.9360" in out


def test_fig5(capsys):
    code, out = run(capsys, "fig5", "--codes", "3")
    assert code == 0
    assert "delay code 011" in out
    assert "0011111" in out
    assert "0.827" in out and "1.053" in out


def test_fig5_sim_flag_spells_backend_sim(capsys):
    code, flag = run(capsys, "fig5", "--codes", "3", "--sim")
    assert code == 0
    code, spec = run(capsys, "fig5", "--codes", "3", "--backend", "sim")
    assert code == 0
    assert flag == spec
    assert "delay code 011" in flag


def test_sim_flag_and_backend_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fig5", "--sim", "--backend", "kernel"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_backends_fingerprints(capsys):
    code, out = run(capsys, "backends", "--fingerprints")
    assert code == 0
    lines = out.splitlines()
    fingerprints = {}
    for name in ("kernel", "sim"):
        row = next(i for i, l in enumerate(lines)
                   if l.split()[:1] == [name])
        assert lines[row + 1].split()[0] == "fingerprint"
        fingerprints[name] = lines[row + 1].split()[1]
    assert fingerprints["kernel"] != fingerprints["sim"]


def test_fig9(capsys):
    code, out = run(capsys, "fig9")
    assert code == 0
    assert "0011111" in out
    assert "0000011" in out
    assert "0.9920" in out


def test_critical_path(capsys):
    code, out = run(capsys, "critical-path")
    assert code == 0
    assert "1.2200 ns" in out
    assert "hold slack" in out
    assert "clean" in out


def test_measure_vdd(capsys):
    code, out = run(capsys, "measure", "--vdd", "0.95")
    assert code == 0
    assert "0000111" in out


def test_measure_gnd(capsys):
    code, out = run(capsys, "measure", "--gnd", "0.05")
    assert code == 0
    assert "GND-n" in out


def test_measure_autoranges(capsys):
    code, out = run(capsys, "measure", "--vdd", "1.15")
    assert code == 0
    assert "code 010" in out


def test_measure_saturated_exit_code(capsys):
    code, out = run(capsys, "measure", "--vdd", "0.40")
    assert code == 2
    assert "saturated" in out


def test_scan(capsys):
    code, out = run(capsys, "scan", "--rows", "6", "--cols", "6",
                    "--current", "4.0")
    assert code == 0
    assert "tile (" in out
    assert "bracket rate 100%" in out


def test_yield(capsys):
    code, out = run(capsys, "yield", "--dies", "10")
    assert code == 0
    assert "per-die ladder" in out


def test_faults(capsys):
    code, out = run(capsys, "faults")
    assert code == 0
    assert "overall            100%" in out


def test_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_measure_requires_one_rail(capsys):
    with pytest.raises(SystemExit):
        main(["measure"])


def test_bench_list(capsys):
    code, out = run(capsys, "bench", "--list")
    assert code == 0
    assert "available benches" in out
    for name in ("kernels", "telemetry"):
        assert f"  {name}" in out


def test_bench_without_name_lists_and_fails(capsys):
    code, out = run(capsys, "bench")
    assert code == 2
    assert "available benches" in out


def test_bench_unknown_name(capsys):
    code, out = run(capsys, "bench", "no-such-bench")
    assert code == 2
    assert "not found" in out


def test_cache_stats_hit_rate(capsys, tmp_path):
    code, out = run(capsys, "cache", "stats", "--dir", str(tmp_path))
    assert code == 0
    assert "hit rate  : n/a (no lookups)" in out


def test_telemetry(capsys):
    code, out = run(capsys, "telemetry", "--samples", "20000",
                    "--sites", "2", "--droops", "1")
    assert code == 0
    assert "telemetry: code 011, chunk 1024" in out
    assert "site site0:" in out and "site site1:" in out
    assert "20000 samples" in out
    assert "droop @site0:" in out


def test_telemetry_json_and_events_out(capsys, tmp_path):
    import json

    path = tmp_path / "events.jsonl"
    code, out = run(capsys, "telemetry", "--samples", "20000",
                    "--droops", "2", "--events-out", str(path),
                    "--json")
    assert code == 0
    assert f"wrote 2 event(s) to {path}" in out
    events = [json.loads(line) for line in
              path.read_text().splitlines()]
    assert len(events) == 2
    snap = json.loads(out[out.index("{"):])
    assert snap["totals"]["events"] == 2
    assert snap["sites"]["site0"]["decoded"] == 20000


def test_telemetry_fail_on_alert(capsys):
    code, out = run(capsys, "telemetry", "--samples", "20000",
                    "--droops", "1", "--alert-depth", "0.05",
                    "--fail-on-alert")
    assert code == 1
    assert "ALERTS: droop-depth" in out


def test_telemetry_policy_choices(capsys):
    with pytest.raises(SystemExit):
        main(["telemetry", "--policy", "bogus"])
