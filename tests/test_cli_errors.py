"""CLI error hygiene, verified through real subprocesses.

Operator-facing failures must surface as a single ``error: <Type>:
<message>`` line on stderr with a nonzero exit — never a Python
traceback — and ``--traceback`` must opt back into the full stack for
debugging.  Run via subprocess so sys.excepthook, exit codes and
stream separation are the real thing, not capsys approximations.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(*argv, timeout=60):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_repro_error_is_one_line_no_traceback():
    # Nothing listens on this port: ServiceError from connect().
    proc = run_cli("submit", "127.0.0.1:1", "ping")
    assert proc.returncode == 1
    lines = [l for l in proc.stderr.splitlines() if l.strip()]
    assert len(lines) == 1
    assert lines[0].startswith("error: ServiceError: cannot connect")
    assert "Traceback" not in proc.stderr


def test_traceback_flag_restores_the_stack():
    proc = run_cli("--traceback", "submit", "127.0.0.1:1", "ping")
    assert proc.returncode != 0
    assert "Traceback (most recent call last)" in proc.stderr
    assert "ServiceError" in proc.stderr


def test_bad_params_json_is_a_protocol_error():
    proc = run_cli("submit", "127.0.0.1:1", "measure",
                   "--params", "{not json")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ProtocolError:")
    assert "Traceback" not in proc.stderr


def test_configuration_error_from_bad_flags():
    proc = run_cli("serve", "--queue-depth", "0",
                   "--max-requests", "0")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ConfigurationError:")
    assert "Traceback" not in proc.stderr


def test_clean_commands_stay_quiet_on_stderr():
    proc = run_cli("info")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "fitted Vth" in proc.stdout
