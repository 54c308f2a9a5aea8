"""Import cost of a fresh process, checked in real subprocesses.

Every production flow (``repro yield``, ``repro serve``, campaigns) is
a short process that pays the package's import time before it does any
work.  Module headers therefore import only what set-up needs:
``scipy.signal`` (which loads ``scipy.stats``) is imported at its two
filtering call sites, and ``networkx`` is not a dependency at all.
Each case runs in a fresh interpreter so the test session's own
imports cannot hide a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

HEAVY = ("scipy.signal", "scipy.stats", "networkx")

SET_UP = """
import repro
import repro.analysis.yield_study
import repro.campaign
import repro.cli
import repro.core.characterization
import repro.runtime
import repro.service
from repro.core.calibration import paper_design

paper_design()
"""

NOISE = """
from repro.psn.noise import band_limited_noise

wave = band_limited_noise(t_end=1e-6, dt=1e-9, rms=0.01,
                          bandwidth=50e6, seed=7)
values = wave.values.tolist()
"""

STEPPER = """
import numpy as np

from repro.kernels.transient import TransientStepper
from repro.psn.pdn import PDNParameters

params = PDNParameters()
stepper = TransientStepper(params, 0.04 / params.resonant_frequency)
values = stepper.step(np.linspace(0.0, 3.0, 64)).tolist()
"""


def run_python(code: str):
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_set_up_imports_leave_heavy_packages_unloaded():
    out = run_python(
        "import json, sys\n" + SET_UP
        + f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    assert out == []


@pytest.mark.parametrize("site", [NOISE, STEPPER],
                         ids=["band_limited_noise", "transient_stepper"])
def test_filter_sites_import_scipy_signal_on_first_call(site):
    out = run_python(
        "import json, sys\n" + SET_UP
        + "before = 'scipy.signal' in sys.modules\n"
        + site
        + "after = 'scipy.signal' in sys.modules\n"
        + "print(json.dumps({'before': before, 'after': after, "
        + "'values': values}))\n"
    )
    assert (out["before"], out["after"]) == (False, True)
    # The lazily imported filter gives this process's numbers exactly.
    here: dict = {}
    exec(site, here)
    assert out["values"] == here["values"]
