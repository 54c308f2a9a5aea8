"""Import cost of a fresh process, checked in real subprocesses.

Every production flow (``repro yield``, ``repro serve``, campaigns) is
a short process that pays the package's import time before it does any
work.  Module headers therefore import no scipy at all, and set-up
(importing every ``repro`` module, plus ``paper_design()``) loads none
of it: calibration solves with the in-tree :mod:`repro.devices.brent`.
Each scipy piece is imported at the call that uses it, and each
first-call case below checks that the call loads it and returns the
numbers this process gets:

* ``scipy.signal`` (which loads ``scipy.stats``) at the two filtering
  sites, ``band_limited_noise`` and ``TransientStepper.step``;
* ``scipy.linalg`` (``expm``) when a ``TransientStepper`` discretizes
  its PDN;
* ``scipy.sparse`` (``splu``) at an ``IRDropGrid``'s first solve;
* ``scipy.optimize`` (``curve_fit``) at the first ``SCurve.fit``.

``networkx`` is not a dependency at all.

Package exports are lazy (:mod:`repro._lazy`) and a module header
imports only what every call needs, so each entry point below loads at
most its ceiling of ``repro`` modules: a campaign resume needs no
sensor, simulator or kernel module, and the result cache needs no
NumPy.

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

HEAVY = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.linalg",
         "scipy.sparse", "scipy.special", "networkx")

#: Imports every ``repro`` module (``__main__`` would run the CLI), so
#: each module header is checked, not only those an entry point loads.
SET_UP = """
import importlib
import pkgutil

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)

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


DISCRETIZE = """
from repro.kernels.transient import TransientStepper, discretize
from repro.psn.pdn import PDNParameters

params = PDNParameters()
dt = 0.04 / params.resonant_frequency
TransientStepper(params, dt)
disc = discretize(params, dt)  # the stepper's cached discretization
values = disc.a_d.tolist() + disc.b_d.tolist()
"""

GRID = """
import numpy as np

from repro.psn.grid import IRDropGrid

grid = IRDropGrid(rows=4, cols=5, r_segment=0.05, r_pad=0.01)
values = grid.solve(np.linspace(0.01, 0.2, 20).reshape(4, 5)).tolist()
"""

FIT = """
import math

from repro.analysis.repeatability import SCurve

levels = tuple(0.90 + 0.005 * i for i in range(21))
curve = SCurve(bit=3, levels=levels, n_per_level=200,
               pass_probability=tuple(
                   0.5 * (1.0 + math.erf((v - 0.951) / (2 ** 0.5 * 0.012)))
                   for v in levels))
fit = curve.fit()
values = [fit.threshold, fit.noise_sigma, fit.rms_residual]
"""


#: ``repro`` modules (the package itself included) each entry may
#: load, measured when the package exports became lazy.
CEILINGS = {
    "repro": 2,
    "repro.campaign.runner": 15,
    "repro.runtime.cache": 6,
    "repro.analysis.yield_study": 26,
    "repro.cli": 4,
    "repro.service.server": 47,
}


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


def assert_loaded_on_first_call(module: str, site: str) -> None:
    """``site`` loads ``module`` (unloaded after set-up) and gives the
    numbers the same code gives in this process."""
    out = run_python(
        "import json, sys\n" + SET_UP
        + f"before = {module!r} in sys.modules\n"
        + site
        + f"after = {module!r} in sys.modules\n"
        + "print(json.dumps({'before': before, 'after': after, "
        + "'values': values}))\n"
    )
    assert (out["before"], out["after"]) == (False, True)
    # The lazily imported scipy gives this process's numbers exactly.
    here: dict = {}
    exec(site, here)
    assert out["values"] == here["values"]


@pytest.mark.parametrize("site", [NOISE, STEPPER],
                         ids=["band_limited_noise", "transient_stepper"])
def test_filter_sites_import_scipy_signal_on_first_call(site):
    assert_loaded_on_first_call("scipy.signal", site)


@pytest.mark.parametrize("module,site", [
    ("scipy.linalg", DISCRETIZE),
    ("scipy.sparse", GRID),
    ("scipy.optimize", FIT),
], ids=["transient_stepper_init", "grid_solve", "s_curve_fit"])
def test_solver_sites_import_scipy_on_first_call(module, site):
    assert_loaded_on_first_call(module, site)


def loaded_by(entry: str) -> list[str]:
    """Every module a fresh interpreter holds after ``import entry``."""
    return run_python(f"import json, sys\nimport {entry}\n"
                      "print(json.dumps(sorted(sys.modules)))\n")


def in_package(modules: list[str], *packages: str) -> list[str]:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


@pytest.mark.parametrize("entry", list(CEILINGS))
def test_entry_loads_at_most_its_ceiling(entry):
    loaded = in_package(loaded_by(entry), "repro")
    assert len(loaded) <= CEILINGS[entry], loaded


def test_campaign_runner_loads_no_engine_layer():
    loaded = loaded_by("repro.campaign.runner")
    assert in_package(loaded, "repro.core", "repro.sim",
                      "repro.kernels") == []


def test_campaign_runner_loads_no_process_pool():
    """The stage pool's modules load when a stage first misses the
    stage cache, so a resume that starts no process never pays for
    them."""
    loaded = loaded_by("repro.campaign.runner")
    assert in_package(loaded, "concurrent.futures.process",
                      "multiprocessing") == []


def test_result_cache_loads_no_numpy():
    assert in_package(loaded_by("repro.runtime.cache"), "numpy") == []
