"""One driver matrix for the three characterization entry points.

Every spelling of a driver — unset, a registry spec, the ``method=``
alias, ``$REPRO_BACKEND``, an instance, a recording decorator around
one — must reach the same driver and give the same bits, because an
entry point resolves one driver and calls only that driver's sweep
ops.  The masked-rung case is
``tests/test_backends_parity.py::test_generic_characterization_masks_nan_bits``.
"""

from __future__ import annotations

import math

import pytest

from repro import backends
from repro.backends import (
    BACKEND_ENV,
    KernelBackend,
    RecordingBackend,
    SimBackend,
)
from repro.campaign import read_stage_payload, run_campaign, \
    spec_from_mapping
from repro.core.characterization import (
    characterize_array,
    characterize_bit_thresholds,
    threshold_vs_capacitance,
)
from repro.core.sensor import SenseRail
from repro.errors import CharacterizationError
from repro.runtime import ResultCache

CAPS = [1.8e-12, 2.0e-12, 2.2e-12]

#: Sim bisection tolerance of the matrix runs (coarse keeps them fast).
SIM_TOL = 5e-3


def _hex(values):
    return [None if v is None else float(v).hex() for v in values]


def _sweeps(design, **driver):
    """Every entry point's result through one driver spelling."""
    return {
        "vdd": _hex(characterize_bit_thresholds(design, 3, **driver)),
        "gnd": _hex(characterize_bit_thresholds(
            design, 3, rail=SenseRail.GND, **driver)),
        "array": {code: _hex(ch.thresholds) for code, ch in
                  characterize_array(design, (2, 3), **driver).items()},
        "caps": _hex(t for _cap, t in
                     threshold_vs_capacitance(design, CAPS, **driver)),
    }


# -- kernel spellings ----------------------------------------------------------

def test_kernel_spellings_agree_bit_for_bit(design, monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    unset = _sweeps(design)
    spellings = {
        "spec": {"backend": "kernel"},
        "method": {"method": "analytic"},
        "instance": {"backend": KernelBackend()},
        "recording": {"backend": RecordingBackend(KernelBackend())},
    }
    for name, driver in spellings.items():
        assert _sweeps(design, **driver) == unset, name


# -- sim spellings -------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_sim_spellings_agree_bit_for_bit(design, monkeypatch, workers):
    def sweeps(**driver):
        return {
            "vdd": _hex(characterize_bit_thresholds(
                design, 3, workers=workers, **driver)),
            "array": {code: _hex(ch.thresholds) for code, ch in
                      characterize_array(design, (2, 3),
                                         workers=workers,
                                         **driver).items()},
            "caps": _hex(t for _cap, t in threshold_vs_capacitance(
                design, CAPS[:2], workers=workers, **driver)),
        }

    spec = sweeps(backend="sim", tol=SIM_TOL)
    assert sweeps(method="sim", tol=SIM_TOL) == spec
    assert sweeps(backend=SimBackend(tol=SIM_TOL)) == spec
    monkeypatch.setenv(BACKEND_ENV, "sim")
    assert sweeps(tol=SIM_TOL) == spec


def test_sim_instance_measures_with_its_own_tol(design, tmp_path):
    """A driver instance bisects at its own ``tol``, not the entry
    point's default, and its cache keys name that ``tol``."""
    instance = SimBackend(tol=2e-2)
    instance.configure(design)
    own = instance.bit_thresholds(3)

    cache = ResultCache(tmp_path)
    through_entry = characterize_bit_thresholds(
        design, 3, backend=SimBackend(tol=2e-2), cache=cache)
    assert _hex(through_entry) == _hex(own)
    assert cache.misses == design.n_bits

    # The same settings built from the spec read the same entries.
    warm = ResultCache(tmp_path)
    from_spec = characterize_bit_thresholds(
        design, 3, backend="sim", tol=2e-2, cache=warm)
    assert _hex(from_spec) == _hex(own)
    assert (warm.hits, warm.misses) == (design.n_bits, 0)


def test_sim_campaign_stage_bisects_at_its_tol(design, tmp_path):
    spec = spec_from_mapping({
        "schema": "campaign/v1",
        "name": "sim-tol",
        "backend": {"spec": "sim"},
        "stages": [{"id": "ladder", "kind": "characterization",
                    "params": {"codes": [3], "tol": 2e-2}}],
    })
    run = run_campaign(spec, out_dir=tmp_path / "out")
    assert run.ok
    payload = read_stage_payload(tmp_path / "out", "ladder")
    expect = characterize_bit_thresholds(design, 3, backend="sim",
                                         tol=2e-2)
    assert payload["per_code"]["3"]["thresholds"] == list(expect)


def test_registered_sim_factory_is_called_without_settings(design,
                                                            monkeypatch):
    """A zero-argument factory registered over ``"sim"`` serves every
    sim spelling; the entry point's ``tol`` is not forced on it."""
    monkeypatch.setitem(backends._REGISTRY, "sim", KernelBackend)
    kernel = characterize_bit_thresholds(design, 3, backend="kernel")
    assert characterize_bit_thresholds(design, 3, backend="sim",
                                       tol=2e-2) == kernel
    assert characterize_bit_thresholds(design, 3, method="sim") == kernel


# -- driver error contract ---------------------------------------------------

@pytest.mark.parametrize("error, masked", [
    (CharacterizationError("does not bracket"), True),
    (TypeError("harness bug"), False),
])
def test_sim_bit_thresholds_masks_only_unbracketable_stages(
        design, monkeypatch, error, masked):
    """An unbracketable stage is a NaN bit; any other failure of the
    bisection propagates."""
    from repro.backends import sim

    def fail(spec):
        raise error

    monkeypatch.setattr(sim, "_sim_threshold_task", fail)
    driver = SimBackend()
    driver.configure(design)
    if masked:
        (value,) = driver.bit_thresholds(3, bits=(1,))
        assert math.isnan(value)
    else:
        with pytest.raises(type(error), match="harness bug"):
            driver.bit_thresholds(3, bits=(1,))


class _Bit1Masked:
    """Reports bit 1 as masked (NaN) over a fixed ladder — no solve,
    no event run."""

    def bit_thresholds(self, code, *, bits=None):
        sel = range(1, self.design.n_bits + 1) if bits is None else bits
        return tuple(math.nan if b == 1 else 0.8 + 0.01 * b for b in sel)


@pytest.mark.parametrize("base", [KernelBackend, SimBackend])
def test_subclass_bit_thresholds_reach_every_entry_point(design, base):
    """A stock driver's subclass that overrides ``bit_thresholds`` is
    swept through it, not through the stock batch ops."""
    driver = type("Masked", (_Bit1Masked, base), {})()
    assert characterize_bit_thresholds(design, 3, backend=driver)[0] \
        is None
    array = characterize_array(design, (2, 3), backend=driver)
    assert [ch.masked_bits for ch in array.values()] == [(1,), (1,)]
    assert threshold_vs_capacitance(design, CAPS, backend=driver) \
        == [(cap, None) for cap in CAPS]
