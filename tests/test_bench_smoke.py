"""Every bench module must import and expose collectable tests.

The benches only run when someone asks for them (``pytest
benchmarks``), so an API change can silently rot them.  This smoke
test makes bit-rot a tier-1 failure: each ``bench_*.py`` must import
cleanly and define at least one collectable ``test_*`` function whose
required arguments are known fixtures.
"""

import importlib
import inspect
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))

#: Fixtures a bench test may request (pytest-benchmark's, plus ours
#: from benchmarks/conftest.py and pytest built-ins).
KNOWN_FIXTURES = {"benchmark", "design", "tmp_path", "monkeypatch",
                  "capsys"}


def test_bench_suite_is_nonempty():
    assert len(BENCH_MODULES) >= 15


def test_machine_fingerprint_keeps_the_host_keys():
    """Bench hosts stay comparable with records that carry the numeric
    stack: the kernel backend is the NumPy one, and numba's version
    (or ``"none"``) is still recorded."""
    from benchmarks._perf import machine_fingerprint

    fp = machine_fingerprint()
    assert fp["kernel_backend"] == "numpy"
    assert isinstance(fp["numba"], str) and fp["numba"]


def test_chaos_campaign_smoke(design, tmp_path):
    """The end-to-end resilience drill stays green in tier-1: injected
    worker kills, vandalized cache entries and a stuck-at stage must
    not change the sweep's results on any surviving bit."""
    from benchmarks.bench_chaos_campaign import run_drill

    rep = run_drill(design, tmp_path)
    assert rep.diff.ok, [str(d) for d in rep.diff.divergences]
    assert rep.healed
    assert rep.crashes >= 1
    assert rep.masked_bits  # the stuck stage was caught and masked


@pytest.mark.parametrize("name", BENCH_MODULES)
def test_bench_module_imports_and_collects(name):
    mod = importlib.import_module(f"benchmarks.{name}")
    tests = {
        attr: obj for attr, obj in vars(mod).items()
        if attr.startswith("test_") and callable(obj)
    }
    assert tests, f"{name} defines no collectable test function"
    for attr, fn in tests.items():
        params = inspect.signature(fn).parameters.values()
        unknown = [
            p.name for p in params
            if p.default is inspect.Parameter.empty
            and p.name not in KNOWN_FIXTURES
        ]
        assert not unknown, (
            f"{name}.{attr} requests unknown fixtures {unknown}"
        )
