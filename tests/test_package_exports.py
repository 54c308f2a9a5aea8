"""Every ``repro`` package's lazy exports honour their ``__all__``.

Package ``__init__`` modules resolve their public names on first
access (:mod:`repro._lazy`), so a table entry naming the wrong module
would otherwise fail only on a user's first call.  Per package, in a
fresh interpreter: ``from pkg import *`` binds every name in
``__all__``, ``getattr`` returns the same objects, ``dir`` lists them
all, and an unknown name raises an ``AttributeError`` that names the
package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)

PROBE = """
import importlib, json, sys

name = sys.argv[1]
namespace = {}
exec(f"from {name} import *", namespace)
package = importlib.import_module(name)
exports = list(package.__all__)
listed = set(dir(package))
try:
    getattr(package, "no_such_export")
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "exports": exports,
    "unbound": [n for n in exports if n not in namespace],
    "differ": [n for n in exports
               if namespace.get(n) is not getattr(package, n)],
    "unlisted": [n for n in exports if n not in listed],
    "unknown": unknown,
}))
"""


def probe(package: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, package],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_packages_are_discovered():
    assert {"repro", "repro.backends", "repro.core"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    out = probe(package)
    assert out["exports"], f"{package} exports nothing"
    assert len(set(out["exports"])) == len(out["exports"])
    assert out["unbound"] == []
    assert out["differ"] == []
    assert out["unlisted"] == []
    assert out["unknown"] is not None
    assert repr(package) in out["unknown"]
    assert "no_such_export" in out["unknown"]
