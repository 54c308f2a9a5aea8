"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` keeps one table mapping each
public name to the module that defines it, derives ``__all__`` from
the table and installs the ``__getattr__``/``__dir__`` pair built here.
A name's module is imported on the first access to that name, so
``import repro.runtime.cache`` loads neither NumPy nor ``repro.core``,
and ``import repro`` loads no subpackage at all.  Once resolved, a
name is stored in the package's globals, so later lookups never reach
``__getattr__`` again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(package: str, table: Mapping[str, str]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``table`` maps each exported name to its defining module, relative
    to ``package`` (``".calibration"``); ``"."`` marks a name the
    package defines itself, which ``__getattr__`` never imports.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None or module == ".":
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__
