"""The benchmark's workloads: name -> (module, keyword arguments).

Each module has ``ready()`` (the set-up ``setup_s`` times in a fresh
interpreter) and ``run(ctx, **kwargs) -> Outcome``.  Modules import
``repro`` lazily, so listing workloads needs no checkout.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

WORKLOADS: dict[str, tuple[str, dict[str, Any]]] = {
    "paper": ("paper", {}),
    "lot": ("lot", {"warm": False}),
    "lot-warm": ("lot", {"warm": True}),
    "serve": ("serve", {}),
    "campaign": ("campaign", {"resume": False}),
    "campaign-resume": ("campaign", {"resume": True}),
}


def load(name: str) -> tuple[Any, Callable[..., Any]]:
    """(module, run callable with the workload's arguments bound)."""
    module_name, kwargs = WORKLOADS[name]
    module = importlib.import_module(f"e2ebench.workloads.{module_name}")
    return module, lambda ctx: module.run(ctx, **kwargs)
