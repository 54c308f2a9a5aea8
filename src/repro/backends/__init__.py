"""Pluggable measurement drivers behind one ``SensorBackend`` seam.

The registry resolves driver *specs* — short strings usable from code,
the CLI (``--backend``) and the environment (``REPRO_BACKEND``):

========================  ====================================================
spec                      driver
========================  ====================================================
``"kernel"``              :class:`~repro.backends.kernel.KernelBackend`
                          (vectorized analytic/MC tier; the default)
``"sim"``                 :class:`~repro.backends.sim.SimBackend`
                          (event-driven oracle)
``"replay:<path>"``       :class:`~repro.backends.replay.ReplayBackend`
                          over the trace file at ``<path>``
========================  ====================================================

Entry points take ``backend=`` (a spec string or a ready instance) and
resolve it with :func:`resolve_backend`; with no explicit argument the
``REPRO_BACKEND`` variable decides, falling back to ``"kernel"``.

Quickstart — record once, replay forever::

    from repro.backends import RecordingBackend, ReplayBackend, get

    with RecordingBackend(get("kernel"), "campaign.jsonl") as rec:
        result = characterize_array(design, backend=rec)

    again = characterize_array(
        design, backend=ReplayBackend("campaign.jsonl")
    )
    assert again == result   # bit-identical, no measuring
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable

from repro._lazy import lazy_exports
from repro.errors import BackendError

if TYPE_CHECKING:
    from repro.backends.base import SensorBackend

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "BACKEND_ENV": ".",
    "BACKEND_PROTOCOL": ".base",
    "BackendCapabilities": ".base",
    "BackendMeasure": ".base",
    "FaultInjectingBackend": ".faults",
    "InjectedFaultError": ".faults",
    "KernelBackend": ".kernel",
    "RecordingBackend": ".recording",
    "ReplayBackend": ".replay",
    "SensorBackend": ".base",
    "SimBackend": ".sim",
    "TRACE_SCHEMA": ".trace",
    "Trace": ".trace",
    "TraceHeader": ".trace",
    "TraceWriter": ".trace",
    "available": ".",
    "get": ".",
    "register": ".",
    "resolve_backend": ".",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

#: Environment variable naming the default driver spec.
BACKEND_ENV = "REPRO_BACKEND"


def _kernel_backend() -> SensorBackend:
    from repro.backends.kernel import KernelBackend

    return KernelBackend()


def _sim_backend(**settings: float) -> SensorBackend:
    from repro.backends.sim import SimBackend

    return SimBackend(**settings)


#: Spec name -> zero-argument driver factory (the stock drivers'
#: modules load on their first construction).
_REGISTRY: dict[str, Callable[[], SensorBackend]] = {
    "kernel": _kernel_backend,
    "sim": _sim_backend,
}


def register(name: str,
             factory: Callable[[], SensorBackend]) -> None:
    """Add a driver factory under a spec name (e.g. a hardware rig).

    Re-registering a name replaces its factory — deliberate, so test
    doubles can shadow the stock drivers.
    """
    if not name or ":" in name:
        raise BackendError(
            f"invalid backend name {name!r} (non-empty, no ':')"
        )
    _REGISTRY[name] = factory


def available() -> tuple[str, ...]:
    """Registered spec names, sorted (``replay:<path>`` not listed —
    it needs a trace argument)."""
    return tuple(sorted(_REGISTRY))


def get(spec: str) -> SensorBackend:
    """Resolve a spec string to a fresh driver instance.

    ``"replay:<path>"`` loads the trace file at ``<path>``; any other
    spec must name a registered factory.
    """
    if spec.startswith("replay:"):
        path = spec[len("replay:"):]
        if not path:
            raise BackendError(
                "replay spec needs a trace path: 'replay:<path>'"
            )
        from repro.backends.replay import ReplayBackend

        return ReplayBackend(path)
    factory = _REGISTRY.get(spec)
    if factory is None:
        raise BackendError(
            f"unknown backend {spec!r}; registered: "
            f"{', '.join(available())} (or 'replay:<path>')"
        )
    return factory()


def resolve_backend(backend: "SensorBackend | str | None",
                    *, default: str = "kernel",
                    sim_settings: dict[str, float] | None = None
                    ) -> SensorBackend:
    """The entry-point resolution rule.

    Precedence: an explicit instance > an explicit spec string > the
    ``REPRO_BACKEND`` environment variable > ``default``.

    ``sim_settings`` (``tol``, ``bracket_pad``) build the stock sim
    driver when the rule lands on the ``"sim"`` spec; an instance
    keeps its own settings, and a factory registered over ``"sim"``
    is called without them.
    """
    from repro.backends.base import SensorBackend

    if isinstance(backend, SensorBackend):
        return backend
    spec = backend if backend is not None \
        else os.environ.get(BACKEND_ENV) or default
    if spec == "sim" and sim_settings \
            and _REGISTRY.get("sim") is _sim_backend:
        return _sim_backend(**sim_settings)
    return get(spec)
