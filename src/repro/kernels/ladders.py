"""The ladder store: each fixed threshold ladder is solved once per process.

A stage's failure threshold depends only on the design, the delay
code and the technologies it is built in, so each code gives a fixed
reference ladder, as the resistor string does in a flash ADC.  This
module is the only place such ladders are memoized.  It holds three
kinds of entry in one bounded, least-recently-used table:

* :func:`ladder` — a whole (nominal or corner) ladder, keyed by
  ``(design, code, tech)`` and solved by
  :func:`~repro.kernels.thresholds.threshold_grid`;
* :func:`die_ladders` — per-die rows of a variation lot, keyed by
  ``(design, sample, code)``; the missing rows of a call are
  solved in one :func:`~repro.kernels.thresholds.lot_threshold_grid`
  batch, and batch invariance makes each row bit-identical to the same
  row of a whole-lot solve;
* :func:`bit_threshold` — one scalar threshold from
  :meth:`~repro.core.calibration.SensorDesign.bit_threshold`, keyed by
  ``(design, bit, code, tech, window_tech)``.

Every key is made of frozen values.  Entries are the solver's own
floats, returned as tuples, Python floats or read-only arrays: no
caller can change a stored rung, and every output stays bit-identical
to a fresh solve.
A failed solve (a bad code or bit) stores nothing.

The solvers themselves stay plain: ``threshold_grid``,
``lot_threshold_grid`` and ``SensorDesign.bit_threshold`` solve on
every call, and they are what the oracle tests and kernel benches time.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

from repro.kernels.thresholds import (
    _bits_array,
    lot_threshold_grid,
    threshold_grid,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.calibration import SensorDesign
    from repro.devices.technology import Technology
    from repro.devices.variation import VariationSample

#: Entries kept before the least recently used one is evicted.  The
#: e2ebench workloads end with 10 entries after a ``serve`` round, 147
#: after a ``paper`` pass and 1,008 after a ``campaign`` run, 1,000 of
#: them the die rows of its 1,000-die ``yield_study`` stage.  A yield
#: lot of more dies than this on a named backend pushes every other
#: entry out, to be solved again on its next read.  Each entry holds
#: at most one ladder's ``bits`` floats.
MAX_ENTRIES = 4096

_MISSING = object()
_entries: "OrderedDict[Hashable, object]" = OrderedDict()
_lock = threading.Lock()


def _reset_lock_in_child() -> None:
    # A pool forked while another thread held the lock must not
    # inherit it held.
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_in_child)


def _get(key: Hashable) -> object:
    with _lock:
        value = _entries.get(key, _MISSING)
        if value is not _MISSING:
            _entries.move_to_end(key)
        return value


def _put(key: Hashable, value: object) -> object:
    """Store ``value`` and return the stored entry: a thread that lost
    a race on ``key`` gets the winner's value, so one entry remains."""
    with _lock:
        stored = _entries.setdefault(key, value)
        _entries.move_to_end(key)
        while len(_entries) > MAX_ENTRIES:
            _entries.popitem(last=False)
        return stored


def clear() -> None:
    """Drop every entry (tests and benches that need a cold store)."""
    with _lock:
        _entries.clear()


def size() -> int:
    """Number of stored entries of all three kinds."""
    with _lock:
        return len(_entries)


def ladder(design: "SensorDesign", code: int,
           tech: "Technology | None" = None, *,
           bits: Iterable[int] | None = None) -> tuple[float, ...]:
    """The (bits x 1) :func:`threshold_grid` column for ``code``, volts.

    The whole ladder is solved on first use; the same tuple is returned
    after that.  ``bits`` selects rungs from it, which batch invariance
    makes equal to solving those bits alone.
    """
    key = ("ladder", design, code, tech)
    rungs = _get(key)
    if rungs is _MISSING:
        grid = threshold_grid(design, (code,), tech)
        rungs = _put(key, tuple(grid[:, 0].tolist()))
    if bits is None:
        return rungs
    return tuple(rungs[b - 1] for b in _bits_array(design, bits))


def die_ladders(design: "SensorDesign",
                lot: Sequence["VariationSample"], code: int
                ) -> np.ndarray:
    """Read-only (dies x bits) :func:`lot_threshold_grid` table, volts.

    Rows already stored are read; the rest are solved together in one
    batch and stored row by row, each as its own copy, so a stored row
    holds ``bits`` floats and never keeps the batch array alive.
    """
    keys = [("die", design, sample, code) for sample in lot]
    rows = [_get(key) for key in keys]
    missing = [i for i, row in enumerate(rows) if row is _MISSING]
    if missing:
        grid = lot_threshold_grid(design, [lot[i] for i in missing],
                                  code)
        for i, row in zip(missing, grid):
            row = row.copy()
            row.flags.writeable = False
            rows[i] = _put(keys[i], row)
    table = np.stack(rows)
    table.flags.writeable = False
    return table


def bit_threshold(design: "SensorDesign", bit: int, code: int,
                  tech: "Technology | None" = None, *,
                  window_tech: "Technology | None" = None) -> float:
    """:meth:`SensorDesign.bit_threshold`, solved once per key."""
    key = ("bit", design, bit, code, tech, window_tech)
    value = _get(key)
    if value is _MISSING:
        value = _put(key, design.bit_threshold(
            bit, code, tech, window_tech=window_tech))
    return value
