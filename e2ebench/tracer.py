"""Outside-in span tracer.

The tracer never edits ``src/``: :meth:`Tracer.installing` rebinds the
module and class attributes that hold each entry point of
:data:`e2ebench.layers.TABLE` to a wrapper, and restores them after.

* A *span* entry records ``(id, parent, name, layer, start, end, work,
  thread)``.  Parents come from a per-thread stack, so a layer's *self
  time* is its span time minus the time its child spans cover.  The
  work id names the artifact, lot phase, campaign stage or server
  batch a span served: the innermost :meth:`recording` block's label,
  an entry's own extractor, or the root span's name.
* A *count* entry only counts calls: hot scalar functions would cost
  more to time than they take.
* A *hook* runs around a span entry's call to collect counters the
  call's arguments or result hold (cache hits, simulated events).

Spans are kept in memory and written out by :func:`write_trace`.
Wrappers pass straight through outside :meth:`recording` and in
forked pool workers, whose work shows up as the parent's wait.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

#: Modules whose globals may hold a traced function.
_REBIND_PREFIXES = ("repro", "benchmarks", "e2ebench")

SPAN_FIELDS = ("id", "parent", "name", "layer", "start", "end", "work",
               "thread")


@dataclass(frozen=True)
class Entry:
    """One traced entry point: ``"package.module:Qualified.name"``."""

    target: str
    layer: str
    count_only: bool = False
    hook: Callable[..., Any] | None = None
    work: Callable[[tuple, dict], str | None] | None = None

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


class _AtomicCount:
    """A call counter safe across threads (``next`` on an
    ``itertools.count`` is atomic)."""

    def __init__(self) -> None:
        self._it = itertools.count()
        self._reads = 0

    def bump(self) -> None:
        next(self._it)

    def value(self) -> int:
        self._reads += 1
        return next(self._it) - (self._reads - 1)


class Tracer:
    """Span recorder over a table of :class:`Entry`."""

    def __init__(self, table: list[Entry]) -> None:
        names = Counter(entry.name for entry in table)
        clashes = sorted(n for n, k in names.items() if k > 1)
        if clashes:
            raise ValueError(f"entry names used twice: {clashes}")
        self.table = table
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.active = False
        self.installed = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._counts: dict[str, _AtomicCount] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def add(self, key: str, n: float = 1) -> None:
        """Add to a named counter (hooks call this)."""
        with self._lock:
            self.counters[key] += n

    def call_counts(self) -> dict[str, int]:
        """Calls seen by each count-only entry."""
        return {name: c.value() for name, c in self._counts.items()}

    @contextlib.contextmanager
    def recording(self, work: str | None = None) -> Iterator[None]:
        """Record spans inside this block, labelled ``work``."""
        prev = getattr(self._local, "work", None)
        self._local.work = work
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._local.work = prev

    def _span(self, fn: Callable, entry: Entry) -> Callable:
        tracer, local, ids = self, self._local, self._ids
        spans, pid = self.spans, self._pid
        name, layer, hook, work_of = (entry.name, entry.layer,
                                      entry.hook, entry.work)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or os.getpid() != pid:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent, work = stack[-1]
            else:
                parent, work = None, getattr(local, "work", None)
            if work_of is not None:
                work = work_of(args, kwargs) or work
            work = work or f"{name}#{sid}"
            stack.append((sid, work))
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, lambda: fn(*args, **kwargs),
                            args, kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, layer, start, end,
                              work, threading.get_ident()))

        return wrapper

    def _counter(self, fn: Callable, entry: Entry) -> Callable:
        tracer = self
        bump = self._counts.setdefault(entry.name, _AtomicCount()).bump

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.active:
                bump()
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn: Callable, entry: Entry) -> Callable:
        if (inspect.isgeneratorfunction(fn)
                or inspect.iscoroutinefunction(fn)
                or inspect.isasyncgenfunction(fn)):
            raise TypeError(f"{entry.target}: a span would time only "
                            f"the creation of its generator/coroutine")
        return (self._counter if entry.count_only else self._span)(
            fn, entry)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Rebind every table entry to its wrapper."""
        if self.installed:
            return
        by_function: dict[int, tuple[Callable, Callable]] = {}
        for entry in self.table:
            module_name, qualname = entry.target.split(":")
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not isinstance(owner, type):
                fn = getattr(owner, attr)
                by_function[id(fn)] = (fn, self._wrap(fn, entry))
                continue
            raw = owner.__dict__.get(attr)
            if raw is None:
                raise LookupError(
                    f"{entry.target}: {attr!r} is not defined on "
                    f"{owner.__qualname__} itself")
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped: Any = type(raw)(self._wrap(raw.__func__, entry))
            else:
                wrapped = self._wrap(raw, entry)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))
        # One sweep over the loaded modules rebinds every global that
        # holds a traced function (``from x import f`` copies).
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not name.startswith(_REBIND_PREFIXES):
                continue
            for key, value in list(vars(module).items()):
                pair = by_function.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, key, pair[1])
                    self._patches.append((module, key, value))
        self.installed = True

    def uninstall(self) -> None:
        """Restore every rebound attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False

    @contextlib.contextmanager
    def installing(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def write_trace(path: Path, spans: list, hook_counters: dict,
                call_counts: dict, **meta: Any) -> None:
    """Write a span set and its counters as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        **meta, "fields": list(SPAN_FIELDS), "spans": spans,
        "hook_counters": hook_counters, "call_counts": call_counts,
    }))


def load_spans(path: Path) -> tuple[list[tuple], dict, dict]:
    """(spans, hook counters, call counts) from :func:`write_trace`."""
    body = json.loads(path.read_text())
    return ([tuple(s) for s in body["spans"]], body["hook_counters"],
            body["call_counts"])


@dataclass
class Rollup:
    """Per-layer and per-entry self time and calls over a span set."""

    layer_self: dict[str, float]
    layer_calls: Counter
    entry_self: dict[str, float]
    entry_calls: Counter
    problems: list[str]


def rollup(spans: list[tuple]) -> Rollup:
    """Self times from spans, checking that within each thread the self
    times sum to no more than the root spans' wall time."""
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, _n, _l, start, end, _w, _t in spans:
        if parent is not None:
            covered[parent] += end - start
    layer_self: dict[str, float] = defaultdict(float)
    entry_self: dict[str, float] = defaultdict(float)
    layer_calls: Counter = Counter()
    entry_calls: Counter = Counter()
    thread_self: dict[int, float] = defaultdict(float)
    thread_root: dict[int, float] = defaultdict(float)
    problems = []
    for sid, parent, name, layer, start, end, _w, thread in spans:
        self_s = (end - start) - covered[sid]
        if self_s < -1e-6:
            problems.append(f"span {name}#{sid}: children cover more "
                            f"than its own wall time")
        layer_self[layer] += self_s
        entry_self[name] += self_s
        layer_calls[layer] += 1
        entry_calls[name] += 1
        thread_self[thread] += self_s
        if parent is None:
            thread_root[thread] += end - start
    for thread, total in thread_self.items():
        if total > thread_root[thread] + 1e-6:
            problems.append(f"thread {thread}: self times sum to "
                            f"{total:.6f} s, root spans "
                            f"{thread_root[thread]:.6f} s")
    return Rollup(dict(layer_self), layer_calls, dict(entry_self),
                  entry_calls, problems)
