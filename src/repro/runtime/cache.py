"""On-disk memoization for characterization sweeps.

Design goals, in order:

1. **Correct keys.**  A cache entry must never be served for different
   physics.  Keys are SHA-256 digests of a *canonical token tree* built
   from the inputs: every float is rendered with ``float.hex()`` (exact,
   locale-independent), dataclasses contribute their type name and every
   field, enums their class and member name.  Two designs that differ in
   any calibrated constant — or in the bisection tolerance — hash apart.
   The tree is built in one recursive pass into a list and hashed in
   one ``sha256`` call over its separator-joined tokens: the same token
   tree and byte stream as hashing token by token, so every digest
   (and every entry on disk) stays valid.
2. **Graceful degradation.**  A corrupt or truncated entry (killed
   process, disk hiccup, version skew) is treated as a miss: the value
   is recomputed, the bad file replaced, and the ``errors`` counter
   bumped.  The cache can only make a run faster, never wrong.
3. **Observable.**  Hit/miss/error counters live on the
   :class:`ResultCache` instance and are exposed through
   :meth:`ResultCache.stats` and the ``repro cache`` CLI subcommand —
   they are how the test suite proves a warm rerun did zero bisections.

Every key has one entry name, ``<key>.pkl``, under the cache root,
written atomically (temp file + ``os.replace``) so concurrent writers
at worst waste a compute, never tear an entry.  :meth:`ResultCache.put`
gives a key a file of its own; :meth:`ResultCache.put_many` pickles a
whole batch (one lot chunk's dies) into one file and hard-links every
key's name to it, because creating a file costs far more than linking
one.  A damaged shared file reads as a miss plus an error for every
key that names it, and each of them heals.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import tempfile
import warnings
import weakref
from pathlib import Path
from typing import Any, Callable, Iterable

try:
    import fcntl
except ModuleNotFoundError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.errors import ConfigurationError
from repro.runtime.profiling import phase

#: Bump to invalidate every entry written by older layouts/semantics.
CACHE_SCHEMA = "repro-cache/v1"

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: How many :meth:`ResultCache.put_many` files one cache keeps
#: unpickled (first in, first out).
_MEMO_FILES = 4

#: Per-root append-only counter log (see :meth:`ResultCache.flush_stats`):
#: every process that used the cache appends its hit/miss/error deltas,
#: so ``repro cache`` can report campaign-lifetime totals instead of the
#: zeros a freshly constructed instance would show.
STATS_LOG_NAME = "_stats.log"

#: Unflushed events buffered before an automatic flush.
_STATS_FLUSH_EVERY = 64

#: Stats-log line count past which :meth:`ResultCache.flush_stats`
#: folds the whole history into one summed baseline line — totals are
#: preserved exactly; only the per-process breakdown is forgotten.
_STATS_COMPACT_LINES = 256


# -- canonical hashing ---------------------------------------------------------


#: Field names of each dataclass type already hashed, keyed by its
#: exact type (a subclass may add fields its base lacks).  Each value
#: is a function of its key alone, so threads and callers can share it.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _append_tokens(obj: Any, out: list[str]) -> None:
    """Append the canonical, order-stable token list of ``obj``.

    Supported: None/bool/int/str/bytes, floats (exact via ``hex()``),
    enums, dataclasses, and mappings/sequences of the above.  Anything
    else is rejected loudly — silently falling back to ``repr`` would
    risk serving stale entries for objects whose repr elides state.

    The common types are matched on their exact type first; subclasses
    (``IntEnum``, ``str``-mixin enums, ``np.float64``, named tuples)
    and the rarer types take the ``isinstance`` chain below, in an
    order that decides their tokens: an ``IntEnum`` is an int first.
    """
    t = type(obj)
    if t is float:
        out.append(f"float:{obj.hex()}")
    elif t is tuple or t is list:
        out.append(f"{t.__name__}(")
        for item in obj:
            if type(item) is float:  # flat float fields and grids
                out.append(f"float:{item.hex()}")
            else:
                _append_tokens(item, out)
        out.append(")")
    elif t is str or t is int or t is bool or obj is None:
        out.append(f"{t.__name__}:{obj!r}")
    elif (names := _FIELD_NAMES.get(t)) is not None:
        _append_dataclass(obj, names, out)
    elif isinstance(obj, (bool, int, str)):
        out.append(f"{t.__name__}:{obj!r}")
    elif isinstance(obj, float):
        out.append(f"float:{obj.hex()}")
    elif isinstance(obj, bytes):
        out.append(f"bytes:{obj.hex()}")
    elif isinstance(obj, enum.Enum):
        out.append(f"enum:{t.__name__}.{obj.name}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = tuple(field.name for field in dataclasses.fields(obj))
        _FIELD_NAMES[t] = names
        _append_dataclass(obj, names, out)
    elif isinstance(obj, dict):
        out.append("dict(")
        for key in sorted(obj, key=repr):
            _append_tokens(key, out)
            out.append("->")
            _append_tokens(obj[key], out)
        out.append(")")
    elif isinstance(obj, (tuple, list)):
        out.append(f"{t.__name__}(")
        for item in obj:
            _append_tokens(item, out)
        out.append(")")
    else:
        raise ConfigurationError(
            f"cannot build a stable cache key from {t.__name__!r}"
        )


def _append_dataclass(obj: Any, names: tuple[str, ...],
                      out: list[str]) -> None:
    out.append(f"dataclass:{type(obj).__name__}(")
    for name in names:
        out.append(f"{name}=")
        _append_tokens(getattr(obj, name), out)
    out.append(")")


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical token list of ``obj``.

    Every token is followed by the unit separator ``\\x1f``, so token
    boundaries cannot alias.  The digest is a function of that byte
    stream alone, so :func:`task_keys` may hash a stream shared by many
    keys once and ``copy()`` the state.
    """
    tokens: list[str] = []
    _append_tokens(obj, tokens)
    return hashlib.sha256(
        ("\x1f".join(tokens) + "\x1f").encode()).hexdigest()


def _numeric_environment() -> tuple[str, ...]:
    """Numeric-environment tokens baked into fingerprints: (NumPy
    version, kernel layout version, kernel dtype, kernel backend).

    Kernel-evaluated results depend on the NumPy build's elementwise
    semantics and on the kernel layer's own numerics; folding both into
    :func:`design_fingerprint` guarantees vectorized results never
    alias entries written by a different kernel generation — or by the
    scalar-only era, whose fingerprints carried no version tokens.
    The constant dtype and backend tokens keep every existing key's
    bytes.  Imported lazily: the runtime layer must not depend on
    :mod:`repro.kernels` at import time.
    """
    import numpy

    from repro.kernels import (
        KERNEL_BACKEND_TOKEN,
        KERNEL_DTYPE_TOKEN,
        KERNEL_LAYOUT_VERSION,
    )

    return (f"numpy/{numpy.__version__}", KERNEL_LAYOUT_VERSION,
            KERNEL_DTYPE_TOKEN, KERNEL_BACKEND_TOKEN)


def design_fingerprint(design: Any, *, backend: Any = None) -> str:
    """Stable fingerprint of a :class:`~repro.core.calibration.SensorDesign`.

    Covers every calibrated constant (the nested
    :class:`~repro.devices.technology.Technology` included), so any
    refit, corner, or ablation (``with_load_caps``) changes the
    fingerprint and misses the cache — plus the numeric environment
    (NumPy version, kernel layout version), so results computed by a
    different kernel generation miss it too.

    Args:
        backend: The measurement driver producing the results — any
            object with a ``fingerprint()`` method (a
            :class:`~repro.backends.SensorBackend`).  Its fingerprint
            (driver id + engine version tags + trace schema) is folded
            in, so artifacts measured through different drivers — a
            kernel-backed sweep, a sim-backed one, a replayed trace —
            can never share a cache entry.  ``None`` keeps the classic
            driverless fingerprint (the scalar/kernel-era keys).
    """
    tail: tuple[str, ...] = _numeric_environment()
    if backend is not None:
        tail = tail + (backend.fingerprint(),)
    return stable_hash((design,) + tail)


def task_key(kind: str, *parts: Any) -> str:
    """Cache key for one memoized task.

    Args:
        kind: Task family tag, e.g. ``"sim-threshold"``; versioned
            alongside :data:`CACHE_SCHEMA` so semantics changes can
            invalidate one family at a time.
        parts: Hashable-by-:func:`stable_hash` inputs of the task.

    For a batch that varies in one part, :func:`task_keys` is faster.
    """
    return stable_hash((CACHE_SCHEMA, kind, parts))


def task_keys(kind: str, head: tuple, items: Iterable[Any],
              tail: tuple = ()) -> list[str]:
    """``[task_key(kind, *head, item, *tail) for item in items]``.

    The tokens before each item's and after them are the same for
    every item, so they are built once: the leading ones are hashed
    into a prefix state that each item ``copy()``s, and the trailing
    ones are encoded once and fed after the item's own tokens.
    """
    tokens: list[str] = []
    _append_tokens((CACHE_SCHEMA, kind, (*head, *tail)), tokens)
    tail_tokens: list[str] = []
    for part in tail:
        _append_tokens(part, tail_tokens)
    # An item's tokens go before the tail's and both tuples' ")".
    cut = len(tokens) - len(tail_tokens) - 2
    prefix = hashlib.sha256(("\x1f".join(tokens[:cut]) + "\x1f").encode())
    suffix = "\x1f" + "\x1f".join(tokens[cut:]) + "\x1f"
    keys = []
    for item in items:
        item_tokens: list[str] = []
        _append_tokens(item, item_tokens)
        digest = prefix.copy()
        digest.update(("\x1f".join(item_tokens) + suffix).encode())
        keys.append(digest.hexdigest())
    return keys


# -- the cache -----------------------------------------------------------------


class _Shared(dict):
    """One :meth:`ResultCache.put_many` batch, ``{key: value}``, as
    pickled into the file that all of its keys' entry names link to.
    Its own type tells :meth:`ResultCache.get` to pick out one key."""

    __slots__ = ()


def _flush_deltas(root: Path, unflushed: list[int]) -> None:
    """Append and zero ``unflushed`` (hits, misses, errors) in
    ``root``'s stats log; see :meth:`ResultCache.flush_stats`.

    A module function, so the exit/collection finalizer of a
    :class:`ResultCache` holds its root and counters but not the
    instance itself.
    """
    h, m, e = unflushed
    if h == 0 and m == 0 and e == 0:
        return
    unflushed[:] = [0, 0, 0]
    line = f"{os.getpid()} {h} {m} {e}\n".encode()
    try:
        root.mkdir(parents=True, exist_ok=True)
        fd = os.open(root / STATS_LOG_NAME,
                     os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            os.write(fd, line)
            # Cheap size gate first (every line is >= 8 bytes), so
            # the common flush never reads the log back.
            if fcntl is not None and os.fstat(fd).st_size \
                    > 8 * _STATS_COMPACT_LINES:
                _compact_locked(fd)
        finally:
            os.close(fd)  # releases the flock with it
    except OSError:
        pass


def _compact_locked(fd: int) -> None:
    """Fold the stats log into one baseline line, in place.

    Caller holds ``LOCK_EX`` on ``fd``.  The fold reuses the same
    inode (truncate + ``O_APPEND`` rewrite) rather than a rename,
    so writers blocked on the flock — which hold fds to *this*
    inode — append after the baseline instead of resurrecting a
    replaced file.
    """
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    lines = b"".join(chunks).splitlines()
    if len(lines) <= _STATS_COMPACT_LINES:
        return
    totals = [0, 0, 0]
    for raw in lines:
        parts = raw.split()
        if len(parts) != 4:
            continue  # torn or foreign line: drop from the fold
        try:
            deltas = [int(p) for p in parts[1:]]
        except ValueError:
            continue
        for i in range(3):
            totals[i] += deltas[i]
    os.ftruncate(fd, 0)
    os.write(fd, f"0 {totals[0]} {totals[1]} {totals[2]}\n".encode())


def default_cache_dir() -> Path:
    """The default on-disk location: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro-psn``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-psn"


class ResultCache:
    """A directory of pickled results, one entry name per key.

    Attributes:
        root: Cache directory (created on first use).
        hits: Lookups served from disk by this instance.
        misses: Lookups that fell through to compute.
        errors: Entries found corrupt and discarded.
    """

    def __init__(self, root: str | os.PathLike[str] | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None \
            else default_cache_dir()
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(
                f"cache dir {str(self.root)!r} exists and is not a "
                f"directory"
            )
        self.hits = 0
        self.misses = 0
        self.errors = 0
        #: set when a put hit an OSError: further puts become no-ops
        #: (the sweep keeps running uncached rather than crashing).
        self.disabled = False
        # Deltas not yet appended to the on-disk stats log; mutated in
        # place only, because the finalizer holds this very list.
        self._unflushed = [0, 0, 0]  # hits, misses, errors
        self._finalizer: weakref.finalize | None = None
        #: stat stamp -> batch of the last ``_MEMO_FILES`` shared
        #: files read, oldest first, so a warm lot unpickles each
        #: :meth:`put_many` file once even when its reads interleave.
        self._memo: dict[tuple[int, ...], _Shared] = {}
        #: ``root`` and a separator, as a string: see :meth:`_name`.
        self._prefix = os.path.join(self.root, "")

    # -- persistent counters ----------------------------------------------

    def _count(self, hits: int = 0, misses: int = 0,
               errors: int = 0) -> None:
        """Bump instance counters and buffer the deltas for the
        per-root stats log (flushed every ~64 events and at exit)."""
        self.hits += hits
        self.misses += misses
        self.errors += errors
        self._unflushed[0] += hits
        self._unflushed[1] += misses
        self._unflushed[2] += errors
        if self._finalizer is None:
            # Weak: the exit hook must not keep the instance alive.
            self._finalizer = weakref.finalize(
                self, _flush_deltas, self.root, self._unflushed)
        if sum(self._unflushed) >= _STATS_FLUSH_EVERY:
            self.flush_stats()

    def flush_stats(self) -> None:
        """Append buffered counter deltas to the root's stats log.

        One ``pid hits misses errors`` line per flush, written with
        ``O_APPEND`` (atomic for short writes on POSIX), so parent and
        pool-worker processes interleave without tearing.  Best-effort:
        an unwritable root loses observability, never the sweep.
        Deltas still buffered when the instance is collected, or when
        the process exits, are flushed then.

        The log is self-compacting: once it grows past
        :data:`_STATS_COMPACT_LINES` lines the whole history is folded
        into a single summed baseline line (pid 0), under an exclusive
        ``flock`` so a concurrent flusher can neither tear the fold nor
        lose its own append.  Totals are invariant across compaction —
        :meth:`lifetime_stats` cannot tell it happened.  Without
        ``fcntl`` (non-POSIX) compaction is skipped; the log just
        grows, as before.
        """
        _flush_deltas(self.root, self._unflushed)

    def lifetime_stats(self) -> dict[str, int]:
        """Aggregated counters across *every* process that used this
        cache root — the stats log totals plus this instance's
        unflushed deltas.  This is what survives process-pool workers:
        each worker's :class:`ResultCache` flushes its own deltas, so
        a later ``repro cache`` invocation (a fresh process with zeroed
        instance counters) still reports the campaign's true totals.
        """
        totals = [0, 0, 0]
        try:
            with (self.root / STATS_LOG_NAME).open("rb") as fh:
                if fcntl is not None:
                    # Shared lock: never observe a half-folded log.
                    fcntl.flock(fh.fileno(), fcntl.LOCK_SH)
                for raw in fh:
                    parts = raw.split()
                    if len(parts) != 4:
                        continue  # torn or foreign line: skip, not crash
                    try:
                        deltas = [int(p) for p in parts[1:]]
                    except ValueError:
                        continue
                    for i in range(3):
                        totals[i] += deltas[i]
        except OSError:
            pass
        for i in range(3):
            totals[i] += self._unflushed[i]
        return {"hits": totals[0], "misses": totals[1],
                "errors": totals[2]}

    def check_usable(self) -> None:
        """Probe that the cache directory can be created, listed and
        written.

        Raises:
            OSError: unwritable or unreadable cache directory.
            ConfigurationError: the path exists and is not a directory.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        next(iter(self.root.iterdir()), None)  # readable?
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".probe")
        os.close(fd)
        os.unlink(tmp)

    # -- storage ----------------------------------------------------------

    def _name(self, key: str) -> str:
        """``key``'s entry file name, built without a ``Path``."""
        return f"{self._prefix}{key}.pkl"

    def _path(self, key: str) -> Path:
        return Path(self._name(key))

    def get(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a hit; ``(False, None)`` otherwise.

        A corrupt entry counts as a miss (plus ``errors``) and is
        deleted so the follow-up :meth:`put` starts clean.  An entry
        that names a :meth:`put_many` file serves its own key's value;
        the last ``_MEMO_FILES`` such files read are kept unpickled,
        keyed on their device, inode, size and mtime, so the batches'
        other keys skip the unpickle.
        """
        path = self._name(key)
        try:
            with phase("cache.get"), open(path, "rb") as fh:
                st = os.fstat(fh.fileno())
                stamp = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
                memo = self._memo
                value = memo.get(stamp)
                if value is None:
                    value = pickle.load(fh)
                    if type(value) is _Shared:
                        if len(memo) >= _MEMO_FILES:
                            del memo[next(iter(memo))]
                        memo[stamp] = value
                if type(value) is _Shared:
                    value = value[key]
        except FileNotFoundError:
            self._count(misses=1)
            return False, None
        except Exception:
            # Truncated pickle, wrong protocol, unreadable file, a
            # class that no longer unpickles, a batch without this
            # key: recompute, don't crash.
            self._count(misses=1, errors=1)
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None
        self._count(hits=1)
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` under ``key``.

        A filesystem failure (unwritable directory, disk full) does
        not crash the sweep: it warns once, bumps ``errors`` and
        disables further puts — the run degrades to uncached
        operation.  Non-filesystem failures (e.g. an unpicklable
        value) still raise: those are caller bugs, not disk weather.
        """
        if self.disabled:
            return
        with phase("cache.put"):
            self._put(key, value)

    def _put(self, key: str, value: Any) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self._name(key)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        except OSError as exc:
            self._disable_puts(exc)
            return
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if isinstance(exc, OSError):
                self._disable_puts(exc)
                return
            raise

    def put_many(self, items: dict[str, Any]) -> None:
        """Persist every ``key: value`` of ``items``, as :meth:`put`
        would, but in one file.

        The batch is pickled once into a temp file; each key's entry
        name is then a hard link to it, made under a temp name and
        moved into place with ``os.replace``, so every entry is still
        atomic.  Where no more links can be made (``EMLINK``, or a
        filesystem without hard links) the remaining keys are put one
        by one.  Filesystem failures degrade as in :meth:`put`.
        """
        if self.disabled:
            return
        with phase("cache.put"):
            self._put_many(items)

    def _put_many(self, items: dict[str, Any]) -> None:
        self._memo.clear()  # a new file may reuse a memo's inode
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, shared = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        except OSError as exc:
            self._disable_puts(exc)
            return
        link = f"{shared}.link"
        keys = list(items)
        linked = 0
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(_Shared(items), fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
            for key in keys:
                try:
                    os.link(shared, link)
                except OSError:
                    break  # no (more) hard links: put the rest alone
                os.replace(link, self._name(key))
                linked += 1
        except BaseException as exc:
            for tmp in (link, shared):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if isinstance(exc, OSError):
                self._disable_puts(exc)
                return
            raise
        try:
            os.unlink(shared)
        except OSError:
            pass
        for key in keys[linked:]:
            if self.disabled:
                return
            self._put(key, items[key])

    def _disable_puts(self, exc: OSError) -> None:
        self._count(errors=1)
        self.disabled = True
        warnings.warn(
            f"result cache at {str(self.root)!r} is not writable "
            f"({exc}); continuing uncached",
            RuntimeWarning,
            stacklevel=3,
        )

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Serve ``key`` from disk, or compute, store, and return."""
        hit, value = self.get(key)
        if hit:
            return value
        value = compute()
        self.put(key, value)
        return value

    # -- maintenance ------------------------------------------------------

    def entries(self) -> list[Path]:
        """Entry files currently on disk (may be empty)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        self._memo.clear()
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    @property
    def hit_rate(self) -> float | None:
        """Fraction of lookups served from disk (None before any)."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return None
        return self.hits / lookups

    def stats(self) -> dict[str, Any]:
        """Counters plus on-disk footprint, for tests and the CLI.

        Instance counters (``hits``/``misses``/``errors``) cover this
        object's lookups only; ``lifetime`` aggregates across every
        process that ever used the root (see :meth:`lifetime_stats`).
        """
        entries = self.entries()
        # Entries of one put_many batch share a file: count it once.
        sizes = {}
        for p in entries:
            st = p.stat()
            sizes[st.st_dev, st.st_ino] = st.st_size
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "bytes": sum(sizes.values()),
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "hit_rate": self.hit_rate,
            "disabled": self.disabled,
            "lifetime": self.lifetime_stats(),
        }


def resolve_cache(cache: "ResultCache | str | os.PathLike[str] | None",
                  *, strict: bool = True) -> ResultCache | None:
    """Normalize a ``cache=`` argument.

    ``None`` stays ``None`` (caching off — the serial-era default);
    a path-like opens a :class:`ResultCache` there; an existing
    :class:`ResultCache` passes through so callers can share counters
    across calls.

    Args:
        strict: When ``False``, a cache directory that cannot be
            created, listed or written (not a directory, permission
            denied, read-only filesystem) produces a
            :class:`RuntimeWarning` and ``None`` — the sweep runs
            uncached instead of crashing.  The CLI uses this for
            ``--cache-dir``.
    """
    if cache is None or isinstance(cache, ResultCache):
        return cache
    try:
        store = ResultCache(cache)
        if not strict:
            store.check_usable()
        return store
    except (ConfigurationError, OSError) as exc:
        if strict:
            raise
        warnings.warn(
            f"cache dir {str(cache)!r} is unusable ({exc}); "
            f"running uncached",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
