#!/usr/bin/env python
"""List the ``src/repro`` functions that the tier-1 suite never enters.

Runs ``pytest tests`` in this process under a ``sys.setprofile`` hook
(Python 3.11 has no ``sys.monitoring``) that records every code object
it sees called, then compares the record against every ``def`` in
``src/repro`` and prints the functions never entered, with their line
counts.  A listed function is a candidate for deletion or for a test;
an unlisted one ran at least once.

The record also covers the processes the suite starts:

* forked children (``ProcessPoolExecutor`` map workers, campaign stage
  processes): an ``os.register_at_fork`` child hook reinstalls the
  profiler, and a ``multiprocessing.util.Finalize`` writes the child's
  record when the worker shuts down, because forked children leave
  through ``os._exit`` and skip ``atexit``;
* fresh interpreters whose ``$PYTHONPATH`` keeps the run's entry (the
  CLI and example subprocesses): a generated ``sitecustomize.py``
  installs the same hook and writes the record at exit.

A worker that is killed (the chaos drills) or a child that calls
``os._exit`` itself leaves no record, so a function reached only there
is listed as never entered.

Usage (from the repo root; extra arguments go to pytest):

    python scripts/reachability.py --out docs/REACHABILITY.txt
    python scripts/reachability.py -- -k runtime
"""

from __future__ import annotations

import os
import sys
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro") + os.sep

#: id(code) -> code, for every Python function called in this process.
#: Keeping the code object alive keeps its id unique.
_seen: dict[int, object] = {}
_dump_dir: str | None = None


def _hook(frame, event, arg):  # noqa: ARG001 - sys.setprofile signature
    if event == "call":
        code = frame.f_code
        _seen.setdefault(id(code), code)


def _dump() -> None:
    """Write this process's entered ``src/repro`` functions."""
    if _dump_dir is None:
        return
    rows = {(c.co_filename, c.co_firstlineno) for c in list(_seen.values())
            if c.co_filename.startswith(PACKAGE)}
    name = f"{os.getpid()}-{time.monotonic_ns()}.txt"
    with open(os.path.join(_dump_dir, name), "w") as fh:
        fh.writelines(f"{path}\t{line}\n" for path, line in sorted(rows))


def _arm_finalizer(_anchor: object) -> None:
    from multiprocessing import util

    util.Finalize(None, _dump, exitpriority=0)


class _Anchor:
    """Weak-referenceable key for ``multiprocessing.util``'s
    after-fork registry."""


_ANCHOR = _Anchor()


def _after_fork_in_child() -> None:
    _seen.clear()
    sys.setprofile(_hook)
    threading.setprofile(_hook)
    # A multiprocessing child clears its finalizer registry during its
    # bootstrap and then runs the after-fork callbacks, so the
    # finalizer is registered from one of those.
    util = sys.modules.get("multiprocessing.util")
    if util is not None:
        util.register_after_fork(_ANCHOR, _arm_finalizer)


def install(dump_dir: str) -> None:
    """Start recording in this process and in every process it forks;
    the record is written at interpreter exit."""
    import atexit

    global _dump_dir
    _dump_dir = dump_dir
    os.register_at_fork(after_in_child=_after_fork_in_child)
    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)


def _stop() -> None:
    """Write no further records from this process."""
    global _dump_dir
    _dump_dir = None


# -- the report ---------------------------------------------------------------


def _functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(path, first line) -> (qualname, line count)`` of every def in
    ``src/repro``; the first line is a decorator's when there is one,
    as in ``co_firstlineno``."""
    import ast

    out: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                qual = f"{prefix}{child.name}"
                out[(path, first)] = (qual, child.end_lineno - first + 1)
                visit(child, path, f"{qual}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for root, _dirs, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    visit(ast.parse(fh.read(), path), path, "")
    return out


def _entered(dump_dir: str) -> set[tuple[str, int]]:
    rows: set[tuple[str, int]] = set()
    for name in os.listdir(dump_dir):
        with open(os.path.join(dump_dir, name)) as fh:
            for line in fh:
                path, first = line.rstrip("\n").split("\t")
                rows.add((path, int(first)))
    return rows


def report(dump_dir: str, pytest_args: list[str], status: int) -> str:
    functions = _functions()
    entered = _entered(dump_dir) & functions.keys()
    missed = sorted(functions.keys() - entered)
    n_records = len(os.listdir(dump_dir))
    total_lines = sum(n for _q, n in functions.values())
    missed_lines = sum(functions[k][1] for k in missed)
    lines = [
        "# src/repro functions that tier-1 never enters",
        f"# command: python scripts/reachability.py"
        f"{' -- ' + ' '.join(pytest_args) if pytest_args else ''}",
        f"# python {sys.version.split()[0]}; pytest exit status {status}; "
        f"{n_records} process records",
        f"# functions: {len(functions)} defined, {len(entered)} entered, "
        f"{len(missed)} never entered",
        f"# function lines: {total_lines} defined, {missed_lines} in "
        f"functions never entered",
        "#",
        "# path:first_line  qualname  (lines)",
    ]
    for path, first in missed:
        qual, n = functions[(path, first)]
        rel = os.path.relpath(path, REPO)
        lines.append(f"{rel}:{first}  {qual}  ({n})")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the report here "
                        "(default: standard output)")
    parser.add_argument("pytest_args", nargs="*",
                        help="extra pytest arguments (after --)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        dump_dir = os.path.join(tmp, "records")
        site_dir = os.path.join(tmp, "site")
        os.mkdir(dump_dir)
        os.mkdir(site_dir)
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(site_dir, "sitecustomize.py"), "w") as fh:
            fh.write(
                "import sys\n"
                f"sys.path.insert(0, {here!r})\n"
                "import reachability\n"
                "sys.path.pop(0)\n"
                f"reachability.install({dump_dir!r})\n"
            )
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (site_dir, SRC, os.environ.get("PYTHONPATH"))
            if p)
        sys.path[:0] = [SRC, REPO]
        os.chdir(REPO)

        install(dump_dir)
        import pytest

        status = int(pytest.main(["-q", "-p", "no:cacheprovider",
                                  "tests", *args.pytest_args]))
        sys.setprofile(None)
        threading.setprofile(None)
        _dump()
        _stop()
        text = report(dump_dir, args.pytest_args, status)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
