"""Run ``repro serve`` in this interpreter, optionally traced.

    python3 e2ebench/serve_launcher.py [--cpus 1,2] [--trace-out PATH] \\
        -- <serve args>

With ``--cpus`` the server and every thread it starts run only on
those CPUs.  With ``--trace-out`` the benchmark's tracer wraps the
layer entry points before ``repro.cli.main(["serve", ...])`` starts,
records for the server's whole life, and writes its spans to PATH on
exit (the server exits on SIGINT).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from e2ebench.common import ensure_checkout  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpus", default=None)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] \
        else args.serve_args
    if args.cpus:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
    ensure_checkout()
    from repro.cli import main as repro_main

    if args.trace_out is None:
        return repro_main(["serve", *serve_args])

    from e2ebench.layers import TABLE
    from e2ebench.tracer import Tracer, write_trace

    tracer = Tracer(TABLE)
    tracer.install()
    try:
        with tracer.recording("server"):
            return repro_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        write_trace(args.trace_out, tracer.spans, dict(tracer.counters),
                    tracer.call_counts())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
