"""End-to-end benchmark of the reproduction.

Entry point: ``python3 e2ebench/run.py --workload <name>`` (see
``e2ebench/README.md``).  The benchmark measures the system from the
outside: it imports ``repro`` from ``src/`` and the paper artifacts
from ``benchmarks/``, and changes neither.
"""
