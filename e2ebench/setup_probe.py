"""Set-up probe: ``python3 e2ebench/setup_probe.py <workload>``.

Imports the workload's modules, builds the design, prints ``ready``
and exits.  ``setup_s`` is the time from spawning this interpreter to
that line.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from e2ebench.common import ensure_checkout  # noqa: E402
from e2ebench.workloads import load  # noqa: E402

if __name__ == "__main__":
    ensure_checkout()
    module, _run = load(sys.argv[1])
    module.ready()
    print("ready", flush=True)
