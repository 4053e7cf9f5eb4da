"""Start-to-ready probe for setup_s: import voltvar, build one workload's
feeder and its matrices, say "ready" and exit.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print("ready", flush=True)
