"""Set-up probe: a fresh interpreter imports switchlayer.cli and builds one
workload's systems and inputs, then prints the seconds that took.

    python3 perfbench/probe_setup.py WORKLOAD SEED OUTDIR
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import switchlayer.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - T0)
