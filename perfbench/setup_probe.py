"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is everything before simulation starts: importing the program,
building each point's config and ``Runtime``, and the app's ``build``.
Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    print(time.perf_counter() - START)
