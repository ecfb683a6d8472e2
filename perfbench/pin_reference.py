"""Rewrite ``reference.json`` from one run of every workload.

Only for a deliberate change to the simulated model: the benchmark then
checks later commits against the statistics pinned here.  Refuses to pin
a point whose output fails its golden check.
Usage: ``python3 perfbench/pin_reference.py``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.reference import PINNED  # noqa: E402
from perfbench.workloads import WORKLOADS, default_jobs  # noqa: E402

#: WaterKernelParams' default; the other inputs are fixed
SEED = 23


def main() -> None:
    pinned = {}
    for name, workload in WORKLOADS.items():
        rep = workload.run(SEED, default_jobs())
        if rep.error or rep.invalid:
            sys.exit(f"{name}: {rep.error or f'invalid points {rep.invalid}'}")
        pinned[name] = {str(c): stats for c, stats in sorted(rep.points.items())}
        print(f"{name}: pinned {len(rep.points)} point(s)")
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
