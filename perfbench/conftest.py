"""Put the program and the benchmark package on the path for its tests.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
