"""Time one cold set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_once.py sioux|grid

The clock starts before numpy and privroute are imported and stops once the
instance (bundled Sioux Falls, or the generated 8 x 8 grid), its
FlowProjector and the starting policy x0 exist.
"""
import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

workloads.setup(sys.argv[1])
print(time.perf_counter() - start)
