"""Path set-up for the benchmark's own tests.

Run with ``python -m pytest bench/tests`` from the repo root; tier-1
(``testpaths = ["tests"]``) does not collect this directory.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for entry in (os.path.join(ROOT, "src"), BENCH_DIR):
    if entry not in sys.path:
        sys.path.insert(0, entry)
