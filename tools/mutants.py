"""Does every named mutation still fail its tests?  Re-kill the ledger tools/mutants.json.

    python tools/mutants.py [NAME ...]

Each row of the ledger names a mutation of the program: the file, the
exact text it replaces (found exactly once there), the replacement, and
the tests that must fail under it.  A row that records a guard that went
carries ``deleted`` (its reason) instead, and is only reported.

The checkout (without ``.git``) is copied once into a temporary
directory.  For each row the text is replaced there, each of the row's
tests runs on its own (``PYTHONPATH=src python -m pytest -x -q`` with a
fixed hypothesis seed, so a run repeats), and the file is put back.  A
row reads:

* ``killed`` — every one of its tests failed under the mutation;
* ``survived`` — one passed: it cannot tell the code from its mutation;
* ``stale`` — the text is not found exactly once, or a test id does not
  exist (pytest could not run it), so the row no longer names the code.

It exits 1 when a row survived or is stale.  Nothing in the checkout is
written.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tools" / "mutants.json"
#: What the copy leaves out: history, caches and earlier runs' leftovers.
_SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", ".benchmarks")


def _run(copy: Path, test: str) -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", test,
    ]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def check(row: dict, copy: Path) -> str:
    """Apply one row to the copy, run each of its tests, restore the file."""
    if "deleted" in row:
        return "deleted"
    path = copy / row["path"]
    original = path.read_text()
    if original.count(row["text"]) != 1:
        return "stale"
    path.write_text(original.replace(row["text"], row["replacement"]))
    try:
        codes = {_run(copy, test) for test in row["tests"]}
    finally:
        path.write_text(original)
    if codes == {1}:
        return "killed"
    return "survived" if codes <= {0, 1} else "stale"


def main(argv: list[str]) -> int:
    rows = json.loads(LEDGER.read_text())
    if argv:
        rows = [row for row in rows if row["name"] in argv]
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        for row in rows:
            started = time.monotonic()
            verdict = check(row, copy)
            failed += verdict in ("survived", "stale")
            print(f"{verdict:9} {time.monotonic() - started:6.1f} s  {row['name']}", flush=True)
            if verdict == "deleted":
                print(f"{'':19}{row['deleted']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
