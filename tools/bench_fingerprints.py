"""Did simulated behaviour change?  Rerun bench/ at every seed of tools/fingerprints.json against its md5s.

The ledger is ``{workload: {seed: latency_md5}}``.  A change that moves
simulated behaviour on purpose edits the ledger in the same diff (the
drift lines below carry both digests); ``measure(seeds)`` is what recorded it.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
LEDGER = TOOLS / "fingerprints.json"


def measure(seeds) -> dict[str, dict[str, str]]:
    """``{workload: {seed: latency_md5}}`` of this checkout, one bench run per seed."""
    got: dict[str, dict[str, str]] = {}
    for seed in seeds:
        with tempfile.NamedTemporaryFile(suffix=".json") as out:
            run = [sys.executable, str(TOOLS.parent / "bench" / "run.py"), "--seconds", "1"]
            subprocess.run(run + ["--seed", str(seed), "--out", out.name], check=True)
            for name, row in json.load(out)["workloads"].items():
                got.setdefault(name, {})[str(seed)] = row["fingerprints"]["latency_md5"]
    return got


def main() -> None:
    ledger = json.loads(LEDGER.read_text())
    got = measure(sorted({int(seed) for row in ledger.values() for seed in row}))
    drift = [
        f"bench_fingerprints: {name} seed {seed}: latency_md5 {got[name][seed]}, ledger has {want}"
        for name, row in ledger.items()
        for seed, want in row.items()
        if got[name][seed] != want
    ]
    sys.exit("\n".join(drift) or 0)


if __name__ == "__main__":
    main()
