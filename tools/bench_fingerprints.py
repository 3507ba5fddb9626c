"""Did simulated behaviour change?  Rerun bench/ at every seed of tools/fingerprints.json against its ledger.

The ledger is ``{workload: {seed: {"latency_md5": ..., "sim_events_per_req": ...}}}``:
what the requests saw, and how many kernel events the run took to show
it.  Both are deterministic, so both are compared by equality.  A change
that moves either on purpose edits the ledger in the same diff (the
drift lines below carry both values); ``measure(seeds)`` is what
recorded it.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
LEDGER = TOOLS / "fingerprints.json"
#: What a ledger row records, in the order drift lines name it.
KEYS = ("latency_md5", "sim_events_per_req")


def measure(seeds) -> dict[str, dict[str, dict]]:
    """The ledger of this checkout, one bench run per seed."""
    got: dict[str, dict[str, dict]] = {}
    for seed in seeds:
        with tempfile.NamedTemporaryFile(suffix=".json") as out:
            run = [sys.executable, str(TOOLS.parent / "bench" / "run.py"), "--seconds", "1"]
            subprocess.run(run + ["--seed", str(seed), "--out", out.name], check=True)
            for name, row in json.load(out)["workloads"].items():
                got.setdefault(name, {})[str(seed)] = {
                    "latency_md5": row["fingerprints"]["latency_md5"],
                    "sim_events_per_req": row["metrics"]["sim_events_per_req"]["value"],
                }
    return got


def main() -> None:
    ledger = json.loads(LEDGER.read_text())
    got = measure(sorted({int(seed) for row in ledger.values() for seed in row}))
    drift = [
        f"bench_fingerprints: {name} seed {seed}: {key} {got[name][seed][key]}, ledger has {want[key]}"
        for name, row in ledger.items()
        for seed, want in row.items()
        for key in KEYS
        if got[name][seed][key] != want[key]
    ]
    sys.exit("\n".join(drift) or 0)


if __name__ == "__main__":
    main()
