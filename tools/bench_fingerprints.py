"""Did simulated behaviour change?  Rerun bench/ at seed 42 against bench/baseline.json's md5s."""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def main() -> None:
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        run = [sys.executable, str(BENCH / "run.py"), "--seed", "42", "--seconds", "1"]
        subprocess.run(run + ["--out", out.name], check=True)
        got = json.load(out)["workloads"]
    drift = []
    for name, row in json.loads((BENCH / "baseline.json").read_text())["workloads"].items():
        want, have = (r["fingerprints"]["latency_md5"] for r in (row, got[name]))
        if want != have:
            drift.append(f"bench_fingerprints: {name}: latency_md5 {have}, baseline has {want}")
    sys.exit("\n".join(drift) or 0)


if __name__ == "__main__":
    main()
