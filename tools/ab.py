"""Is the working tree faster than a commit?  Paired bench/run.py runs, base and head alternating.

    python tools/ab.py BASE [--workload W] [--pairs N] [--seconds S]

``BASE`` is any commit ``git archive`` accepts.  Its tree is extracted
into a temporary directory, and ``bench/run.py --workload W --seed 42``
runs ``N`` times there and ``N`` times in this working tree (uncommitted
changes included), one after the other in pairs, the base first in the
odd pairs and the head first in the even ones, so that a drift of the
box's speed weighs on both sides alike.  Each run's result document goes
to the temporary directory; nothing is written into the repository and
nothing under ``bench/`` changes.

Per workload and end-to-end metric of ``BENCHMARK.json`` it prints the
median of the base's ``N`` run values and their q1–q3 range, the same
for the head, the ratio head / base of the medians, in how many of the
``N`` pairs the head did better, and ``bench/compare.py``'s verdict on
the two sets of runs (the medians, with the quartiles of the runs as
the spread).  Simulated metrics repeat bit for bit at one seed, so they
read ``same`` or move on every pair.  It first prints what the numbers
depend on: the cores, the interpreter and the load average.  It exits 1
when a verdict is ``worse``; ``unresolved`` (a spread wider than the
bound) is a result, not a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import compare  # noqa: E402  (bench/compare.py)
import run as bench_run  # noqa: E402  (bench/run.py)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare the working tree with")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, help="passed to bench/run.py (default: its own)"
    )
    return parser.parse_args(argv)


def _bench(root: Path, args: argparse.Namespace, out: Path) -> dict:
    """One ``bench/run.py`` run in checkout ``root``: its result document."""
    command = [
        sys.executable, str(root / "bench" / "run.py"),
        "--seed", str(bench_run.DEFAULT_SEED), "--out", str(out),
    ]
    if args.workload:
        command += ["--workload", args.workload]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def _summary(values: list[float]) -> dict:
    """The row ``compare.verdict`` reads: the median and quartiles."""
    if len(values) < 2:
        return {"value": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": median, "q1": q1, "q3": q3}


def _range(row: dict) -> str:
    return f"[{row['q1']:.5g}, {row['q3']:.5g}]" if "q1" in row else "-"


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.pairs < 1:
        raise SystemExit("ab: --pairs must be at least 1")
    spec = bench_run.load_spec()
    print(
        f"cores {os.cpu_count()}, {sys.implementation.name} {sys.version.split()[0]}"
        f" ({sys.executable}), load average {' '.join(f'{x:.2f}' for x in os.getloadavg())}"
    )
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        base_root = Path(scratch) / "base"
        base_root.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.base],
            check=True, stdout=subprocess.PIPE,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(base_root)], input=archive, check=True)
        roots = {"base": base_root, "head": ROOT}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                out = Path(scratch) / f"{side}-{pair}.json"
                runs[side].append(_bench(roots[side], args, out))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    print(
        f"base {args.base}, head the working tree, {args.pairs} pairs,"
        f" seed {bench_run.DEFAULT_SEED}"
    )
    row = "{:<15} {:<19} {:>12} {:>21} {:>12} {:>21} {:>9} {:>6}  {}"
    print(row.format(
        "workload", "metric", "base", "base q1-q3", "head", "head q1-q3",
        "head/base", "wins", "verdict",
    ))
    bad = 0
    for name in runs["head"][0]:
        for metric, declared in spec["end_to_end"].items():
            values = {
                side: [documents[name]["metrics"][metric]["value"] for documents in runs[side]]
                for side in runs
            }
            a, b = _summary(values["base"]), _summary(values["head"])
            exact = declared["unit"] not in compare.harness.HOST_UNITS
            verdict = compare.verdict(a, b, declared["better"], declared["bound"], exact)
            bad += verdict == "worse"
            sign = 1 if declared["better"] == "higher" else -1
            wins = sum(
                sign * (head - base) > 0 for base, head in zip(values["base"], values["head"])
            )
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            print(row.format(
                name, metric, f"{a['value']:.6g}", _range(a), f"{b['value']:.6g}",
                _range(b), f"{ratio:.4f}", f"{wins}/{args.pairs}", verdict,
            ))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
