#!/usr/bin/env python3
"""Compare two result documents written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B / A (A is the base), the bound from
``BENCHMARK.json``, and a verdict:

``same``        B is within the bound of A;
``better``      B beats A by more than the bound;
``worse``       B is worse than A by more than the bound;
``unresolved``  the quartile spread of either run is wider than the
                bound, so the two medians cannot be told apart — run
                again on a quieter box, do not read it as "same".

Metrics whose unit is not host time (``harness.HOST_UNITS``) are
simulated quantities that repeat bit for bit: with equal seeds they
compare by equality (any difference is ``better`` or ``worse``), with
different seeds by the bound.  The fingerprints (``latency_md5``,
profiled call count) are compared for equality too.  Exit code 1 if
any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys

import harness
import run as _run

ROW = "{:<15} {:<19} {:>13} {:>21} {:>13} {:>21} {:>8} {:>6}  {}"


def spread(row: dict) -> float:
    """Quartile distance as a share of the median (0 without quartiles)."""
    if "q1" not in row or not row["value"]:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["value"])


def verdict(a: dict, b: dict, better: str, bound: float, exact: bool) -> str:
    """Classify metric row ``b`` against base row ``a``."""
    if exact:
        if b["value"] == a["value"]:
            return "same"
        bound = 0.0
    elif max(spread(a), spread(b)) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    gain = change if better == "higher" else -change
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "same"


def _quartiles(row: dict) -> str:
    return f"[{row['q1']:.5g}, {row['q3']:.5g}]" if "q1" in row else "-"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    """Rows of the comparison table and the number of bad verdicts."""
    lines = [
        ROW.format(
            "workload", "metric", "A median", "A quartiles", "B median",
            "B quartiles", "B/A", "bound", "verdict",
        )
    ]
    bad = 0
    for name in spec["workloads"]:
        doc_a = a["workloads"].get(name)
        doc_b = b["workloads"].get(name)
        if doc_a is None or doc_b is None:
            continue
        same_seed = doc_a["seed"] == doc_b["seed"]
        for metric, declared in spec["end_to_end"].items():
            row_a = doc_a["metrics"][metric]
            row_b = doc_b["metrics"][metric]
            exact = same_seed and declared["unit"] not in harness.HOST_UNITS
            result = verdict(
                row_a, row_b, declared["better"], declared["bound"], exact
            )
            bad += result in ("worse", "unresolved")
            ratio = row_b["value"] / row_a["value"] if row_a["value"] else float("nan")
            lines.append(
                ROW.format(
                    name, metric, f"{row_a['value']:.6g}", _quartiles(row_a),
                    f"{row_b['value']:.6g}", _quartiles(row_b),
                    f"{ratio:.4f}", "0" if exact else f"{declared['bound']:g}",
                    result,
                )
            )
        if same_seed:
            for key, value in doc_a["fingerprints"].items():
                other = doc_b["fingerprints"].get(key)
                if other != value:
                    bad += 1
                    lines.append(f"{name:<15} fingerprint {key}: {value} != {other}")
    return lines, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    a, b = documents
    if a["trace"] or b["trace"]:
        print("compare: needs two --trace 0 documents (end-to-end metrics)")
        return 2
    print(f"base A = {argv[0]} (commit {a['commit']}), B = {argv[1]} (commit {b['commit']})")
    lines, bad = compare(a, b, _run.load_spec())
    print("\n".join(lines))
    print(f"{bad} row(s) worse, unresolved or with a differing fingerprint")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
