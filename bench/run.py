#!/usr/bin/env python3
"""The repo's one benchmark: every stack, end to end and layer by layer.

    python3 bench/run.py                       # all six workloads
    python3 bench/run.py --workload c3_churn   # one
    python3 bench/run.py --trace 1             # per-layer metrics instead
    python3 bench/run.py --out A.json          # keep the full result

Each workload is measured in a fresh subprocess with
``PYTHONHASHSEED=0``.  With ``--trace 0`` the workload is repeated for
about ``--seconds`` seconds with tracing off and the end-to-end metrics
are reported; with ``--trace 1`` it runs once plain and once under a
profiler the benchmark installs itself, and the per-layer metrics are
reported.  Outputs are checked either way; a failed check exits 1.

When one workload is named, the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (see ``BENCHMARK.json`` for names, units and bounds).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 42


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        raw = json.load(handle)
    return {
        "run_seconds": raw["run_seconds"],
        "workloads": {row["name"]: row["why"] for row in raw["workloads"]},
        "end_to_end": {row["name"]: row for row in raw["end_to_end"]},
        "per_layer": {row["name"]: row for row in raw["per_layer"]},
    }


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measuring time per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: measure one workload in this process ------------------------------

def child(args: argparse.Namespace, spec: dict) -> int:
    sys.path[:0] = [BENCH_DIR, SRC]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(
            f"bench: 'repro' resolves to {repro.__file__}, not to this "
            "checkout's src/ — refusing to measure another program"
        )
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    document = harness.measure(
        workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        sizes=workload.TINY if args.tiny else workload.SIZES,
        spec=spec,
        repro_dir=os.path.join(SRC, "repro"),
    )
    print(json.dumps(document))
    return 0


# -- parent: one fresh subprocess per workload --------------------------------

def _spawn(args: argparse.Namespace, name: str) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.tiny:
        command.append("--tiny")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"bench: workload {name!r} could not be measured "
            f"(exit {done.returncode})"
        )
    return json.loads(done.stdout.splitlines()[-1])


def _show(document: dict, why: str) -> None:
    print(f"\n== {document['workload']} — {why}")
    print(
        f"   seed {document['seed']}, {document['repeats']} repeats, "
        f"sizes {document['sizes']}"
    )
    print(f"   load: {document['loop']}")
    for name, row in document["metrics"].items():
        line = f"   {name:<42} {row['value']:>14.6g} {row['unit']:<8}"
        if "q1" in row:
            line += f" q1 {row['q1']:.6g} q3 {row['q3']:.6g} min {row['min']:.6g}"
        line += f" n {row['n']}"
        if "percentile" in row:
            line += f" (p{row['percentile']:g})"
        if "raw" in row:
            line += f" raw {row['raw']:.6g}"
        print(line)
    for key, value in document["fingerprints"].items():
        print(f"   fingerprint {key}: {value}")
    for note in document["notes"]:
        print(f"   note: {note}")
    for problem in document["problems"]:
        print(f"   CHECK FAILED: {problem}")
    print(
        f"   attempted {document['attempted']}, failed {document['failed']}, "
        f"outputs {'correct' if document['correct'] else 'WRONG'}"
    )


def _contract_line(document: dict) -> str:
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": row["value"], "unit": row["unit"]}
                for name, row in document["metrics"].items()
            },
        }
    )


def _commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = list(spec["workloads"])
    if args.workload is not None:
        if args.workload not in names:
            raise SystemExit(f"bench: unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    if args.child:
        return child(args, spec)

    documents = []
    for name in names:
        document = _spawn(args, name)
        _show(document, spec["workloads"][name])
        documents.append(document)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "commit": _commit(),
                    "seed": args.seed,
                    "trace": args.trace,
                    "workloads": {d["workload"]: d for d in documents},
                    "claim": None,
                },
                handle,
                indent=1,
            )
            handle.write("\n")
    if len(documents) == 1:
        print(_contract_line(documents[0]))
    return 0 if all(d["correct"] for d in documents) else 1


if __name__ == "__main__":
    sys.exit(main())
