#!/usr/bin/env python3
"""Run the full evaluation suite N-wide and regenerate EXPERIMENTS.md.

The engine (``repro.experiments.engine``) decomposes every experiment
into independent shards — whole runners, plus per-(service × cluster)
cells for the deployment figures — executes them across a worker pool,
and caches each shard's result on disk keyed by (function, kwargs,
source fingerprint).  A re-run after an unrelated edit therefore only
recomputes what changed; an identical re-run is all cache hits.

Typical invocations::

    # full paper-scale suite, one worker per CPU, EXPERIMENTS.md rewritten
    PYTHONPATH=src python tools/run_experiments.py -o EXPERIMENTS.md

    # quick look: reduced sizes, explicit worker count, no doc output
    PYTHONPATH=src python tools/run_experiments.py --fast --workers 4

    # selected experiments, ignoring (but refreshing) the cache
    PYTHONPATH=src python tools/run_experiments.py --fresh fig11 fig14

    # wall-clock accounting as JSON
    PYTHONPATH=src python tools/run_experiments.py --report-json report.json

The cache lives in ``.cache/experiments`` by default (``--cache-dir``
to move it, ``--no-cache`` to disable).  ``--workers 1`` runs entirely
in-process and produces row-identical results to any parallel run —
asserted by tests/test_experiment_engine.py.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (_REPO_ROOT, _REPO_ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from repro.experiments import EXPERIMENTS  # noqa: E402
from repro.experiments.engine import (  # noqa: E402
    DEFAULT_CACHE_DIR,
    FAST_KWARGS,
    run_suite,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="experiment names to run (default: the whole suite)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: CPU count; 1 = in-process)",
    )
    parser.add_argument(
        "--fast", action="store_true", help="reduced sizes for a quick pass"
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"shard cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shard cache entirely",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore cached shard results (still refreshes the cache)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the regenerated EXPERIMENTS.md here",
    )
    parser.add_argument(
        "--report-json",
        default=None,
        help="write the wall-clock/cache report as JSON here",
    )
    parser.add_argument(
        "--kernel",
        choices=("serial", "parallel"),
        default=None,
        help="run the D1 federation experiment's full-testbed replay "
        "row under this executor (rows are identical either way — the "
        "partitioned kernel's byte-identity guarantee — but the shard "
        "caches under a distinct key per kernel)",
    )
    args = parser.parse_args(argv)

    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    overrides = None
    if args.kernel is not None:
        if "extension_federation" not in names:
            print("--kernel only applies to the extension_federation "
                  "experiment; include it in the run", file=sys.stderr)
            return 2
        # Engine overrides REPLACE an experiment's kwargs (the fast
        # table included), so a fast run must carry the reduced sizes
        # explicitly alongside the kernel choice.
        kwargs = dict(FAST_KWARGS["extension_federation"]) if args.fast else {}
        kwargs["kernel"] = args.kernel
        overrides = {"extension_federation": kwargs}

    started = time.perf_counter()
    results, stats = run_suite(
        names,
        fast=args.fast,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        fresh=args.fresh,
        overrides=overrides,
        progress=lambda line: print(f"[engine] {line}", flush=True),
    )
    suite_wall = time.perf_counter() - started

    if args.output:
        # EXPERIMENTS.md needs every experiment; a partial run still
        # prints its tables but refuses to rewrite the committed doc.
        if set(names) != set(EXPERIMENTS):
            print(
                "not rewriting EXPERIMENTS.md from a partial run "
                f"({len(names)}/{len(EXPERIMENTS)} experiments)",
                file=sys.stderr,
            )
            return 2
        from repro.docs import generate_experiments_md

        text = generate_experiments_md(
            fast=args.fast, run=lambda name, _fast: results[name]
        )
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        for name in names:
            print(results[name].render())
            print()

    print(
        f"suite: {len(names)} experiments, {stats.shards_total} shards "
        f"({stats.cache_hits} cached, {stats.deduplicated} deduplicated, "
        f"{stats.shards_executed} executed) on {stats.workers} worker(s) "
        f"in {suite_wall:.2f}s wall ({sum(stats.shard_s.values()):.2f}s compute)"
    )
    slowest = sorted(
        stats.per_experiment_s.items(), key=lambda kv: kv[1], reverse=True
    )[:5]
    for name, seconds in slowest:
        if seconds > 0:
            print(f"  {name:24} {seconds:8.2f}s compute")

    if args.report_json:
        report = {
            "schema": "repro-experiment-suite/1",
            "workers": stats.workers,
            "wall_s": round(suite_wall, 4),
            "compute_s": round(sum(stats.shard_s.values()), 4),
            "experiments": len(names),
            "shards_total": stats.shards_total,
            "shards_executed": stats.shards_executed,
            "cache_hits": stats.cache_hits,
            "deduplicated": stats.deduplicated,
            "fast": args.fast,
            "per_experiment_s": {
                k: round(v, 4) for k, v in stats.per_experiment_s.items()
            },
        }
        with open(args.report_json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
