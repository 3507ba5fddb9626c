"""Command-line interface: run experiments and regenerate the docs.

Usage::

    python -m repro list
    python -m repro run fig11 [--fast]
    python -m repro run all [--fast]
    python -m repro experiments-md [--fast] [-o EXPERIMENTS.md]

``--fast`` shrinks instance/repetition counts for a quick look; the
published EXPERIMENTS.md uses the full paper-scale parameters.
"""

from __future__ import annotations

import argparse
import sys

from repro.docs import generate_experiments_md
from repro.experiments import EXPERIMENTS, run_experiment


def cmd_list() -> int:
    for name, runner in EXPERIMENTS.items():
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        print(f"{name:22} {doc}")
    return 0


def cmd_run(names: list[str], fast: bool) -> int:
    unknown = [n for n in names if n != "all" and n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    # "all" anywhere among the names means the whole registry, once.
    for name in list(EXPERIMENTS) if "all" in names else names:
        print(run_experiment(name, fast).render())
        print()
    return 0


def cmd_experiments_md(fast: bool, output: str | None) -> int:
    text = generate_experiments_md(fast=fast)
    if output:
        with open(output, "w") as handle:
            handle.write(text)
        print(f"wrote {output}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run experiments by name")
    run_parser.add_argument("names", nargs="+", help="experiment names or 'all'")
    run_parser.add_argument("--fast", action="store_true", help="reduced sizes")

    md_parser = sub.add_parser(
        "experiments-md", help="regenerate EXPERIMENTS.md content"
    )
    md_parser.add_argument("--fast", action="store_true")
    md_parser.add_argument("-o", "--output", default=None)

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args.names, args.fast)
    if args.command == "experiments-md":
        return cmd_experiments_md(args.fast, args.output)
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
