"""Shared helper for the paper-figure shape tests.

Every test here regenerates one table/figure of the paper via its
experiment runner, prints the figure-shaped rows (run with ``-s`` to
see them), and asserts the paper's *shape* criteria — who wins, by
roughly what factor — not absolute numbers.
"""

from __future__ import annotations


def run_experiment(runner, *args, **kwargs):
    """Run an experiment once and print its table."""
    result = runner(*args, **kwargs)
    print()
    print(result.render())
    return result
