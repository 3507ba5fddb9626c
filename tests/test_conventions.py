"""Conventions of ``src/repro`` that no behavioural test would notice."""

from __future__ import annotations

import ast
import pathlib

import repro

_ROOT = pathlib.Path(repro.__file__).parent
#: The experiment drivers run from outside the simulation, and the
#: sharded kernel has its own loop.
_OUTSIDE = ("experiments", "sim/parallel")


def test_a_started_process_is_held_or_spawned():
    """``env.process(...)`` as a statement of its own makes a ``Process``
    nobody can wait on, whose end is then a heap entry that pops to do
    nothing: hold the process, or ``env.spawn(...)`` it (which returns
    nothing, and whose successful end is no entry)."""
    dropped = []
    for path in sorted(_ROOT.rglob("*.py")):
        module = path.relative_to(_ROOT).as_posix()
        if module.startswith(_OUTSIDE):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "process"
            ):
                dropped.append(f"{module}:{node.lineno}")
    assert dropped == []
