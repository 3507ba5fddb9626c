"""Conventions of ``src/repro`` that no behavioural test would notice."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import typing as _t

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


def _store_attributes(tree: ast.AST) -> set[str]:
    """Names of the attributes a module assigns a ``Store(...)`` to."""
    return {
        target.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "Store"
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
    }


def test_a_store_get_is_the_operand_of_a_yield():
    """A ``get`` on a non-empty ``Store`` at a quiet instant is processed
    on the spot (``StoreGet``), which is only the entry it replaces when
    the get is yielded at once — its process's last act before the
    kernel runs it.  ``ev = queue.get(); ...; yield ev`` would reorder
    same-instant work silently; so every ``get()`` on an attribute
    holding a ``Store`` is the direct operand of a ``yield``."""
    loose, gets = [], 0
    for path in sorted(_ROOT.rglob("*.py")):
        module = path.relative_to(_ROOT).as_posix()
        if module.startswith(_OUTSIDE):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stores = _store_attributes(tree)
        yielded = {
            id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Yield)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and not node.args
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in stores
            ):
                gets += 1
                if id(node) not in yielded:
                    loose.append(f"{module}:{node.lineno}")
    assert gets >= 6  # the five work queues' workers and kube-proxy's drain
    assert loose == []


def _imports_the_kernel(node: ast.AST) -> bool:
    kernel = "repro.sim.parallel"
    if isinstance(node, ast.Import):
        return any(
            alias.name == kernel or alias.name.startswith(kernel + ".")
            for alias in node.names
        )
    if isinstance(node, ast.ImportFrom) and node.module is not None:
        if node.module == kernel or node.module.startswith(kernel + "."):
            return True
        return node.module == "repro.sim" and any(
            alias.name == "parallel" for alias in node.names
        )
    return False


def test_nothing_outside_the_sharded_kernel_imports_it():
    """The sharded kernel wires the program's own parts (``Site``,
    ``Backbone``, ``LinkEndpoint``, ``ReplicaLink``); nothing it does
    not own may reach back into it — not under ``TYPE_CHECKING``, not
    inside a function — so that deleting ``sim/parallel/`` touches no
    other module of the package."""
    found = []
    for path in sorted(_ROOT.rglob("*.py")):
        module = path.relative_to(_ROOT).as_posix()
        if module.startswith("sim/parallel/"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _imports_the_kernel(node):
                found.append(f"{module}:{node.lineno}")
    assert found == []


def test_the_program_runs_on_the_standard_library_alone():
    """``src/`` has no runtime dependency: every random stream is a
    seeded ``random.Random``, the same on every CPython 3.x, so a seed
    names the same run on every interpreter with nothing installed.
    ``-S`` keeps site-packages off the path, so a third-party import
    fails here rather than loading."""
    probe = (
        "import sys, repro.testbed, repro.workload, repro.experiments, repro.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " - set(sys.stdlib_module_names) - {'repro', '__main__'}))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(_ROOT.parent)},
    )
    assert out.stdout.strip() == "[]"


def _module_imports(body: list[ast.stmt]) -> _t.Iterator[tuple[str, int]]:
    """``(bound name, line)`` of every import at module level, including
    those under a module-level ``if`` or ``try`` (``TYPE_CHECKING``)."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _module_imports(node.body)
            yield from _module_imports(node.orelse)
            for handler in getattr(node, "handlers", ()):
                yield from _module_imports(handler.body)


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, plus those inside string annotations
    and the entries of ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant)
            }
        for annotation in filter(None, annotations):
            for text in ast.walk(annotation):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    parsed = ast.parse(text.value, mode="eval")
                    used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def test_no_unused_module_imports():
    """What CI's ``ruff check`` (F401) would flag, for a checkout without
    ruff: a module-level import under ``src/`` or ``tests/`` that the
    module never reads.  ``__init__.py`` files re-export on purpose and
    are skipped."""
    tests = pathlib.Path(__file__).parent
    unused = []
    for path in sorted([*_ROOT.rglob("*.py"), *tests.rglob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [
            f"{path.relative_to(_ROOT.parent.parent)}:{line} {name}"
            for name, line in _module_imports(tree.body)
            if name not in used
        ]
    assert unused == []
