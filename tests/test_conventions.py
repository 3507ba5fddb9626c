"""Conventions of ``src/repro`` that no behavioural test would notice."""

from __future__ import annotations

import ast
import importlib
import importlib.util
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


def _imports(node: ast.AST, module: str) -> bool:
    """Does ``node`` import ``module`` (or anything under it)?"""
    if isinstance(node, ast.Import):
        return any(
            alias.name == module or alias.name.startswith(module + ".")
            for alias in node.names
        )
    if isinstance(node, ast.ImportFrom) and node.module is not None:
        if node.module == module or node.module.startswith(module + "."):
            return True
        parent, _, leaf = module.rpartition(".")
        return node.module == parent and any(alias.name == leaf for alias in node.names)
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
            if _imports(node, "repro.sim.parallel"):
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


def _resolves(module: str, name: str) -> bool:
    """Is ``name`` an attribute or a submodule of ``module``?"""
    try:
        imported = importlib.import_module(module)
    except ModuleNotFoundError:
        return False
    return hasattr(imported, name) or (
        hasattr(imported, "__path__")
        and importlib.util.find_spec(f"{module}.{name}") is not None
    )


def test_every_repro_import_resolves():
    """Every ``from repro.… import name`` under ``src/`` names a module
    that exists and a name it has — under ``TYPE_CHECKING`` too, where
    nothing runs the import and mypy's ``ignore_missing_imports`` lets
    a missing module pass."""
    broken = []
    for path in sorted(_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module is not None
                and node.module.split(".")[0] == "repro"
            ):
                broken += [
                    f"{path.relative_to(_ROOT).as_posix()}:{node.lineno} "
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if not _resolves(node.module, alias.name)
                ]
    assert broken == []


def test_nothing_under_src_imports_the_tap():
    """``repro.observe`` is for observers outside the program."""
    found = [
        f"{path.relative_to(_ROOT).as_posix()}:{node.lineno}"
        for path in sorted(_ROOT.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _imports(node, "repro.observe")
    ]
    assert found == []


#: Hand-rolled wrappers under ``tests/`` that are not taps, with why.
_NOT_TAPS = {
    "test_cli.py::fake_run": "stub: replaces the experiment runner",
    "test_cli.py::<lambda>": "stub: replaces the experiment runner",
    "test_dispatcher_e2e.py::wrapped": "fault injection: raises queued faults; logs the result",
    "test_dispatcher_e2e.py::spied": "result observation: the outcome ensure_deployed returns",
    "test_dispatcher_e2e.py::publish": "result observation: chains on_instance_change (or None)",
    "test_dispatcher_unit.py::<lambda>": "a hook, no wrapper: on_endpoint_ready's memory half",
    "test_faults.py::<lambda>": "a hook, no wrapper: on_endpoint_ready's memory half",
    "test_properties.py::refuse": "fault injection: _start_instance fails",
    "test_properties.py::open_then_launch": "acts after the call: launches once the port is open",
    "test_properties.py::checked_resync": "check after the call: the resync against its oracle",
    "test_workload.py::broken_fetch": "fault injection: the fetch raises",
    "test_perf_regressions.py::receive": "the hand-rolled shape bench's spy_sources uses, tested",
    "nethelpers.py::flag": "slow twin: a Deadline.cancel that only flags",
    "controlhelpers.py::watched": "result observation: did Deployment.deploy ever yield",
    "controlhelpers.py::cold": "slow twin: starts a hand-off's process cold, its yields relayed",
}


def _hand_rolled_wrappers(tree: ast.AST) -> _t.Iterator[str]:
    """Each local ``def`` (or ``<lambda>``) a function rebinds an
    attribute to, or passes to ``setattr`` or ``mock.patch.object``."""
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        local = {node.name for node in ast.walk(function) if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Attribute):
                value = node.value
            elif (
                isinstance(node, ast.Call)
                and ast.unparse(node.func).endswith(("setattr", "patch.object"))
                and len(node.args) >= 2
            ):
                value = node.args[-1]
            else:
                continue
            if isinstance(value, ast.Lambda):
                yield "<lambda>"
            elif isinstance(value, ast.Name) and value.id in local - {function.name}:
                yield value.id


def test_an_observer_goes_through_the_tap():
    """A spy on a call is ``repro.observe.tap``: observer first, original
    last, so a spy on ``Host.receive`` cannot break the tail hand-off by
    acting after it.  Any other wrapper is in :data:`_NOT_TAPS`."""
    tests = pathlib.Path(__file__).parent
    found = {
        f"{path.relative_to(tests).as_posix()}::{wrapper}"
        for path in sorted(tests.rglob("*.py"))
        for wrapper in _hand_rolled_wrappers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert sorted(found ^ _NOT_TAPS.keys()) == []


_WITH_THE_KERNEL = "deleted with the sharded kernel and its bench workload (ROADMAP item 1)"

#: Defaulted parameters under ``src/`` that no call passes, with why
#: each stays a parameter (``module::function(parameter)``).
_ONE_VALUE = {
    "sim/parallel/coordinator.py::SerialExecutor.__init__(profile_dir)": _WITH_THE_KERNEL,
    "sim/parallel/coordinator.py::_worker_main(profile_path)": _WITH_THE_KERNEL,
    "sim/parallel/coordinator.py::ParallelCoordinator.__init__(profile_dir)": _WITH_THE_KERNEL,
}


class _Call(_t.NamedTuple):
    positional: int
    keywords: frozenset[str]
    starred: bool


def _calls(node: ast.AST, cls: ast.ClassDef | None = None) -> _t.Iterator[tuple[str, _Call]]:
    """``(callee, call)`` of every call under ``node``.  The callee is
    the called name or attribute; ``super().__init__`` calls the
    enclosing class's bases; and a callable handed to a call as a
    positional argument (a forwarding helper, ``functools.partial``)
    is called with the arguments after it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            keywords = frozenset(k.arg for k in child.keywords if k.arg)
            starred = any(isinstance(a, ast.Starred) for a in child.args) or any(
                k.arg is None for k in child.keywords
            )
            call = _Call(len(child.args), keywords, starred)
            func = child.func
            if isinstance(func, ast.Name):
                yield func.id, call
            elif isinstance(func, ast.Attribute):
                if ast.unparse(func) == "super().__init__" and cls is not None:
                    for base in cls.bases:
                        yield ast.unparse(base).rpartition(".")[2], call
                else:
                    yield func.attr, call
            for i, arg in enumerate(child.args):
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    handed = arg.id if isinstance(arg, ast.Name) else arg.attr
                    yield handed, call._replace(positional=len(child.args) - i - 1)
        yield from _calls(child, child if isinstance(child, ast.ClassDef) else cls)


def _defaulted(
    node: ast.AST, cls: ast.ClassDef | None = None
) -> _t.Iterator[tuple[ast.FunctionDef, ast.ClassDef | None, str, int | None]]:
    """``(function, its class, parameter, position among a call's
    arguments)`` of every defaulted parameter under ``node``; the
    position is ``None`` for a keyword-only one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted(child, child)
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            method = cls is not None and not any(
                ast.unparse(d) == "staticmethod" for d in child.decorator_list
            )
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                yield child, cls, positional[i].arg, i - method
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield child, cls, arg.arg, None
            yield from _defaulted(child, None)
        else:
            yield from _defaulted(child, cls)


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default that no call overrides is a setting with one value: a
    module constant or a literal, not a parameter.  A call passes a
    parameter when it names it, reaches its position, uses ``*`` or
    ``**``, does so through ``super()``, hands the function on with it
    (a forwarding helper), or sets it through ``FAST_KWARGS``; calls
    are gathered from ``src/``, ``bench/``, ``tools/``, ``examples/``
    and ``tests/`` and matched by name.  A call to a class reaches its
    ``__init__``, and so does a call to a subclass without one.  What
    stays anyway is in :data:`_ONE_VALUE`, with its reason."""
    from repro.experiments import EXPERIMENTS, FAST_KWARGS

    repo = _ROOT.parent.parent
    calls: dict[str, list[_Call]] = {}
    for top in ("src", "bench", "tools", "examples", "tests"):
        for path in sorted((repo / top).rglob("*.py")):
            for callee, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
                calls.setdefault(callee, []).append(call)
    for name, kwargs in FAST_KWARGS.items():
        calls.setdefault(EXPERIMENTS[name].__name__, []).append(
            _Call(0, frozenset(kwargs), False)
        )

    trees = {
        path.relative_to(_ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(_ROOT.rglob("*.py"))
    }
    bases, with_init = {}, set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {ast.unparse(b).rpartition(".")[2] for b in node.bases}
                if any(
                    isinstance(f, ast.FunctionDef) and f.name == "__init__"
                    for f in node.body
                ):
                    with_init.add(node.name)

    def constructors(name: str) -> list[str]:
        """``name`` and every subclass that inherits its ``__init__``."""
        return [name] + [
            found
            for sub, its_bases in bases.items()
            if name in its_bases and sub not in with_init
            for found in constructors(sub)
        ]

    unpassed = set()
    for module, tree in trees.items():
        for function, cls, parameter, position in _defaulted(tree):
            if cls is not None and function.name == "__init__":
                callees = constructors(cls.name)
            else:
                callees = [function.name]
            if not any(
                call.starred
                or parameter in call.keywords
                or (position is not None and call.positional > position)
                for callee in callees
                for call in calls.get(callee, ())
            ):
                owner = f"{cls.name}." if cls is not None else ""
                unpassed.add(f"{module}::{owner}{function.name}({parameter})")
    assert sorted(unpassed ^ _ONE_VALUE.keys()) == []
