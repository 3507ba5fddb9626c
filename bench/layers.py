"""Module -> layer map and the profile fold that attributes host time.

A *layer* is one of the repo's modules (or a group of small ones that
only make sense together).  The traced run profiles the timed call with
``cProfile``; :func:`fold` then charges every function's self time and
call count to the layer that owns its module.  Functions nobody owns —
builtins, stdlib, numpy — are charged to the layers of their callers,
edge by edge, using the caller table ``pstats`` keeps; only what cannot
be traced back to a repo module lands in ``python``.

That is a span at every layer boundary with self time = duration minus
children, recorded entirely from the benchmark's side: nothing under
``src/`` knows it is being measured.
"""

from __future__ import annotations

import os
import typing as _t
from fractions import Fraction

#: Every layer a metric may be attributed to, in reporting order.
LAYERS: tuple[str, ...] = (
    "sim",
    "net.link",
    "net.host",
    "net.openflow",
    "net.route_cache",
    "net.packet",
    "sdnfw",
    "core.controller",
    "core.dispatcher",
    "core.state",
    "core.migration",
    "cluster",
    "k8s",
    "ops",
    "faults",
    "sim.parallel",
    "workload",
    "testbed",
    "python",
)

#: Dotted module prefix under ``repro`` -> owning layer; the longest
#: matching prefix wins.  Every ``.py`` under ``src/repro`` must match
#: a rule (``bench/tests`` checks), so a new module cannot silently
#: fall into ``python``.
MODULE_RULES: tuple[tuple[str, str], ...] = (
    ("sim.parallel", "sim.parallel"),
    ("sim", "sim"),
    ("net.link", "net.link"),
    ("net.host", "net.host"),
    ("net.cloud", "net.host"),  # CloudHost is a Host serving many addresses
    ("net.openflow", "net.openflow"),
    ("net.route_cache", "net.route_cache"),
    ("net", "net.packet"),  # packet, addressing, device, topology
    ("sdnfw", "sdnfw"),
    ("core.dispatcher", "core.dispatcher"),
    ("core.schedulers", "core.dispatcher"),
    ("core.predictor", "core.dispatcher"),
    ("core.state", "core.state"),
    ("core.federation", "core.state"),
    ("core.migration", "core.migration"),
    ("core", "core.controller"),  # controller, flow_memory, registry, annotator
    ("yamlite", "core.controller"),  # parses the service definitions it annotates
    ("cluster", "cluster"),
    ("containers", "cluster"),
    ("serverless", "cluster"),
    ("services", "cluster"),  # the apps that run inside the containers
    ("k8s", "k8s"),
    ("ops", "ops"),
    ("faults", "faults"),
    ("workload", "workload"),
    ("metrics", "workload"),  # the recorder the measurement client writes to
    ("testbed", "testbed"),
    ("experiments", "testbed"),
    ("cli", "testbed"),
    ("docs", "testbed"),
    ("__init__", "testbed"),
    ("__main__", "testbed"),
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

Func = tuple[str, int, str]


def layer_of_module(dotted: str) -> str | None:
    """Layer of a module path relative to ``repro`` (``net.link``)."""
    best: tuple[int, str] | None = None
    for prefix, layer in MODULE_RULES:
        if dotted == prefix or dotted.startswith(prefix + "."):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), layer)
    return best[1] if best else None


def module_of_file(path: str, repro_dir: str) -> str | None:
    """Dotted module path of ``path`` relative to the ``repro`` package."""
    path = os.path.abspath(path)
    root = os.path.abspath(repro_dir) + os.sep
    if not path.startswith(root) or not path.endswith(".py"):
        return None
    dotted = path[len(root):-3].replace(os.sep, ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def make_owner(repro_dir: str) -> _t.Callable[[str], str | None]:
    """Filename -> owning layer (None: foreign code, charged to callers)."""
    cache: dict[str, str | None] = {}

    def owner(filename: str) -> str | None:
        if filename not in cache:
            layer = None
            if filename.startswith(_BENCH_DIR + os.sep):
                # The benchmark's own load generators and spies.
                layer = "workload"
            else:
                dotted = module_of_file(filename, repro_dir)
                if dotted is not None:
                    layer = layer_of_module(dotted) or "python"
            cache[filename] = layer
        return cache[filename]

    return owner


def fold(
    stats: _t.Mapping[Func, tuple],
    owner: _t.Callable[[str], str | None],
    orphans: str = "python",
) -> tuple[dict[str, float], dict[str, Fraction]]:
    """Fold ``pstats`` rows into per-layer (self seconds, call counts).

    ``stats`` is ``pstats.Stats(...).stats``: ``func -> (cc, nc, tt,
    ct, callers)`` with ``callers[caller] = (nc, cc, tt, ct)``.  Call
    counts are split with exact fractions weighted by call counts only,
    so they repeat bit for bit; seconds are split by measured seconds.

    ``orphans`` is the layer charged with foreign functions that have
    no recorded caller.  In a forked worker the profiler starts inside
    the worker loop, so the pipe reads that loop makes directly have
    none: the caller passes ``sim.parallel`` for such profiles.
    """
    owned = {func: owner(func[0]) for func in stats}
    memo: dict[tuple[Func, int], dict[str, _t.Any]] = {}

    def spread(func: Func, field: int, trail: frozenset) -> dict[str, _t.Any]:
        # Layer weights (summing to 1) of a foreign function, taken
        # from who called it; field 0 weighs by calls, 2 by self time.
        key = (func, field)
        if key in memo:
            return memo[key]
        if func in trail or func not in stats:
            return {orphans: 1}
        weights: dict[str, _t.Any] = {}
        total: _t.Any = 0
        for caller, edge in sorted(stats[func][4].items()):
            weight = Fraction(edge[0]) if field == 0 else edge[2]
            if weight <= 0:
                continue
            for layer, share in _parts(caller, field, trail | {func}).items():
                weights[layer] = weights.get(layer, 0) + weight * share
            total += weight
        result = (
            {layer: w / total for layer, w in weights.items()}
            if total
            else {orphans: 1}
        )
        memo[key] = result
        return result

    def _parts(caller: Func, field: int, trail: frozenset) -> dict[str, _t.Any]:
        layer = owned.get(caller)
        return {layer: 1} if layer else spread(caller, field, trail)

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, Fraction] = dict.fromkeys(LAYERS, Fraction(0))
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = owned[func]
        if layer:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        charged_s = 0.0
        charged_calls = 0
        for caller, edge in sorted(callers.items()):
            for target, share in _parts(caller, 2, frozenset((func,))).items():
                self_s[target] += edge[2] * share
            for target, share in _parts(caller, 0, frozenset((func,))).items():
                calls[target] += edge[0] * share
            charged_s += edge[2]
            charged_calls += edge[0]
        # Whatever no caller edge accounts for (the profiler's own
        # entry points, C callbacks without a Python frame).
        self_s[orphans] += max(0.0, tt - charged_s)
        calls[orphans] += max(0, nc - charged_calls)
    return self_s, calls


def calls_of(
    stats: _t.Mapping[Func, tuple], file_suffix: str, names: _t.Container[str]
) -> int:
    """Total calls of the named functions defined in ``file_suffix``."""
    suffix = file_suffix.replace("/", os.sep)
    return sum(
        row[1]
        for (filename, _line, name), row in stats.items()
        if name in names and filename.endswith(suffix)
    )
