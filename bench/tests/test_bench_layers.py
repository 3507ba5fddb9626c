"""The module -> layer map and the profile fold."""

import os
from fractions import Fraction

import layers
from conftest import ROOT

REPRO_DIR = os.path.join(ROOT, "src", "repro")


def test_every_module_has_a_layer():
    """No ``.py`` under ``src/repro`` falls through to ``python``."""
    unmapped = []
    for folder, _dirs, files in os.walk(REPRO_DIR):
        for name in files:
            if not name.endswith(".py"):
                continue
            dotted = layers.module_of_file(os.path.join(folder, name), REPRO_DIR)
            layer = layers.layer_of_module(dotted)
            if layer is None or layer == "python" or layer not in layers.LAYERS:
                unmapped.append(dotted)
    assert not unmapped


def test_longest_prefix_wins():
    assert layers.layer_of_module("sim.parallel.coordinator") == "sim.parallel"
    assert layers.layer_of_module("sim.environment") == "sim"
    assert layers.layer_of_module("net.openflow.table") == "net.openflow"
    assert layers.layer_of_module("net.addressing") == "net.packet"
    assert layers.layer_of_module("core.federation.state") == "core.state"
    assert layers.layer_of_module("core.flow_memory") == "core.controller"
    assert layers.layer_of_module("containers.containerd") == "cluster"
    assert layers.layer_of_module("nonsense") is None


def _owner(filename):
    return {"link.py": "net.link", "host.py": "net.host"}.get(filename)


def test_fold_charges_builtins_to_their_callers():
    link = ("link.py", 1, "transmit")
    host = ("host.py", 1, "receive")
    push = ("~", 0, "<built-in method heappush>")
    glue = ("/usr/lib/python3/random.py", 9, "uniform")  # foreign python
    rand = ("~", 0, "<method 'random'>")  # builtin called by foreign code
    stats = {
        # func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
        link: (10, 10, 1.0, 2.0, {}),
        host: (5, 5, 0.5, 1.0, {}),
        push: (30, 30, 0.3, 0.3, {link: (20, 20, 0.2, 0.2), host: (10, 10, 0.1, 0.1)}),
        glue: (4, 4, 0.4, 0.6, {host: (4, 4, 0.4, 0.6)}),
        rand: (4, 4, 0.2, 0.2, {glue: (4, 4, 0.2, 0.2)}),
    }
    self_s, calls = layers.fold(stats, _owner)
    assert self_s["net.link"] == 1.0 + 0.2
    assert abs(self_s["net.host"] - (0.5 + 0.1 + 0.4 + 0.2)) < 1e-12
    assert self_s["python"] == 0.0
    assert calls["net.link"] == 10 + 20
    assert calls["net.host"] == 5 + 10 + 4 + 4
    assert sum(calls.values()) == sum(row[1] for row in stats.values())
    assert all(isinstance(value, Fraction) for value in calls.values())


def test_fold_leaves_the_untraceable_in_python():
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    self_s, calls = layers.fold({orphan: (1, 1, 0.25, 0.25, {})}, _owner)
    assert self_s["python"] == 0.25
    assert calls["python"] == 1


def test_fold_splits_calls_exactly():
    """A foreign function with two callers splits its own callees by
    call counts, as exact fractions."""
    link = ("link.py", 1, "a")
    host = ("host.py", 1, "b")
    glue = ("/x/heapq.py", 1, "merge")
    leaf = ("~", 0, "<built-in len>")
    stats = {
        link: (1, 1, 0.0, 0.0, {}),
        host: (1, 1, 0.0, 0.0, {}),
        glue: (3, 3, 0.3, 0.3, {link: (1, 1, 0.1, 0.1), host: (2, 2, 0.2, 0.2)}),
        leaf: (9, 9, 0.0, 0.0, {glue: (9, 9, 0.0, 0.0)}),
    }
    _self_s, calls = layers.fold(stats, _owner)
    assert calls["net.link"] == 1 + 1 + Fraction(9, 3)
    assert calls["net.host"] == 1 + 2 + Fraction(18, 3)
