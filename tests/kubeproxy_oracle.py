"""The full kube-proxy resync, kept as the oracle for the journal-driven one.

:class:`FullResync` is ``KubeProxy._reconcile_all`` (with ``_select_pods``
and ``_backends``) as it stood before the change journal, verbatim but
for one line: a binding whose node port differs from the desired one is
closed and reopened (the node-port bugfix; the old code only tested
membership).  It re-derives every binding from every service and pod on
every call, so whatever it does on the live store is what a resync must
do.  :class:`RecordingNode` stands in for a kubelet and its host and
logs the ``open_port`` / ``close_port`` calls it receives (its apps are
:class:`Backend` objects, driven with :func:`serve`);
:class:`DryRunNode` wraps a real kubelet, answers from it and only logs.
"""

from __future__ import annotations

import typing as _t

from repro.k8s.kubeproxy import KubeProxy, RoundRobinBalancer
from repro.k8s.objects import matches_selector


class RecordingNode:
    """What kube-proxy calls on a kubelet and on its host."""

    def __init__(
        self,
        name: str,
        calls: list[tuple[str, str, int]],
        apps: dict[tuple[str, int], object] | None = None,
    ) -> None:
        self.name = name
        self.node_host = self
        #: Shared log of (node, "open" | "close", port), in call order.
        self.calls = calls
        self.ports: dict[int, object] = {}
        #: (pod uid, container port) -> the app listening there.
        self.apps: dict[tuple[str, int], object] = {} if apps is None else apps

    def port_is_open(self, port):
        return port in self.ports

    def open_port(self, port, handler):
        self.calls.append((self.name, "open", port))
        self.ports[port] = handler

    def close_port(self, port):
        self.calls.append((self.name, "close", port))
        del self.ports[port]

    def ready_app_for(self, pod, target_port):
        return self.apps.get((pod.metadata.uid, target_port))


class Backend:
    """A backend app that never waits and answers with itself."""

    def handle(self, request):
        return self
        yield  # pragma: no cover - makes this a generator


def serve(handler, request=None):
    """One request through a node-port handler over :class:`Backend`
    apps; returns the backend that served it."""
    try:
        next(handler.handle(request))
    except StopIteration as stop:
        return stop.value
    raise AssertionError("the backend waited")


class DryRunNode:
    """A real kubelet and host to read from; programming is only logged."""

    def __init__(self, kubelet, calls: list[tuple[str, str, int]]) -> None:
        self.kubelet = kubelet
        self.node_host = self
        self.calls = calls

    def port_is_open(self, port):
        return self.kubelet.node_host.port_is_open(port)

    def open_port(self, port, handler):
        self.calls.append((self.kubelet.node_name, "open", port))

    def close_port(self, port):
        self.calls.append((self.kubelet.node_name, "close", port))

    def ready_app_for(self, pod, target_port):
        return self.kubelet.ready_app_for(pod, target_port)


class FullResync:
    """kube-proxy's state and its resync as a full one."""

    def __init__(self, api, kubelets) -> None:
        self.api = api
        self.kubelets = kubelets
        self._bound: dict[tuple[str, str], int] = {}
        self._balancers: dict[tuple[str, str], RoundRobinBalancer] = {}

    @classmethod
    def shadow_of(cls, proxy: KubeProxy, kubelets) -> "FullResync":
        """An oracle holding a copy of ``proxy``'s bindings and balancers
        (same backends, same rotation), programming ``kubelets``."""
        shadow = cls(proxy.api, kubelets)
        shadow._bound = {key: port for key, (port, _) in proxy._bound.items()}
        for key, balancer in proxy._balancers.items():
            copy = shadow._balancers[key] = RoundRobinBalancer()
            copy.backends, copy._next = balancer.backends, balancer._next
        return shadow

    def reconcile_all(self) -> None:
        services = self.api.list_nowait("Service", namespace=None)
        selected = self._select_pods(services)
        desired: dict[tuple[str, str], tuple[int, list[_t.Any]]] = {}

        for service in services:
            pods = selected.get(service.metadata.uid, ())
            for port in service.spec.ports:
                if port.node_port is None:
                    continue
                for node_name, apps in self._backends(
                    port.target_port, pods
                ).items():
                    desired[(service.metadata.uid, node_name)] = (
                        port.node_port,
                        apps,
                    )

        # Close bindings that lost their backends or services — or whose
        # node port changed (the one line that is not the old code).
        for key in list(self._bound):
            if key not in desired or desired[key][0] != self._bound[key]:
                node_port = self._bound.pop(key)
                self._balancers.pop(key, None)
                kubelet = self.kubelets.get(key[1])
                if kubelet is not None and kubelet.node_host.port_is_open(node_port):
                    kubelet.node_host.close_port(node_port)

        # Open new bindings / refresh backend sets.
        for key, (node_port, apps) in desired.items():
            kubelet = self.kubelets.get(key[1])
            if kubelet is None:
                continue
            balancer = self._balancers.get(key)
            if balancer is None:
                balancer = RoundRobinBalancer()
                self._balancers[key] = balancer
            balancer.set_backends(apps)
            if key not in self._bound:
                if not kubelet.node_host.port_is_open(node_port):
                    kubelet.node_host.open_port(node_port, balancer)
                self._bound[key] = node_port

    def _select_pods(self, services):
        by_pair: dict[tuple[str, str] | None, list] = {}
        for service in services:
            pair = next(iter(service.spec.selector.items()), None)
            by_pair.setdefault(pair, []).append(service)
        selected: dict[str, list] = {}
        for pod in self.api.list_nowait("Pod", namespace=None):
            if not pod.status.ready or pod.spec.node_name is None:
                continue
            labels = pod.metadata.labels
            for pair in (None, *labels.items()):
                for service in by_pair.get(pair, ()):
                    if matches_selector(labels, service.spec.selector):
                        selected.setdefault(service.metadata.uid, []).append(pod)
        return selected

    def _backends(self, target_port, pods):
        result: dict[str, list[_t.Any]] = {}
        for pod in pods:
            kubelet = self.kubelets.get(pod.spec.node_name)
            if kubelet is None:
                continue
            app = kubelet.ready_app_for(pod, target_port)
            if app is not None:
                result.setdefault(pod.spec.node_name, []).append(app)
        return result


def assert_same_programming(proxy: KubeProxy, oracle: FullResync) -> None:
    """``proxy`` holds exactly what ``oracle`` holds: the same bindings in
    the same order with the same ports, and per binding the same backend
    list and the same position in its rotation."""
    assert list(proxy._bound) == list(oracle._bound)
    assert {key: port for key, (port, _) in proxy._bound.items()} == oracle._bound
    assert list(proxy._balancers) == list(oracle._balancers)
    for key, balancer in proxy._balancers.items():
        twin = oracle._balancers[key]
        assert [id(app) for app in balancer.backends] == [
            id(app) for app in twin.backends
        ], key
        assert balancer._next == twin._next, key


def assert_nothing_left_to_program(proxy: KubeProxy) -> None:
    """After a resync of ``proxy`` now, a full resync over the live store
    would open no port, close none and change no backend list."""
    proxy._reconcile_all()
    calls: list[tuple[str, str, int]] = []
    dry = {name: DryRunNode(kubelet, calls) for name, kubelet in proxy.kubelets.items()}
    oracle = FullResync.shadow_of(proxy, dry)
    oracle.reconcile_all()
    assert calls == []
    assert_same_programming(proxy, oracle)
