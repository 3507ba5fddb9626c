"""Endpoints propagation and kube-proxy node-port programming.

When a pod backing a NodePort service becomes ready, the endpoints
controller reacts first (``endpoints_sync_s``), then kube-proxy
programs the node port (``kubeproxy_sync_s``) on the node running the
pod — only then does the service port answer TCP connects, which is
what the SDN controller's port polling observes.
"""

from __future__ import annotations

import typing as _t

from repro.k8s.apiserver import APIServer, WatchEvent
from repro.k8s.objects import Pod, Service, matches_selector
from repro.sim import Environment, Store

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.k8s.kubelet import Kubelet


class RoundRobinBalancer:
    """The node-port handler: balances requests over ready backends.

    kube-proxy's iptables rules spray connections across endpoints; we
    model that as per-request round robin over the current backend
    apps.  The backend list is swapped atomically on each reconcile.
    """

    def __init__(self) -> None:
        self.backends: list[_t.Any] = []
        self._next = 0

    def set_backends(self, backends: list[_t.Any]) -> None:
        self.backends = backends
        if self._next >= len(backends):
            self._next = 0

    def handle(self, request):
        if not self.backends:  # pragma: no cover - port closes first
            raise RuntimeError("no backends")
        backend = self.backends[self._next % len(self.backends)]
        self._next += 1
        response = yield from backend.handle(request)
        return response


class KubeProxy:
    """Cluster-wide service plumbing (endpoints + proxy, folded)."""

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        kubelets: dict[str, "Kubelet"],
    ) -> None:
        self.env = env
        self.api = api
        self.kubelets = kubelets
        #: (service uid, node name) -> opened node port.
        self._bound: dict[tuple[str, str], int] = {}
        #: (service uid, node name) -> the balancer serving that port.
        self._balancers: dict[tuple[str, str], RoundRobinBalancer] = {}
        self._queue: Store = Store(env)
        env.process(self._watch("Service"), name="kubeproxy-watch-svc")
        env.process(self._watch("Pod"), name="kubeproxy-watch-pod")
        env.process(self._worker(), name="kubeproxy-worker")

    def _watch(self, kind: str):
        watch = self.api.watch(kind)
        while True:
            yield watch.get()
            self._queue.put("resync")

    def _worker(self):
        profile = self.api.profile
        while True:
            yield self._queue.get()
            # Coalesce bursts: drain whatever queued while we slept.
            yield self.env.timeout(profile.endpoints_sync_s)
            while len(self._queue.items):
                yield self._queue.get()
            yield self.env.timeout(profile.kubeproxy_sync_s)
            self._reconcile_all()

    def _reconcile_all(self) -> None:
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

        # Close bindings that lost their backends or services.
        for key in list(self._bound):
            if key not in desired:
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

    def _select_pods(self, services: _t.Sequence[Service]) -> dict[str, list[Pod]]:
        """Service uid -> its ready, bound pods in uid order.

        A full resync, but a join instead of services x pods: services
        are keyed by the first pair of their selector, so a ready pod
        meets only those one of its labels names (or that select all).
        Readiness and binding are read live — kubelet and scheduler
        write them in place before their ``update``.
        """
        by_pair: dict[tuple[str, str] | None, list[Service]] = {}
        for service in services:
            pair = next(iter(service.spec.selector.items()), None)
            by_pair.setdefault(pair, []).append(service)
        selected: dict[str, list[Pod]] = {}
        for pod in self.api.list_nowait("Pod", namespace=None):
            if not pod.status.ready or pod.spec.node_name is None:
                continue
            labels = pod.metadata.labels
            for pair in (None, *labels.items()):
                for service in by_pair.get(pair, ()):
                    if matches_selector(labels, service.spec.selector):
                        selected.setdefault(service.metadata.uid, []).append(pod)
        return selected

    def _backends(
        self, target_port: int, pods: _t.Sequence[Pod]
    ) -> dict[str, list[_t.Any]]:
        """Backend apps per node of ready, bound ``pods``, in their order."""
        result: dict[str, list[_t.Any]] = {}
        for pod in pods:
            kubelet = self.kubelets.get(pod.spec.node_name)
            if kubelet is None:
                continue
            app = kubelet.ready_app_for(pod, target_port)
            if app is not None:
                result.setdefault(pod.spec.node_name, []).append(app)
        return result
