"""Endpoints propagation and kube-proxy node-port programming.

When a pod backing a NodePort service becomes ready, the endpoints
controller reacts first (``endpoints_sync_s``), then kube-proxy
programs the node port (``kubeproxy_sync_s``) on the node running the
pod — only then does the service port answer TCP connects, which is
what the SDN controller's port polling observes.

A resync reprograms what changed, not the cluster: it drains the API
server's Pod and Service journals (store writes and announced in-place
writes, recorded when they happen) and re-derives only the services
those objects touch.  It runs at the same instants and reads the same
live state as a full resync would, and does what one observably does.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.k8s.apiserver import APIServer, WatchEvent
from repro.k8s.objects import Pod, Service, matches_selector
from repro.sim import Environment, Store

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.k8s.kubelet import Kubelet

#: A binding: (service uid, node name) — one node port on one node.
_Key = tuple[str, str]


class RoundRobinBalancer:
    """The node-port handler: balances requests over ready backends.

    kube-proxy's iptables rules spray connections across endpoints; we
    model that as per-request round robin over the current backend
    apps.  The backend list is swapped atomically on each reconcile,
    and *every* resync restarts a rotation that has run off the end of
    its list — ``wrap_due`` is where a balancer leaves word of that for
    the resyncs that do not otherwise look at it.
    """

    def __init__(self, wrap_due: set["RoundRobinBalancer"] | None = None) -> None:
        self.backends: list[_t.Any] = []
        self._next = 0
        self._wrap_due = set() if wrap_due is None else wrap_due

    def set_backends(self, backends: list[_t.Any]) -> None:
        self.backends = backends
        if self._next >= len(backends):
            self._next = 0
        self._wrap_due.discard(self)

    def handle(self, request):
        if not self.backends:  # pragma: no cover - port closes first
            raise RuntimeError("no backends")
        backend = self.backends[self._next % len(self.backends)]
        self._next += 1
        if self._next >= len(self.backends):
            self._wrap_due.add(self)
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
        #: Binding -> (opened node port, binding sequence number).
        self._bound: dict[_Key, tuple[int, int]] = {}
        self._bind_seq = itertools.count()
        #: Binding -> the balancer serving that port.
        self._balancers: dict[_Key, RoundRobinBalancer] = {}
        #: Balancers whose rotation the next resync restarts.
        self._wrap_due: set[RoundRobinBalancer] = set()
        #: Objects written since the last resync, by uid.
        self._changed_pods = api.journal("Pod")
        self._changed_services = api.journal("Service")
        #: Selector index: pair -> the services (by uid) keyed under it,
        #: and service uid -> its pair.  Any one pair of a selector finds
        #: the service from a pod carrying it (the rarest is kept); the
        #: empty selector, which every pod carries, is keyed under None.
        self._selectors: dict[tuple[str, str] | None, dict[str, Service]] = {}
        self._indexed: dict[str, tuple[str, str] | None] = {}
        #: Service uid -> its bindings as last derived: binding -> (node
        #: port, backend apps), in (port, node) order.
        self._desired: dict[str, dict[_Key, tuple[int, list[_t.Any]]]] = {}
        #: Pod uid -> the services (uids) it was last seen backing.
        self._serving: dict[str, set[str]] = {}
        self._queue: Store = Store(env)
        api.subscribe("Service", self._watch)
        api.subscribe("Pod", self._watch)
        env.spawn(self._worker(), name="kubeproxy-worker")

    def _watch(self, event: WatchEvent) -> None:
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
        """One resync: bring every binding to what the live store asks
        for, visiting only the services the journals name."""
        dirty = self._drain_journals()
        if dirty:
            self._reprogram(sorted(dirty))
        for balancer in self._wrap_due:
            balancer._next = 0
        self._wrap_due.clear()

    def _drain_journals(self) -> set[str]:
        """Uids of the services whose bindings may differ from the last
        resync's: every written service, and for every written pod the
        services it backed then and those selecting it now."""
        dirty = set(self._changed_services)
        for uid in self._changed_services:
            if uid in self._indexed:
                pair = self._indexed.pop(uid)
                del self._selectors[pair][uid]
                if not self._selectors[pair]:
                    del self._selectors[pair]
            service = self.api.by_uid_nowait("Service", uid)
            if service is not None:
                pair = min(
                    service.spec.selector.items(),
                    key=lambda pair: (len(self._selectors.get(pair, ())), pair),
                    default=None,
                )
                self._selectors.setdefault(pair, {})[uid] = service
                self._indexed[uid] = pair
        for uid in self._changed_pods:
            dirty.update(self._serving.pop(uid, ()))
            pod = self.api.by_uid_nowait("Pod", uid)
            if pod is None or not pod.status.ready or pod.spec.node_name is None:
                continue
            labels = pod.metadata.labels
            for pair in (None, *labels.items()):
                for service_uid, service in self._selectors.get(pair, {}).items():
                    if matches_selector(labels, service.spec.selector):
                        dirty.add(service_uid)
        self._changed_services.clear()
        self._changed_pods.clear()
        return dirty

    def _reprogram(self, service_uids: list[str]) -> None:
        """Re-derive these services' bindings (uid order) and apply the
        difference: closes first, oldest binding first, then opens and
        backend refreshes in (service uid, port, node) order."""
        stale: list[_Key] = []
        for uid in service_uids:
            desired = self._derive(uid)
            for key in self._desired.pop(uid, ()):
                # Gone, or its node port changed (closed and reopened).
                if key not in desired or desired[key][0] != self._bound[key][0]:
                    stale.append(key)
            if desired:
                self._desired[uid] = desired

        for key in sorted(stale, key=lambda key: self._bound[key][1]):
            node_port, _ = self._bound.pop(key)
            self._balancers.pop(key, None)
            kubelet = self.kubelets.get(key[1])
            if kubelet is not None and kubelet.node_host.port_is_open(node_port):
                kubelet.node_host.close_port(node_port)

        for uid in service_uids:
            for key, (node_port, apps) in self._desired.get(uid, {}).items():
                kubelet = self.kubelets[key[1]]
                balancer = self._balancers.get(key)
                if balancer is None:
                    balancer = RoundRobinBalancer(self._wrap_due)
                    self._balancers[key] = balancer
                balancer.set_backends(apps)
                if key not in self._bound:
                    if not kubelet.node_host.port_is_open(node_port):
                        kubelet.node_host.open_port(node_port, balancer)
                    self._bound[key] = (node_port, next(self._bind_seq))

    def _derive(self, service_uid: str) -> dict[_Key, tuple[int, list[_t.Any]]]:
        """What the live store asks of one service: binding -> (node
        port, backend apps) over its ready, bound pods in uid order; a
        later port of the service wins a node it shares with an earlier
        one.  Readiness and binding are read live — kubelet and
        scheduler write them in place before their ``update``."""
        desired: dict[_Key, tuple[int, list[_t.Any]]] = {}
        service = self.api.by_uid_nowait("Service", service_uid)
        if service is None:
            return desired
        pods = [
            pod
            for pod in self.api.list_nowait(
                "Pod", namespace=None, selector=service.spec.selector
            )
            if pod.status.ready and pod.spec.node_name is not None
        ]
        for pod in pods:
            self._serving.setdefault(pod.metadata.uid, set()).add(service_uid)
        for port in service.spec.ports:
            if port.node_port is None:
                continue
            for node_name, apps in self._backends(port.target_port, pods).items():
                desired[(service_uid, node_name)] = (port.node_port, apps)
        return desired

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
