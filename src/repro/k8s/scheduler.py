"""The kube-scheduler, with pluggable policies.

§IV-B: "With a Kubernetes cluster, the K8s scheduler might represent
the Local Scheduler; however, we might also use a different one ...
for Kubernetes, we can even define a custom scheduler to be used for
our edge services only."  A :class:`KubeScheduler` only binds pods
whose ``spec.scheduler_name`` equals its own name, so several
schedulers coexist — the hook the paper's annotator uses when a Local
Scheduler is configured for a cluster.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.k8s.apiserver import APIServer, NotFound, WatchEvent
from repro.k8s.objects import Pod
from repro.sim import Environment, Store


@dataclasses.dataclass(frozen=True)
class NodeInfo:
    """What a scheduling policy sees about one node."""

    name: str
    pod_count: int


#: Backoff before retrying a pod no node could take.
UNSCHEDULABLE_RETRY_S = 5.0

#: A policy maps (pod, nodes) to the chosen node name (or None).
SchedulingPolicy = _t.Callable[[Pod, _t.Sequence[NodeInfo]], str | None]


def least_pods_policy(pod: Pod, nodes: _t.Sequence[NodeInfo]) -> str | None:
    """Default policy: the node with the fewest pods, ties by name."""
    if not nodes:
        return None
    best = min(nodes, key=lambda n: (n.pod_count, n.name))
    return best.name


class KubeScheduler:
    """Binds pending pods to nodes."""

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        node_names: _t.Sequence[str],
        name: str = "default-scheduler",
        policy: SchedulingPolicy = least_pods_policy,
    ) -> None:
        self.env = env
        self.api = api
        self.name = name
        self.policy = policy
        self._node_names = list(node_names)
        self._queue: Store = Store(env)
        api.subscribe("Pod", self._watch_pods)
        env.spawn(self._worker(), name=f"sched-{name}-worker")

    def register_node(self, name: str) -> None:
        if name not in self._node_names:
            self._node_names.append(name)

    def _watch_pods(self, event: WatchEvent) -> None:
        pod: Pod = event.obj
        if (
            event.type in ("ADDED", "MODIFIED")
            and pod.spec.node_name is None
            and pod.spec.scheduler_name == self.name
        ):
            self._queue.put(pod.metadata.key)

    def _node_infos(self) -> list[NodeInfo]:
        pods = self.api.list_nowait("Pod", namespace=None)
        counts = {name: 0 for name in self._node_names}
        for pod in pods:
            if pod.spec.node_name in counts:
                counts[pod.spec.node_name] += 1
        return [NodeInfo(name, counts[name]) for name in self._node_names]

    def _worker(self):
        while True:
            key = yield self._queue.get()
            namespace, name = key
            # The sync delay and the read are one heap entry.
            pod = yield from self.api.try_get(
                "Pod", name, namespace, lead=self.api.profile.scheduler_sync_s
            )
            if pod is None or pod.spec.node_name is not None:
                continue
            choice = self.policy(pod, self._node_infos())
            if choice is None:
                # Unschedulable now: retry with backoff (nodes may join,
                # pods may leave).
                self.env.spawn(
                    self._requeue_later(key), name=f"sched-{self.name}-retry"
                )
                continue
            yield self.env.timeout(self.api.profile.bind_latency_s)
            pod.spec.node_name = choice
            self.api.touch(pod)  # an in-place write: see APIServer.touch
            try:
                yield from self.api.update(pod)
            except NotFound:
                pass  # deleted while the bind was under way

    def _requeue_later(self, key):
        yield self.env.timeout(UNSCHEDULABLE_RETRY_S)
        self._queue.put(key)
