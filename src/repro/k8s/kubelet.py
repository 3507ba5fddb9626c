"""The kubelet: runs pods bound to its node via containerd.

Pod startup (the fig. 11 K8s Scale-Up critical path through the node):

1. pod-worker wakeup after the binding watch event (the Pod handler
   queues the pod for the worker where the event is delivered),
2. sandbox creation — pause container, cgroups, CNI network setup,
3. per container: image presence check (pulling from the cluster's
   registry if missing), create, start,
4. wait for every container's application to finish booting,
5. status-manager batches the Running/Ready update to the API server.

A housekeeping loop (``kubelet_loop_period_s``) re-reconciles pods in
case a watch event was missed, mirroring the kubelet's sync loop.

Readiness is written in place on the stored pod ahead of its
``update``; each such write, and each change to ``pod_containers``
(what :meth:`Kubelet.ready_app_for` answers from), is announced with
``api.touch(pod)`` in the same step — kube-proxy resyncs from that.
"""

from __future__ import annotations

import typing as _t

from repro.containers.containerd import (
    Container,
    Containerd,
    ContainerSpec,
    NodeDown,
    PullError,
)
from repro.containers.registry import Registry
from repro.k8s.apiserver import APIServer, NotFound, WatchEvent
from repro.k8s.objects import ContainerDef, Pod
from repro.sim import AllOf, Environment, Store

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Host


class Kubelet:
    """Node agent for one cluster node."""

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        node_name: str,
        node_host: "Host",
        runtime: Containerd,
        image_registry: Registry,
    ) -> None:
        self.env = env
        self.api = api
        self.node_name = node_name
        self.node_host = node_host
        self.runtime = runtime
        self.image_registry = image_registry
        #: pod uid -> containers it runs.
        self.pod_containers: dict[str, list[Container]] = {}
        self._starting: set[str] = set()
        self._queue: Store = Store(env)
        api.subscribe("Pod", self._watch_pods)
        env.spawn(self._worker(), name=f"kubelet-{node_name}-worker")
        env.spawn(self._housekeeping(), name=f"kubelet-{node_name}-loop")

    # -- event intake ------------------------------------------------------

    def _watch_pods(self, event: WatchEvent) -> None:
        pod: Pod = event.obj
        if event.type == "DELETED":
            if pod.metadata.uid in self.pod_containers:
                self._queue.put(("teardown", pod))
        elif pod.spec.node_name == self.node_name:
            self._queue.put(("sync", pod.metadata.key))

    def _housekeeping(self):
        period = self.api.profile.kubelet_loop_period_s
        while True:
            yield self.env.timeout(period)
            for pod in self.api.list_nowait("Pod", namespace=None):
                if (
                    pod.spec.node_name == self.node_name
                    and pod.status.phase == "Pending"
                    and pod.metadata.uid not in self._starting
                ):
                    self._queue.put(("sync", pod.metadata.key))

    def _worker(self):
        while True:
            action, payload = yield self._queue.get()
            if action == "teardown":
                yield from self._teardown_pod(payload)
                continue
            namespace, name = payload
            pod = yield from self.api.try_get("Pod", name, namespace)
            if pod is None or pod.spec.node_name != self.node_name:
                continue
            uid = pod.metadata.uid
            if pod.status.phase != "Pending" or uid in self._starting:
                continue
            self._starting.add(uid)
            # Pod startups run concurrently (one pod worker each).  Hot
            # when its first act is the sync timer (as the boot in
            # ``Containerd.start``; a zero one would overtake this step's
            # pushes).
            self.env.spawn(
                self._start_pod(pod),
                name=f"podworker:{pod.metadata.name}",
                hot=self.api.profile.kubelet_sync_s > 0,
            )

    # -- pod lifecycle --------------------------------------------------------

    def _start_pod(self, pod: Pod):
        profile = self.api.profile
        # The sync, the sandbox and the first container's image check
        # are one entry: nothing is read or written between them.
        first_check = (profile.image_check_s,) if pod.spec.containers else ()
        yield self.env.delays(
            profile.kubelet_sync_s, profile.sandbox_setup_s, *first_check
        )

        containers: list[Container] = []
        try:
            for index, cdef in enumerate(pod.spec.containers):
                if index:
                    yield self.env.timeout(profile.image_check_s)
                if not self.runtime.images.has_image(cdef.image.reference):
                    yield from self.runtime.pull(cdef.image, self.image_registry)
                spec = self._container_spec(pod, cdef)
                container = yield from self.runtime.create(spec)
                yield from self.runtime.start(container)
                containers.append(container)
        except (NodeDown, PullError):
            # Node crashed or registry is out: leave the pod Pending —
            # the housekeeping loop re-reconciles it on its next sync.
            for container in containers:
                self.runtime.kill(container)
            self._starting.discard(pod.metadata.uid)
            return
        self.pod_containers[pod.metadata.uid] = containers
        self.api.touch(pod)

        # A lone pending ``ready`` is waited on directly: the pod goes on
        # at its pop, one pop before an ``AllOf`` of one would have.
        ready_events = [c.ready for c in containers if not c.ready.triggered]
        if len(ready_events) == 1:
            yield ready_events[0]
        elif ready_events:
            yield AllOf(self.env, ready_events)

        pod.status.phase = "Running"
        pod.status.ready = True
        pod.status.host = self.node_name
        pod.status.started_at = self.env.now
        self.api.touch(pod)
        yield self.env.timeout(profile.status_update_s)
        self._starting.discard(pod.metadata.uid)
        current = yield from self.api.try_get(
            "Pod", pod.metadata.name, pod.metadata.namespace
        )
        if current is pod and (yield from self._update_status(pod)):
            for container in containers:
                # Hot: its first act waits on ``exited``, which nothing
                # else waits on, or, once that has popped, acts at once —
                # here instead of at its start entry's pop, which would
                # have been next: this loop is the last act of a step
                # resumed by a popped timer, and pushes nothing urgent.
                self.env.spawn(
                    self._restart_monitor(pod, container),
                    name=f"restart-mon:{container.spec.name}",
                    hot=True,
                )
        else:
            # Pod was deleted while starting: clean up.
            yield from self._teardown_pod(pod)

    #: Crash-loop backoff before restarting a failed container.
    RESTART_BACKOFF_S = 1.0

    def _restart_monitor(self, pod: Pod, container: Container):
        """restartPolicy: Always — bring crashed containers back."""
        while True:
            yield container.exited
            if pod.metadata.uid not in self.pod_containers:
                return  # pod torn down
            # The pod lost readiness until the container is back.
            pod.status.ready = False
            self.api.touch(pod)
            if not (yield from self._update_status(pod)):
                return
            yield self.env.timeout(self.RESTART_BACKOFF_S)
            if pod.metadata.uid not in self.pod_containers:
                return
            while True:
                try:
                    yield from self.runtime.start(container)
                    break
                except NodeDown:
                    # Node is crashed; keep backing off until it returns.
                    yield self.env.timeout(self.RESTART_BACKOFF_S)
                    if pod.metadata.uid not in self.pod_containers:
                        return
            yield container.ready
            others = self.pod_containers.get(pod.metadata.uid, [])
            if all(c.state.value == "running" for c in others):
                pod.status.ready = True
                self.api.touch(pod)
                yield self.env.timeout(self.api.profile.status_update_s)
                yield from self._update_status(pod)

    def _update_status(self, pod: Pod):
        """``update(pod)`` (generator); False if the pod was deleted
        while the request was under way — its teardown is on its way."""
        try:
            yield from self.api.update(pod)
        except NotFound:
            return False
        return True

    def _container_spec(self, pod: Pod, cdef: ContainerDef) -> ContainerSpec:
        return ContainerSpec(
            name=f"{pod.metadata.name}/{cdef.name}",
            image=cdef.image,
            boot_time_s=cdef.boot_time_s,
            container_port=cdef.container_port,
            host_port=None,  # node ports are kube-proxy's job
            app_factory=cdef.app_factory,
            crash_after_s=cdef.crash_after_s,
            labels={"io.kubernetes.pod.uid": pod.metadata.uid, **pod.metadata.labels},
            env_vars=dict(cdef.env),
            mounts=dict(cdef.volume_mounts),
        )

    def _teardown_pod(self, pod: Pod):
        containers = self.pod_containers.pop(pod.metadata.uid, [])
        self.api.touch(pod)
        self._starting.discard(pod.metadata.uid)
        for container in containers:
            yield from self.runtime.remove(container)

    # -- queries ------------------------------------------------------------------

    def ready_app_for(self, pod: Pod, target_port: int):
        """The booted app of the pod's container listening on ``target_port``."""
        for container in self.pod_containers.get(pod.metadata.uid, []):
            if container.spec.container_port == target_port and container.app is not None:
                return container.app
        return None
