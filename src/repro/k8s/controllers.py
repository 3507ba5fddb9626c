"""Deployment and ReplicaSet controllers (the controller manager).

Both follow the informer + work-queue pattern: event handlers the API
server calls with each watch event enqueue object keys; a single worker
dequeues, pays the sync delay, and reconciles desired versus observed
state through the API server.  The sync delay and a reconcile's first
read are one heap entry: nothing is read or written between them.
"""

from __future__ import annotations

import itertools

from repro.k8s.apiserver import APIServer, Conflict, NotFound, WatchEvent
from repro.k8s.objects import (
    Deployment,
    ObjectMeta,
    Pod,
    PodSpec,
    ReplicaSet,
    ReplicaSetSpec,
)
from repro.sim import Environment, Store

_pod_suffix = itertools.count(1)


class DeploymentController:
    """Ensures each Deployment owns one ReplicaSet with the desired
    replica count (no rollout history — the paper never updates images
    in place)."""

    def __init__(self, env: Environment, api: APIServer) -> None:
        self.env = env
        self.api = api
        self._queue: Store = Store(env)
        api.subscribe("Deployment", self._watch_deployments)
        api.subscribe("ReplicaSet", self._watch_replicasets)
        env.spawn(self._worker(), name="depctl-worker")

    def _watch_deployments(self, event: WatchEvent) -> None:
        if event.type == "DELETED":
            self._queue.put(("delete", event.obj))
        else:
            self._queue.put(("sync", event.obj.metadata.key))

    def _watch_replicasets(self, event: WatchEvent) -> None:
        owner = event.obj.metadata.owner_uid
        if owner is None or event.type == "DELETED":
            return
        dep = self.api.by_uid_nowait("Deployment", owner)
        if dep is not None:
            self._queue.put(("sync", dep.metadata.key))

    def _worker(self):
        while True:
            action, payload = yield self._queue.get()
            sync_s = self.api.profile.deployment_sync_s
            if action == "delete":
                # The cascade reads the store at the sync's end.
                yield self.env.timeout(sync_s)
                yield from self._cascade_delete(payload)
            else:
                yield from self._reconcile(payload, sync_s)

    def _reconcile(self, key: tuple[str, str], sync_s: float):
        """Reconcile ``key``, whose first read is issued once the sync
        delay ``sync_s`` has passed (one entry: ``APIServer.try_get``)."""
        namespace, name = key
        deployment = yield from self.api.try_get("Deployment", name, namespace, lead=sync_s)
        if deployment is None:
            return
        rs_name = f"{name}-rs"
        rs = yield from self.api.try_get("ReplicaSet", rs_name, namespace)
        if rs is None:
            rs = ReplicaSet(
                metadata=ObjectMeta(
                    name=rs_name,
                    namespace=namespace,
                    labels=dict(deployment.spec.selector),
                    owner_uid=deployment.metadata.uid,
                ),
                spec=ReplicaSetSpec(
                    replicas=deployment.spec.replicas,
                    selector=dict(deployment.spec.selector),
                    template=deployment.spec.template,
                ),
            )
            try:
                yield from self.api.create(rs)
            except Conflict:  # lost a race with ourselves; resync
                return
        elif rs.spec.replicas != deployment.spec.replicas:
            rs.spec.replicas = deployment.spec.replicas
            try:
                yield from self.api.update(rs)
            except NotFound:
                pass  # deleted while the update was under way

    def _cascade_delete(self, deployment: Deployment):
        namespace = deployment.metadata.namespace
        for rs in self.api.list_nowait(
            "ReplicaSet", namespace, owner_uid=deployment.metadata.uid
        ):
            try:
                yield from self.api.delete("ReplicaSet", rs.metadata.name, namespace)
            except KeyError:
                pass


class ReplicaSetController:
    """Creates and deletes Pods to match each ReplicaSet's replica count."""

    def __init__(self, env: Environment, api: APIServer) -> None:
        self.env = env
        self.api = api
        self._queue: Store = Store(env)
        api.subscribe("ReplicaSet", self._watch_replicasets)
        api.subscribe("Pod", self._watch_pods)
        env.spawn(self._worker(), name="rsctl-worker")

    def _watch_replicasets(self, event: WatchEvent) -> None:
        if event.type == "DELETED":
            self._queue.put(("delete", event.obj))
        else:
            self._queue.put(("sync", event.obj.metadata.key))

    def _watch_pods(self, event: WatchEvent) -> None:
        owner = event.obj.metadata.owner_uid
        if owner is None:
            return
        rs = self.api.by_uid_nowait("ReplicaSet", owner)
        if rs is not None:
            self._queue.put(("sync", rs.metadata.key))

    def _worker(self):
        while True:
            action, payload = yield self._queue.get()
            sync_s = self.api.profile.replicaset_sync_s
            if action == "delete":
                # The cascade reads the store at the sync's end.
                yield self.env.timeout(sync_s)
                yield from self._cascade_delete(payload)
            else:
                yield from self._reconcile(payload, sync_s)

    def _pods_of(self, rs: ReplicaSet) -> list[Pod]:
        pods = self.api.list_nowait(
            "Pod", rs.metadata.namespace, owner_uid=rs.metadata.uid
        )
        # The kubelet writes the phase in place: read it, never index it.
        return [p for p in pods if p.status.phase not in ("Succeeded", "Failed")]

    def _reconcile(self, key: tuple[str, str], sync_s: float):
        """Reconcile ``key`` after the sync delay, as the deployment
        controller does."""
        namespace, name = key
        rs = yield from self.api.try_get("ReplicaSet", name, namespace, lead=sync_s)
        if rs is None:
            return
        pods = self._pods_of(rs)
        desired = rs.spec.replicas
        if len(pods) < desired:
            for _ in range(desired - len(pods)):
                pod = Pod(
                    metadata=ObjectMeta(
                        name=f"{name}-{next(_pod_suffix):05d}",
                        namespace=namespace,
                        labels=dict(rs.spec.template.labels),
                        owner_uid=rs.metadata.uid,
                    ),
                    spec=PodSpec(
                        containers=list(rs.spec.template.spec.containers),
                        scheduler_name=rs.spec.template.spec.scheduler_name,
                    ),
                )
                yield from self.api.create(pod)
        elif len(pods) > desired:
            # Prefer evicting pods that are not yet ready, then youngest.
            victims = sorted(
                pods,
                key=lambda p: (
                    p.status.ready,
                    -(p.metadata.creation_time or 0.0),
                ),
            )[: len(pods) - desired]
            for pod in victims:
                try:
                    yield from self.api.delete("Pod", pod.metadata.name, namespace)
                except KeyError:
                    pass

    def _cascade_delete(self, rs: ReplicaSet):
        for pod in self._pods_of(rs):
            try:
                yield from self.api.delete(
                    "Pod", pod.metadata.name, rs.metadata.namespace
                )
            except KeyError:
                pass
