"""The Kubernetes edge cluster adapter.

Phase mapping (fig. 4): Create = create an (annotated) Deployment with
**zero replicas** plus a NodePort Service; Scale Up = patch the
replica count to 1; Scale Down = back to 0; Remove = delete both
objects.  The adapter builds the Kubernetes manifests from the
cluster-neutral plan, applying the paper's automatic annotation rules
(§V): unique name, ``matchLabels``, the ``edge.service`` label,
``replicas: 0``, and ``schedulerName`` when a Local Scheduler is
configured for this cluster.

The phase order, the port table and readiness are
:class:`~repro.cluster.base.EdgeCluster`'s; only the API-server calls
live here.
"""

from __future__ import annotations

from repro.cluster.base import EdgeCluster
from repro.cluster.plan import DeploymentPlan
from repro.containers.containerd import Containerd
from repro.k8s.client import KubernetesClient
from repro.k8s.cluster import KubernetesCluster
from repro.k8s.objects import (
    ContainerDef,
    Deployment,
    DeploymentSpec,
    ObjectMeta,
    PodSpec,
    PodTemplateSpec,
    Service,
    ServicePort,
    ServiceSpec,
)
from repro.sim import Environment

#: Client-side cost of submitting the manifests (validation,
#: defaulting, server-side admission) — makes Create visible in fig. 12
#: as the paper's ~100 ms.
CREATE_OVERHEAD_S = 0.070


class K8sEdgeCluster(EdgeCluster):
    """Edge cluster backed by a (simulated) Kubernetes cluster."""

    #: First NodePort handed out.
    PORT_BASE = 30000

    def __init__(
        self,
        env: Environment,
        name: str,
        cluster: KubernetesCluster,
        node_name: str,
        distance: int = 0,
        local_scheduler: str | None = None,
    ) -> None:
        kubelet = cluster.kubelets[node_name]
        super().__init__(env, name, kubelet.node_host, distance)
        self.cluster = cluster
        self.node_name = node_name
        self.client = KubernetesClient(cluster.api)
        self.local_scheduler = local_scheduler
        self._runtime = kubelet.runtime

    # -- runtime steps ------------------------------------------------------

    def pull(self, plan: DeploymentPlan):
        # Pre-pull onto the node (kubelet would otherwise pull lazily
        # during pod startup).
        for image in plan.images:
            yield from self._runtime.pull(image, self.cluster.image_registry)

    def _create_instance(self, plan: DeploymentPlan, port: int):
        deployment = self.build_deployment(plan)
        service = self.build_service(plan, port)
        yield self.env.timeout(CREATE_OVERHEAD_S)
        yield from self.client.create_deployment(deployment)
        yield from self.client.create_service(service)

    def _start_instance(self, plan: DeploymentPlan):
        yield from self.client.scale_deployment(plan.service_name, 1)

    def scale_down(self, plan: DeploymentPlan):
        yield from self.client.scale_deployment(plan.service_name, 0)

    def _remove_instance(self, plan: DeploymentPlan):
        yield from self.client.delete_deployment(plan.service_name)
        yield from self.client.delete_service(plan.service_name)

    def delete_images(self, plan: DeploymentPlan):
        freed = 0
        for image in plan.images:
            freed += self._runtime.delete_image(image.reference)
            yield self.env.timeout(0.0)
        return freed

    # -- state ------------------------------------------------------------------

    def image_cached(self, plan: DeploymentPlan) -> bool:
        return all(
            self._runtime.images.has_image(i.reference) for i in plan.images
        )

    def is_created(self, plan: DeploymentPlan) -> bool:
        return (
            self.cluster.api.list_nowait(
                "Deployment", selector={"edge.service": plan.service_name}
            )
            != []
        )

    def running_services(self) -> set[str]:
        return {
            pod.metadata.labels["edge.service"]
            for pod in self.cluster.api.list_nowait("Pod", namespace=None)
            if pod.status.ready and "edge.service" in pod.metadata.labels
        }

    @property
    def runtimes(self) -> tuple[Containerd, ...]:
        # The node's runtime first, then the other kubelets' in join order.
        return (self._runtime,) + tuple(
            kubelet.runtime
            for kubelet in self.cluster.kubelets.values()
            if kubelet.runtime is not self._runtime
        )

    # -- manifest construction (automatic annotation, §V) ---------------------------

    def build_deployment(self, plan: DeploymentPlan) -> Deployment:
        labels = {"edge.service": plan.service_name, **plan.labels}
        containers = [
            ContainerDef(
                name=planned.name,
                image=planned.image,
                container_port=planned.container_port,
                boot_time_s=planned.boot_time_s,
                app_factory=planned.app_factory,
                crash_after_s=planned.crash_after_s,
                env=dict(planned.env),
                volume_mounts=dict(planned.volume_mounts),
            )
            for planned in plan.containers
        ]
        scheduler = (
            plan.scheduler_name
            or self.local_scheduler
            or "default-scheduler"
        )
        return Deployment(
            metadata=ObjectMeta(name=plan.service_name, labels=labels),
            spec=DeploymentSpec(
                replicas=0,  # "scale to zero" by default (§V)
                selector=dict(labels),
                template=PodTemplateSpec(
                    labels=dict(labels),
                    spec=PodSpec(containers=containers, scheduler_name=scheduler),
                ),
            ),
        )

    def build_service(self, plan: DeploymentPlan, node_port: int) -> Service:
        labels = {"edge.service": plan.service_name, **plan.labels}
        return Service(
            metadata=ObjectMeta(name=plan.service_name, labels=labels),
            spec=ServiceSpec(
                selector=dict(labels),
                ports=[
                    ServicePort(
                        port=plan.target_port,
                        target_port=plan.target_port,
                        protocol="TCP",
                        node_port=node_port,
                    )
                ],
            ),
        )
