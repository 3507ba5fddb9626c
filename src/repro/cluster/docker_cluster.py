"""The Docker edge "cluster": a single engine on one host.

Phase mapping (fig. 4): Create = ``docker create`` per container,
Scale Up = ``docker start`` per container, Scale Down = ``docker
stop``, Remove = ``docker rm``.  Containers are labelled with
``edge.service`` so the controller can query them distinctly (§V).

The phase order, the port table and readiness are
:class:`~repro.cluster.base.EdgeCluster`'s; only the engine calls live
here.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.base import DeployError, EdgeCluster
from repro.cluster.plan import DeploymentPlan, PlannedContainer
from repro.containers.containerd import Container, Containerd, ContainerSpec, ContainerState
from repro.containers.docker import DockerEngine
from repro.containers.registry import Registry
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Host


class DockerCluster(EdgeCluster):
    """Edge cluster backed by one Docker engine."""

    #: First host port a service's container is published on.
    PORT_BASE = 20000

    def __init__(
        self,
        env: Environment,
        name: str,
        host: "Host",
        engine: DockerEngine,
        image_registry: Registry,
        distance: int = 0,
        capacity: int | None = None,
    ) -> None:
        super().__init__(env, name, host, distance, capacity)
        self.engine = engine
        self.image_registry = image_registry
        self._containers: dict[str, list[Container]] = {}

    # -- runtime steps ------------------------------------------------------

    def pull(self, plan: DeploymentPlan):
        for image in plan.images:
            yield from self.engine.pull(image, self.image_registry)

    def _check_create(self, plan: DeploymentPlan) -> None:
        if not self.image_cached(plan):
            raise DeployError(
                f"{self.name}: images of {plan.service_name!r} not pulled"
            )

    def _create_instance(self, plan: DeploymentPlan, port: int):
        created: list[Container] = []
        for planned in plan.containers:
            spec = self._container_spec(plan, planned, port)
            container = yield from self.engine.create_container(spec)
            created.append(container)
        self._containers[plan.service_name] = created

    def _start_instance(self, plan: DeploymentPlan):
        # Containers start sequentially through the engine API, as the
        # controller's Docker client does.
        for container in self._containers[plan.service_name]:
            if container.state in (ContainerState.CREATED, ContainerState.EXITED):
                yield from self.engine.start_container(container)

    def scale_down(self, plan: DeploymentPlan):
        for container in self._containers.get(plan.service_name, []):
            yield from self.engine.stop_container(container)

    def _remove_instance(self, plan: DeploymentPlan):
        containers = self._containers.pop(plan.service_name, [])
        for container in containers:
            yield from self.engine.remove_container(container)

    def delete_images(self, plan: DeploymentPlan):
        freed = 0
        for image in plan.images:
            freed += yield from self.engine.remove_image(image.reference)
        return freed

    # -- state ------------------------------------------------------------------

    def image_cached(self, plan: DeploymentPlan) -> bool:
        return all(self.engine.image_cached(i.reference) for i in plan.images)

    def is_created(self, plan: DeploymentPlan) -> bool:
        return plan.service_name in self._containers

    def running_services(self) -> set[str]:
        return {
            name
            for name, containers in self._containers.items()
            if any(c.state is ContainerState.RUNNING for c in containers)
        }

    @property
    def runtimes(self) -> tuple[Containerd, ...]:
        return (self.engine.runtime,)

    # -- helpers ------------------------------------------------------------------

    def _container_spec(
        self, plan: DeploymentPlan, planned: PlannedContainer, host_port: int
    ) -> ContainerSpec:
        serves = planned.container_port == plan.target_port
        return ContainerSpec(
            name=f"{plan.service_name}.{planned.name}",
            image=planned.image,
            boot_time_s=planned.boot_time_s,
            container_port=planned.container_port,
            host_port=host_port if serves else None,
            app_factory=planned.app_factory,
            crash_after_s=planned.crash_after_s,
            labels={"edge.service": plan.service_name, **plan.labels},
            env_vars=dict(planned.env),
            mounts=dict(planned.volume_mounts),
        )
