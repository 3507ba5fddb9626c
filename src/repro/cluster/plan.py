"""The cluster-neutral deployment plan.

The annotator (:mod:`repro.core.annotator`) turns a developer's YAML
service definition into a :class:`DeploymentPlan`; every cluster
adapter can execute the same plan — "It does not matter whether the
edge cluster is running Docker or Kubernetes – we use the same service
definition for both" (§V).  The phases that execute it are
:class:`repro.cluster.base.EdgeCluster`'s.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.containers.image import ImageSpec
from repro.net.addressing import IPv4Address

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Application
    from repro.sim import Environment


class DeployError(RuntimeError):
    """A deployment phase failed (missing image, bad state, timeout)."""


class ServiceEndpoint(_t.NamedTuple):
    """Where a running service instance answers: an ``(ip, port)`` tuple."""

    ip: IPv4Address
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclasses.dataclass(frozen=True)
class PlannedContainer:
    """One container of the planned service instance."""

    name: str
    image: ImageSpec
    container_port: int | None = None
    boot_time_s: float = 0.0
    app_factory: _t.Callable[["Environment"], "Application"] | None = None
    env: dict[str, str] = dataclasses.field(default_factory=dict)
    volume_mounts: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Failure injection (tests): crash this long after becoming ready.
    crash_after_s: float | None = None


@dataclasses.dataclass(frozen=True)
class DeploymentPlan:
    """Everything a cluster adapter needs to run one edge service."""

    #: The automatically assigned, worldwide-unique service name (§V).
    service_name: str
    #: Labels, always including ``edge.service`` for distinct querying.
    labels: dict[str, str]
    containers: tuple[PlannedContainer, ...]
    #: The container port clients are served from (Service targetPort).
    target_port: int
    #: Scheduler to use inside Kubernetes clusters (Local Scheduler).
    scheduler_name: str | None = None

    def __post_init__(self) -> None:
        if not self.containers:
            raise ValueError("a deployment plan needs at least one container")
        if "edge.service" not in self.labels:
            raise ValueError("plan labels must include 'edge.service'")
        if not any(
            c.container_port == self.target_port for c in self.containers
        ):
            raise ValueError(
                f"no container exposes target port {self.target_port}"
            )

    @property
    def images(self) -> tuple[ImageSpec, ...]:
        return tuple(c.image for c in self.containers)

    @property
    def serving_container(self) -> PlannedContainer:
        for container in self.containers:
            if container.container_port == self.target_port:
                return container
        raise AssertionError("validated in __post_init__")
