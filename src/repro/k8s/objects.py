"""Kubernetes API object model (the subset the paper's system uses).

Deployments, ReplicaSets, Pods, and Services with label selectors —
enough to express the service-definition files of §V, the automated
annotation, and the 0→N scale operations of the deployment phases.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.containers.image import ImageSpec

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Application
    from repro.sim import Environment

_uids = itertools.count(1)


def new_uid() -> str:
    return f"uid-{next(_uids):08d}"


def matches_selector(labels: _t.Mapping[str, str], selector: _t.Mapping[str, str]) -> bool:
    """Kubernetes equality-based selector semantics."""
    for key, value in selector.items():
        if labels.get(key) != value:
            return False
    return True


@dataclasses.dataclass
class ObjectMeta:
    """Standard object metadata."""

    name: str
    namespace: str = "default"
    labels: dict[str, str] = dataclasses.field(default_factory=dict)
    annotations: dict[str, str] = dataclasses.field(default_factory=dict)
    uid: str = dataclasses.field(default_factory=new_uid)
    resource_version: int = 0
    creation_time: float | None = None
    #: uid of the owning object (RS for pods, Deployment for RS).
    owner_uid: str | None = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.namespace, self.name)


@dataclasses.dataclass
class ContainerDef:
    """One container in a pod template."""

    name: str
    image: ImageSpec
    container_port: int | None = None
    env: dict[str, str] = dataclasses.field(default_factory=dict)
    volume_mounts: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Boot/behaviour model attached by the service catalog.
    boot_time_s: float = 0.0
    app_factory: _t.Callable[["Environment"], "Application"] | None = None
    #: Failure injection (tests): crash this long after becoming ready.
    crash_after_s: float | None = None


@dataclasses.dataclass
class PodSpec:
    containers: list[ContainerDef] = dataclasses.field(default_factory=list)
    node_name: str | None = None
    scheduler_name: str = "default-scheduler"


@dataclasses.dataclass
class PodStatus:
    phase: str = "Pending"  # Pending | Running | Succeeded | Failed
    ready: bool = False
    host: str | None = None
    started_at: float | None = None


@dataclasses.dataclass
class Pod:
    metadata: ObjectMeta
    spec: PodSpec
    status: PodStatus = dataclasses.field(default_factory=PodStatus)
    kind: _t.ClassVar[str] = "Pod"


@dataclasses.dataclass
class PodTemplateSpec:
    labels: dict[str, str] = dataclasses.field(default_factory=dict)
    spec: PodSpec = dataclasses.field(default_factory=PodSpec)


@dataclasses.dataclass
class DeploymentSpec:
    replicas: int = 0
    selector: dict[str, str] = dataclasses.field(default_factory=dict)
    template: PodTemplateSpec = dataclasses.field(default_factory=PodTemplateSpec)


@dataclasses.dataclass
class DeploymentStatus:
    replicas: int = 0
    ready_replicas: int = 0


@dataclasses.dataclass
class Deployment:
    metadata: ObjectMeta
    spec: DeploymentSpec
    status: DeploymentStatus = dataclasses.field(default_factory=DeploymentStatus)
    kind: _t.ClassVar[str] = "Deployment"


@dataclasses.dataclass
class ReplicaSetSpec:
    replicas: int = 0
    selector: dict[str, str] = dataclasses.field(default_factory=dict)
    template: PodTemplateSpec = dataclasses.field(default_factory=PodTemplateSpec)


@dataclasses.dataclass
class ReplicaSet:
    metadata: ObjectMeta
    spec: ReplicaSetSpec
    kind: _t.ClassVar[str] = "ReplicaSet"


@dataclasses.dataclass
class ServicePort:
    """One exposed port of a Service."""

    port: int
    target_port: int
    protocol: str = "TCP"
    node_port: int | None = None


@dataclasses.dataclass
class ServiceSpec:
    selector: dict[str, str] = dataclasses.field(default_factory=dict)
    ports: list[ServicePort] = dataclasses.field(default_factory=list)
    type: str = "NodePort"


@dataclasses.dataclass
class Service:
    metadata: ObjectMeta
    spec: ServiceSpec
    kind: _t.ClassVar[str] = "Service"


#: All kinds the API server stores.
KINDS = ("Deployment", "ReplicaSet", "Pod", "Service")
