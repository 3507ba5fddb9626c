"""Registered edge services, keyed by their unique cloud address.

§II: "The services to be redirected to the edge are first registered
with a mobile edge platform provider, identified by their unique
combination of domain name/IP address and port number."
"""

from __future__ import annotations

import dataclasses

from repro.cluster.plan import DeploymentPlan
from repro.core.annotator import Annotator
from repro.core.state import ControlPlaneState
from repro.net.addressing import IPv4Address


@dataclasses.dataclass
class EdgeService:
    """One registered edge service."""

    #: Worldwide-unique name assigned by the annotator.
    name: str
    cloud_ip: IPv4Address
    port: int
    plan: DeploymentPlan
    #: The developer's original definition and the annotated output.
    definition_yaml: str
    annotated_yaml: str
    #: Catalog key ("asm", "nginx", ...) for experiment aggregation.
    template_key: str | None = None

    @property
    def address(self) -> tuple[IPv4Address, int]:
        return (self.cloud_ip, self.port)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EdgeService {self.name} @ {self.cloud_ip}:{self.port}>"


class ServiceRegistry:
    """All services the platform provider has registered.

    The registrations themselves live in the control-plane
    :class:`~repro.core.state.ControlPlaneState` (replicated across
    sites in the federated configuration); this class holds only the
    annotation/validation logic around them.
    """

    def __init__(
        self,
        annotator: Annotator,
        state: ControlPlaneState | None = None,
    ) -> None:
        self.annotator = annotator
        self.state = state if state is not None else ControlPlaneState()

    def register(
        self,
        definition_yaml: str,
        cloud_ip: IPv4Address,
        port: int,
        template_key: str | None = None,
    ) -> EdgeService:
        """Register a service definition under a cloud address."""
        if self.state.service_at(cloud_ip, port) is not None:
            raise ValueError(f"service at {cloud_ip}:{port} already registered")
        plan, annotated = self.annotator.annotate(definition_yaml, cloud_ip, port)
        service = EdgeService(
            name=plan.service_name,
            cloud_ip=cloud_ip,
            port=port,
            plan=plan,
            definition_yaml=definition_yaml,
            annotated_yaml=annotated,
            template_key=template_key,
        )
        self.state.put_service(service)
        return service

    def unregister(self, service: EdgeService) -> None:
        self.state.remove_service(service)

    def lookup(self, ip: IPv4Address, port: int) -> EdgeService | None:
        """The service registered at ``ip:port``, if any."""
        return self.state.service_at(ip, port)

    def all(self) -> list[EdgeService]:
        return self.state.services()
