"""The typed control-plane state.

Every piece of *mutable* controller state — registered services,
client locations, memorized flows, circuit breakers, and published
instance and link views — lives in a :class:`ControlPlaneState`.  The
components (:class:`~repro.core.service_registry.ServiceRegistry`,
:class:`~repro.core.flow_memory.FlowMemory`,
:class:`~repro.core.dispatcher.Dispatcher`) hold *logic only* and
operate on whichever state object they are handed:

* :class:`ControlPlaneState` itself — plain dicts, the
  single-controller configuration: every read observes every prior
  write immediately, iteration order is dict insertion order;
* :class:`~repro.core.federation.state.SiteReplica` — the subclass
  that adds replication: it overrides the five writes so they are
  versioned (last writer wins) and propagate to the other sites with
  simulated latency (DESIGN.md §9), and inherits every read.

The split follows the consistency needs of each store:

* **Replicated stores** (services, client locations, instance and
  link views) are written through *methods*, so a replica can version
  writes and schedule their propagation.
* **Site-local stores** (memorized flows, circuit breakers) are
  exposed as raw mutable mappings — each site owns its switches'
  flows and its own failure detectors outright, so there is nothing
  to replicate and the owning component may bind the mapping once and
  use it directly on the hot path.
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.cluster.plan import ServiceEndpoint
    from repro.core.flow_memory import MemorizedFlow
    from repro.core.schedulers.base import ClientInfo
    from repro.core.service_registry import EdgeService
    from repro.faults.breaker import CircuitBreaker
    from repro.net.addressing import IPv4Address

__all__ = ["ControlPlaneState", "InstanceRecord", "LinkStatsRecord"]


@dataclasses.dataclass(frozen=True)
class InstanceRecord:
    """One published service-instance observation.

    Sites publish these when a deployment finishes or an instance is
    scaled down; remote sites read them (possibly stale) to consider
    far-away running instances in their FAST/BEST decisions.
    """

    service_name: str
    cluster_name: str
    #: Identifier of the site operating the cluster.
    site: str
    running: bool
    endpoint: "ServiceEndpoint | None"
    #: The cluster's latency tier as seen from its *own* site.
    distance: int
    #: Simulated time of the observation at the publishing site.
    observed_at: float


@dataclasses.dataclass(frozen=True)
class LinkStatsRecord:
    """One published link-utilization observation.

    Produced by the per-site
    :class:`~repro.ops.collector.FlowStatsCollector` from switch
    flow/port counter deltas; replicated so remote sites (and
    utilization-aware schedulers) see federation-wide link load.
    """

    #: Identifier of the site publishing the observation.
    site: str
    #: Name of the observed link (e.g. ``"trunk:site0"``).
    link: str
    #: Simulated time of the observation at the publishing site.
    observed_at: float
    #: Width of the delta window the rates were computed over.
    window_s: float
    #: Packets forwarded by the observed switch during the window.
    packets_per_s: float
    #: Estimated bits/s on the link during the window.
    bits_per_s: float
    #: ``bits_per_s`` over the link's configured bandwidth (0.0 when
    #: the bandwidth is unknown/unbounded); may exceed 1.0 briefly
    #: because the estimate is counter-derived, not wire-sampled.
    utilization: float


class ControlPlaneState:
    """All mutable control-plane state, in local dictionaries."""

    def __init__(self) -> None:
        # Replicated stores (a replica's local views).
        self._by_address: dict[tuple[IPv4Address, int], EdgeService] = {}
        self._by_name: dict[str, EdgeService] = {}
        self._clients: dict[_t.Any, ClientInfo] = {}
        self._instances: dict[tuple[str, str, str], InstanceRecord] = {}
        self._link_stats: dict[tuple[str, str], LinkStatsRecord] = {}
        # Site-local stores.
        self._flows: dict[tuple[IPv4Address, str], MemorizedFlow] = {}
        self._breakers: dict[str, CircuitBreaker] = {}

    # -- registered services (replicated) ----------------------------------

    def put_service(self, service: "EdgeService") -> None:
        """Add a registered service (last writer wins on conflicts)."""
        self._by_address[service.address] = service
        self._by_name[service.name] = service

    def remove_service(self, service: "EdgeService") -> None:
        """Drop a service registration (idempotent)."""
        self._by_address.pop(service.address, None)
        self._by_name.pop(service.name, None)

    def service_at(self, ip: "IPv4Address", port: int) -> "EdgeService | None":
        """The service registered at ``ip:port``, if any."""
        return self._by_address.get((ip, port))

    def service_named(self, name: str) -> "EdgeService | None":
        """The service with worldwide-unique ``name``, if any."""
        return self._by_name.get(name)

    def services(self) -> "list[EdgeService]":
        """All registered services, sorted by name."""
        return sorted(self._by_address.values(), key=lambda s: s.name)

    # -- client locations (replicated) -------------------------------------

    def put_client(self, info: "ClientInfo") -> None:
        """Record a client's latest observed location."""
        self._clients[info.ip] = info

    def client(self, ip: object) -> "ClientInfo | None":
        """Last known location of ``ip``, if any."""
        return self._clients.get(ip)

    @property
    def client_map(self) -> "_t.MutableMapping[_t.Any, ClientInfo]":
        """The local view of client locations (read-mostly access)."""
        return self._clients

    # -- instance views (replicated) ----------------------------------------

    def publish_instance(self, record: InstanceRecord) -> None:
        """Publish an instance observation for remote consumption."""
        key = (record.service_name, record.site, record.cluster_name)
        self._instances[key] = record

    def instances_for(self, service_name: str) -> list[InstanceRecord]:
        """All known instance observations for ``service_name``,
        ordered deterministically by (site, cluster name)."""
        return sorted(
            (
                record
                for record in self._instances.values()
                if record.service_name == service_name
            ),
            key=lambda r: (r.site, r.cluster_name),
        )

    # -- link-utilization views (replicated) ---------------------------------

    def publish_link_stats(self, record: LinkStatsRecord) -> None:
        """Publish a link-utilization observation for remote consumption."""
        self._link_stats[(record.site, record.link)] = record

    def link_stats(self) -> list[LinkStatsRecord]:
        """All known link observations, ordered by (site, link)."""
        return sorted(
            self._link_stats.values(), key=lambda r: (r.site, r.link)
        )

    # -- memorized flows (site-local) ----------------------------------------

    @property
    def flows(
        self,
    ) -> "_t.MutableMapping[tuple[IPv4Address, str], MemorizedFlow]":
        """This site's memorized (client, service) flows."""
        return self._flows

    # -- circuit breakers (site-local) ---------------------------------------

    @property
    def breakers(self) -> "_t.MutableMapping[str, CircuitBreaker]":
        """This site's per-cluster circuit breakers."""
        return self._breakers
