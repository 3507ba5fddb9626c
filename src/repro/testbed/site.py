"""The federation's parts: one site stack, one backbone island.

A federated deployment (Extension D1) is *n* radio sites — each with
its own gNB switch, Edge Gateway Server, Docker cluster, clients and
:class:`~repro.core.federation.SiteController` — meeting at a backbone
switch (which also fronts the cloud uplink) on the data plane and at a
:class:`~repro.core.federation.SharedStateHub` on the control plane:

.. code-block:: text

            clients ── gnb-site0 ──┐             ┌── gnb-site1 ── clients
                          │        │             │       │
                 site0-egs┘      backbone ─ cloud       └site1-egs
                                   │
            controller-site0 ═ shared state hub ═ controller-site1

:class:`Site` and :class:`Backbone` are the only code that builds those
two islands.  Two wirings assemble them:
:class:`~repro.testbed.federation.FederatedTestbed` puts *n* sites and
one backbone into one event loop, :mod:`repro.sim.parallel.testbed`
gives every island a loop of its own.  They differ at two seams, each
a value handed to :class:`Site`:

* **the trunk** — a callable that receives the site's trunk interface
  and puts a link on it: a whole :class:`~repro.net.link.Link` to the
  backbone port, or the cut half, a
  :class:`~repro.net.link.LinkEndpoint` that hands its packets to a
  portal;
* **the state** — a ready :class:`~repro.core.federation.SiteReplica`:
  connected to the hub in the same loop, or with a
  :class:`~repro.core.federation.ReplicaLink` whose hub leg is a portal.

A wiring also hands in what it owns one of — per federation in one
loop, per partition when sharded: the image catalog with its
registries, the addresses, the recorder and the
bandwidth ledger.

The backbone runs the controller's plain
:class:`~repro.core.controller.ForwardingApp` (no interception):
per-host routes plus a default route to the cloud.  All service
interception and redirection happens at the site switches, each owned
exclusively by its site controller.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster import DockerCluster, EdgeCluster
from repro.containers import Containerd, DockerEngine, Registry
from repro.containers.registry import PRIVATE_PROFILE, PUBLIC_PROFILE
from repro.core import (
    Annotator,
    EdgeController,
    ForwardingApp,
    GlobalScheduler,
    ServiceRegistry,
    SwitchTopology,
)
from repro.core.federation import SharedStateHub, SiteController, SiteReplica
from repro.core.migration import BandwidthLedger, MigrationManager
from repro.core.service_registry import EdgeService
from repro.metrics import MetricsRecorder
from repro.net import Host, Link
from repro.net.addressing import IPAllocator, IPv4Address
from repro.net.cloud import CloudHost
from repro.net.device import NetworkInterface
from repro.net.link import GBPS, LinkEndpoint
from repro.net.openflow import OpenFlowSwitch
from repro.net.packet import HTTPRequest, Packet
from repro.ops import OPS_PORT, FlowStatsCollector, OpsApp, OpsReadModel
from repro.services import DEFAULT_CALIBRATION, Calibration, ServiceTemplate, build_catalog
from repro.sim import Environment

#: Name under which a site's shared-state link appears in
#: ``named_links`` (pair it with the site name to partition it).
SHARED_STATE = "shared-state"

#: Name under which a site's trunk (gNB <-> backbone) link appears in
#: ``named_links`` (pair it with the site name to partition it), and
#: partition name of the backbone/cloud island on the sharded kernel.
BACKBONE = "backbone"

CLOUD_IP = IPv4Address.parse("198.51.100.1")

#: The links of the evaluation setup (fig. 8), the same in every wiring:
#: RPi clients, the EGS, the cloud's WAN uplink, the control channel.
CLIENT_LINK_LATENCY_S = 200e-6
CLIENT_LINK_BANDWIDTH_BPS = 1 * GBPS
EGS_LINK_LATENCY_S = 50e-6
EGS_LINK_BANDWIDTH_BPS = 10 * GBPS
CLOUD_LINK_LATENCY_S = 0.015
CLOUD_LINK_BANDWIDTH_BPS = 1 * GBPS
CONTROL_CHANNEL_LATENCY_S = 150e-6

#: Puts a link on a site's trunk interface and returns it (the
#: data-plane seam).
TrunkWiring = _t.Callable[[NetworkInterface], Link | LinkEndpoint]


@dataclasses.dataclass(frozen=True)
class FederationConfig:
    """Knobs of the federated testbed."""

    n_sites: int = 2
    clients_per_site: int = 2
    #: One-way site <-> shared-state latency; a write reaches remote
    #: replicas after two of these (site -> hub -> peers).
    propagation_delay_s: float = 0.025
    #: Added scheduler distance for serving from another site.
    remote_distance_penalty: int = 2
    registry: str = "public"
    #: Site gNB <-> backbone.
    trunk_latency_s: float = 0.002
    trunk_bandwidth_bps: float = 10 * GBPS
    auto_scale_down: bool = False
    #: Poll each site's gNB switch counters every this many seconds
    #: with a :class:`~repro.ops.FlowStatsCollector`; the trunk-link
    #: utilization rows replicate through the shared-state hub
    #: (``None``: no collectors).
    flow_stats_period_s: float | None = None

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        if self.clients_per_site < 1:
            raise ValueError("need at least one client per site")
        if self.registry not in ("public", "private"):
            raise ValueError(f"unknown registry {self.registry!r}")
        if self.flow_stats_period_s is not None and self.flow_stats_period_s <= 0:
            raise ValueError("flow_stats_period_s must be positive")


class Catalog:
    """The image catalog, published to both registries, and the cloud
    side of its services."""

    def __init__(
        self,
        env: Environment,
        calibration: Calibration = DEFAULT_CALIBRATION,
        registry: str = "public",
        scheduler_name: str | None = None,
    ) -> None:
        self.calibration = calibration
        self.public_registry = Registry(env, "docker-hub", PUBLIC_PROFILE)
        self.private_registry = Registry(env, "private-lan", PRIVATE_PROFILE)
        self.images, self.behaviors = build_catalog(calibration)
        for image in self.images.values():
            self.public_registry.publish(image)
            self.private_registry.publish(image)
        #: The registry clusters pull from (fig. 13's comparison).
        self.active_registry = (
            self.private_registry if registry == "private" else self.public_registry
        )
        self.annotator = Annotator(
            self.images, self.behaviors, scheduler_name=scheduler_name
        )

    def serve_from_cloud(
        self,
        cloud: CloudHost,
        template: ServiceTemplate,
        ip: IPv4Address,
    ) -> None:
        """Open ``template``'s app on the cloud host, at ``ip`` port 80:
        the *perceived cloud* of fig. 1 really answers."""
        factory = self.behaviors.get(template.images[0].reference).app_factory()
        if factory is not None:
            cloud.open_service(ip, 80, factory(cloud.env))


class BaseTestbed(Catalog):
    """What every single-loop testbed has: an event loop, the catalog,
    a recorder, address pools, and the helpers that drive the
    simulation from outside.  Subclasses provide ``cloud``."""

    cloud: CloudHost

    def __init__(
        self,
        calibration: Calibration,
        registry: str,
        scheduler_name: str | None = None,
    ) -> None:
        self.env = Environment()
        super().__init__(self.env, calibration, registry, scheduler_name)
        self.recorder = MetricsRecorder()
        self._ips = IPAllocator("10.0.0.0")
        self._service_ips = IPAllocator("203.0.113.0")

    def settle(self, duration_s: float = 0.01) -> None:
        """Advance simulated time so in-flight control-plane messages
        (flow-mods, watch events) land before the next measurement."""
        self.env.run(until=self.env.now + duration_s)

    def _register_catalog(
        self,
        controller: EdgeController,
        template: ServiceTemplate,
    ) -> EdgeService:
        """Register a catalog service at ``controller``, on the next
        service address and port 80, and serve it from the cloud.  Safe
        inside the simulation: it does not :meth:`settle`, so the
        intercept lands a control hop later."""
        ip = self._service_ips.allocate()
        service = controller.register_service(
            template.definition_yaml, ip, 80, template_key=template.key
        )
        self.serve_from_cloud(self.cloud, template, ip)
        return service

    # -- driving requests --------------------------------------------------

    def http_request(
        self,
        client: Host,
        service: EdgeService,
        request: HTTPRequest | None = None,
        timeout: float | None = 120.0,
    ) -> _t.Generator[_t.Any, _t.Any, _t.Any]:
        """One measured request (generator returning HTTPResult)."""
        if request is None:
            request = HTTPRequest("GET", "/", body_bytes=0)
        result = yield from client.http_request(
            service.cloud_ip, service.port, request, timeout=timeout
        )
        return result

    def run_request(
        self,
        client: Host,
        service: EdgeService,
        request: HTTPRequest | None = None,
        timeout: float | None = 120.0,
    ) -> _t.Any:
        """Drive one request to completion from outside the simulation."""
        return self.env.run_process(
            self.http_request(client, service, request, timeout)
        )

    # -- deployment-state helpers for experiments --------------------------

    def prepare_pulled(self, cluster: EdgeCluster, service: EdgeService) -> None:
        """Synchronously pre-pull a service's images onto a cluster."""
        self.env.run_process(cluster.pull(service.plan))

    def prepare_created(self, cluster: EdgeCluster, service: EdgeService) -> None:
        """Pre-pull and pre-create (so only Scale Up remains)."""
        self.prepare_pulled(cluster, service)
        self.env.run_process(cluster.create(service.plan))


#: Share of each trunk's bandwidth the migration planner may commit to
#: checkpoint transfers (the rest stays with data).
MIGRATION_BUDGET_FRACTION = 0.4


def migration_ledger(env: Environment, config: FederationConfig) -> BandwidthLedger:
    """A ledger holding the migration planner's share of every trunk."""
    return BandwidthLedger(
        env,
        capacity_bps=int(config.trunk_bandwidth_bps * MIGRATION_BUDGET_FRACTION),
    )


class Site:
    """Everything one radio site owns.

    Built in three stages, because one event loop with several sites
    interleaves them (all sites, then all cross-site routes, then all
    controllers attached, then all ops surfaces) and the order in which
    constructors schedule events is part of the replay fingerprint:

    1. the constructor wires switch, trunk, EGS, cluster, clients and
       controller;
    2. :meth:`attach`, once every route is registered
       (:meth:`reach_via_trunk`), connects the controller, which
       installs flows from the final topology;
    3. :meth:`start_ops` adds the migration manager, the flow-stats
       collector and the ops API.

    The object is also the view a fault plan resolves its targets on
    (:class:`~repro.faults.Injector` reads ``egs``, ``clients``,
    ``clusters``, ``switches``, the registries, ``controllers`` and
    ``recorder``), so a site's plan cannot reach beyond the site.
    """

    manager: MigrationManager
    collector: FlowStatsCollector | None = None
    ops: OpsReadModel
    ops_app: OpsApp

    def __init__(
        self,
        env: Environment,
        index: int,
        config: FederationConfig,
        *,
        wire_trunk: TrunkWiring,
        replica: SiteReplica,
        catalog: Catalog,
        egs_ip: IPv4Address,
        client_ips: _t.Iterable[IPv4Address],
        scheduler: GlobalScheduler,
        recorder: MetricsRecorder,
    ) -> None:
        self.env = env
        self.config = config
        self.name = name = f"site{index}"
        self.recorder = recorder
        dpid = index + 2  # backbone owns dpid 1
        self.switch = OpenFlowSwitch(env, f"gnb-{name}", datapath_id=dpid)
        self.switches = {dpid: self.switch}
        self.topology = SwitchTopology()

        #: Port (and its interface) on the site switch toward the backbone.
        self.trunk_port, self.trunk_iface = self.switch.add_port()
        self.trunk_link = wire_trunk(self.trunk_iface)
        self.topology.set_cloud_port(dpid, self.trunk_port)

        # EGS with its own runtime + Docker cluster.
        self.public_registry = catalog.public_registry
        self.private_registry = catalog.private_registry
        self.active_registry = catalog.active_registry
        self.egs = Host(env, f"{name}-egs", egs_ip)
        self._wire_host(self.egs, EGS_LINK_BANDWIDTH_BPS, EGS_LINK_LATENCY_S)
        engine = DockerEngine(env, Containerd(env, self.egs))
        self.cluster = DockerCluster(
            env, f"{name}-docker", self.egs, engine, self.active_registry, distance=0
        )
        self.clusters = [self.cluster]

        self.clients: list[Host] = []
        for j, ip in enumerate(client_ips):
            self.add_client(Host(env, f"{name}-rpi{j:02d}", ip))

        self.replica = replica
        self.registry = ServiceRegistry(catalog.annotator, state=replica)
        self.controller = SiteController(
            env,
            self.registry,
            self.clusters,
            scheduler,
            self.topology,
            replica,
            calibration=catalog.calibration,
            auto_scale_down=config.auto_scale_down,
            recorder=recorder,
            remote_distance_penalty=config.remote_distance_penalty,
        )
        self.controllers = [self.controller]

    # -- wiring ------------------------------------------------------------

    def _wire_host(self, host: Host, bandwidth_bps: float, latency_s: float) -> int:
        port_no, iface = self.switch.add_port()
        Link(self.env, host.iface, iface, bandwidth_bps, latency_s)
        self.topology.register_host(self.switch.datapath_id, host.ip, port_no)
        return port_no

    def add_client(self, client: Host) -> int:
        """Attach ``client`` to this site's gNB; returns its port."""
        port_no = self._wire_host(
            client, CLIENT_LINK_BANDWIDTH_BPS, CLIENT_LINK_LATENCY_S
        )
        self.clients.append(client)
        return port_no

    def host_ips(self) -> list[IPv4Address]:
        """Addresses of the hosts attached here: EGS first, then clients."""
        return [self.egs.ip, *(client.ip for client in self.clients)]

    def reach_via_trunk(self, ips: _t.Iterable[IPv4Address]) -> None:
        """Hosts at other sites are reachable through the trunk."""
        for ip in ips:
            self.topology.register_host(
                self.switch.datapath_id, ip, self.trunk_port
            )

    def receive_from_trunk(self, packet: Packet) -> None:
        """A packet leaving a cut trunk's far half arrives here."""
        self.switch.receive(packet, self.trunk_iface)

    # -- stages 2 and 3 ----------------------------------------------------

    def attach(self) -> None:
        self.controller.attach(self.switch, latency_s=CONTROL_CHANNEL_LATENCY_S)

    def start_ops(
        self,
        peers: _t.Mapping[str, IPv4Address],
        ledger: BandwidthLedger,
    ) -> None:
        """Add live migration and the operational surface.

        ``peers`` maps every site name to its EGS address.  ``ledger``
        reaches as far as the wiring's event loop does: sites in one
        loop share one, so concurrent inbound migrations cannot jointly
        oversubscribe a source trunk.
        """
        config = self.config
        self.manager = MigrationManager(
            self.env,
            self.name,
            self.controller,
            self.cluster,
            self.egs,
            peers,
            ledger,
        )
        if config.flow_stats_period_s is not None:
            self.collector = FlowStatsCollector(
                self.env,
                self.name,
                self.switch,
                {f"trunk:{self.name}": self.trunk_link},
                state=self.replica,
                period_s=config.flow_stats_period_s,
                recorder=self.recorder,
            ).start()
            self.collector.on_service_rates = (
                self.controller.observe_service_rates
            )
        self.ops = OpsReadModel(
            self.env,
            self.controller,
            site=self.name,
            switches=(self.switch,),
            manager=self.manager,
            collector=self.collector,
        )
        self.ops_app = OpsApp(self.ops)
        self.egs.open_port(OPS_PORT, self.ops_app)


class Backbone:
    """The backbone island: switch, forwarding app, the cloud
    host behind its uplink, and the shared-state hub."""

    def __init__(self, env: Environment, config: FederationConfig) -> None:
        self.switch = OpenFlowSwitch(env, BACKBONE, datapath_id=1)
        self.topology = SwitchTopology()
        self.app = ForwardingApp(env, self.topology, name=BACKBONE)
        self.cloud = CloudHost(env, "cloud", CLOUD_IP)
        cloud_port, cloud_iface = self.switch.add_port()
        Link(
            env,
            self.cloud.iface,
            cloud_iface,
            CLOUD_LINK_BANDWIDTH_BPS,
            CLOUD_LINK_LATENCY_S,
        )
        self.topology.set_cloud_port(1, cloud_port)
        self.hub = SharedStateHub(
            env, propagation_delay_s=config.propagation_delay_s
        )
        #: Site name -> port toward that site.
        self.site_ports: dict[str, int] = {}

    def add_trunk_port(self, site: str) -> NetworkInterface:
        """A new port toward ``site``; the caller puts the trunk on it."""
        self.site_ports[site], iface = self.switch.add_port()
        return iface

    def route_hosts(self, site: str, ips: _t.Iterable[IPv4Address]) -> None:
        """``ips`` are reachable through ``site``'s port."""
        for ip in ips:
            self.topology.register_host(1, ip, self.site_ports[site])

    def attach(self) -> None:
        self.app.attach(self.switch, latency_s=CONTROL_CHANNEL_LATENCY_S)
