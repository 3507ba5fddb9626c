"""The federated multi-site testbed (Extension D1).

Scales the single-EGS C³ setup out to *n* radio sites: every site has
its own gNB switch, Edge Gateway Server, Docker cluster, clients, and
— the point of the exercise — its own :class:`SiteController`.  Sites
meet at a backbone switch (which also fronts the cloud uplink) on the
data plane, and at a :class:`~repro.core.federation.SharedStateHub` on
the control plane:

.. code-block:: text

            clients ── gnb-site0 ──┐             ┌── gnb-site1 ── clients
                          │        │             │       │
                 site0-egs┘      backbone ─ cloud       └site1-egs
                                   │
            controller-site0 ═ shared state hub ═ controller-site1

The backbone runs a static forwarding app (no interception): per-host
routes plus a default route to the cloud.  All service interception
and redirection happens at the site switches, each owned exclusively
by its site controller.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster import DockerCluster, EdgeCluster
from repro.containers import Containerd, DockerEngine, Registry
from repro.containers.registry import PRIVATE_PROFILE, PUBLIC_PROFILE
from repro.core import (
    Annotator,
    ControllerConfig,
    GlobalScheduler,
    LowLatencyScheduler,
    ServiceRegistry,
    SwitchTopology,
)
from repro.core.controller import PRIORITY_DEFAULT, PRIORITY_INFRA
from repro.core.federation import SharedStateHub, SiteController, SiteReplica
from repro.core.migration import BandwidthLedger, MigrationManager, MigrationOutcome
from repro.core.service_registry import EdgeService
from repro.metrics import MetricsRecorder
from repro.net import Host, Link
from repro.net.addressing import IPAllocator, IPv4Address, MACAllocator
from repro.net.cloud import CloudHost
from repro.net.link import GBPS
from repro.net.openflow import FlowMatch, OpenFlowSwitch, Output
from repro.ops import OPS_PORT, FlowStatsCollector, OpsApp, OpsReadModel
from repro.sdnfw import Datapath, SDNApp
from repro.services import DEFAULT_CALIBRATION, Calibration, ServiceTemplate, build_catalog
from repro.services.catalog import template_by_key
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.parallel.partitioner import TopologySpec
    from repro.sim.parallel.testbed import TestbedReplay

#: Name under which a site's shared-state link appears in
#: ``named_links`` (pair it with the site name to partition it).
SHARED_STATE = "shared-state"

#: Name under which a site's trunk (gNB <-> backbone) link appears in
#: ``named_links`` (pair it with the site name to partition it), and
#: partition name of the backbone/cloud island on the sharded kernel.
BACKBONE = "backbone"


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
    client_link_latency_s: float = 200e-6
    client_link_bandwidth_bps: float = 1 * GBPS
    egs_link_latency_s: float = 50e-6
    egs_link_bandwidth_bps: float = 10 * GBPS
    #: Site gNB <-> backbone.
    trunk_latency_s: float = 0.002
    trunk_bandwidth_bps: float = 10 * GBPS
    cloud_link_latency_s: float = 0.015
    cloud_link_bandwidth_bps: float = 1 * GBPS
    control_channel_latency_s: float = 150e-6
    auto_scale_down: bool = False
    #: Share of each trunk's bandwidth the migration planner may
    #: commit to checkpoint transfers (the rest stays with data).
    migration_budget_fraction: float = 0.4
    #: Serve the operational REST API (:mod:`repro.ops`) on every
    #: site's EGS host at :data:`repro.ops.OPS_PORT`.
    ops_api: bool = True
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

    @property
    def data_lookahead_s(self) -> float:
        """Lookahead of the partitioned kernel's *data* cut channels.

        A packet entering the trunk at ``t`` cannot reach the far side
        before ``t + trunk_latency_s`` — the physical guarantee the
        conservative synchronizer runs on for backbone traffic.
        """
        return self.trunk_latency_s

    @property
    def control_lookahead_s(self) -> float:
        """Lookahead of the *control* (shared-state) cut channels.

        Replication rides the hub's one-way propagation delay, not the
        trunk: a state write submitted at ``t`` is delivered remotely
        no earlier than ``t + propagation_delay_s``.  With the default
        knobs this is 12.5x the trunk latency, so control channels
        grant far wider safe-time windows than data channels — the
        per-kind derivation the adaptive round engine exploits.
        """
        return self.propagation_delay_s

    def testbed_replay(
        self,
        n_requests: int = 40,
        duration_s: float = 4.0,
        seed: int = 42,
        service_keys: tuple[str, ...] = ("asm", "nginx"),
    ) -> tuple["TestbedReplay", "TopologySpec"]:
        """Derive a *full-testbed* partitioned replay from this shape.

        The replay builds the real stack — gNB switches, EGS hosts,
        Docker clusters, clients, and per-site :class:`SiteController`\\ s —
        inside each partition, with shared-state replication riding a
        dedicated control channel per site.  The cut is validated
        eagerly: a zero-latency trunk *or* zero propagation delay
        leaves the conservative synchronizer without lookahead and
        raises :class:`~repro.sim.parallel.PartitionError` here
        instead of deadlocking a run.
        """
        from repro.sim.parallel import testbed as _parallel_testbed

        replay = _parallel_testbed.build_replay(
            self,
            n_requests=n_requests,
            duration_s=duration_s,
            seed=seed,
            service_keys=service_keys,
        )
        topology = _parallel_testbed.replay_topology(replay)
        topology.partitions()  # eager validation of both channel kinds
        return replay, topology


class BackboneApp(SDNApp):
    """Static forwarding on the backbone switch: per-host routes plus
    a default route to the cloud.  No interception — transparency is a
    site-switch concern."""

    def __init__(self, env: Environment, topology: SwitchTopology) -> None:
        super().__init__(env, name="backbone")
        self.topology = topology

    def on_datapath_join(self, datapath: Datapath) -> None:
        cloud_port = self.topology.cloud_port(datapath.id)
        if cloud_port is not None:
            datapath.add_flow(
                FlowMatch(),
                [Output(cloud_port)],
                priority=PRIORITY_DEFAULT,
                cookie="default:cloud",
                notify_removal=False,
            )
        for ip, port in self.topology.hosts(datapath.id).items():
            self._route(datapath, ip, port)

    @staticmethod
    def _route(datapath: Datapath, ip: IPv4Address, port: int) -> None:
        datapath.add_flow(
            FlowMatch(ip_dst=ip),
            [Output(port)],
            priority=PRIORITY_INFRA,
            cookie=f"infra:{ip}",
            notify_removal=False,
        )

    def install_host_route(self, ip: IPv4Address) -> None:
        """(Re)install the backbone route for one host (handover)."""
        for datapath in self.datapaths.values():
            port = self.topology.port_for(datapath.id, ip)
            if port is None:
                continue
            datapath.delete_flows(cookie=f"infra:{ip}")
            self._route(datapath, ip, port)


@dataclasses.dataclass
class Site:
    """Everything one radio site owns."""

    name: str
    switch: OpenFlowSwitch
    egs: Host
    cluster: DockerCluster
    clients: list[Host]
    topology: SwitchTopology
    registry: ServiceRegistry
    replica: SiteReplica
    controller: SiteController
    #: Port on the site switch toward the backbone.
    trunk_port: int
    #: Port on the backbone toward this site.
    backbone_port: int
    #: Live-migration endpoint (wired after all sites exist).
    manager: "MigrationManager | None" = None
    #: Operational surface (wired after all sites exist).
    collector: "FlowStatsCollector | None" = None
    ops: "OpsReadModel | None" = None
    ops_app: "OpsApp | None" = None


class FederatedTestbed:
    """*n* sites, *n* controllers, one shared state, one backbone."""

    def __init__(
        self,
        config: FederationConfig | None = None,
        scheduler_factory: _t.Callable[[], GlobalScheduler] | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        self.config = config or FederationConfig()
        self.calibration = calibration
        self.env = Environment()
        self.recorder = MetricsRecorder()
        self._ips = IPAllocator("10.0.0.0")
        self._macs = MACAllocator()
        self._service_ips = IPAllocator("203.0.113.0")
        make_scheduler = scheduler_factory or LowLatencyScheduler

        # -- shared state + catalog ---------------------------------------
        self.hub = SharedStateHub(
            self.env, propagation_delay_s=self.config.propagation_delay_s
        )
        self.public_registry = Registry(self.env, "docker-hub", PUBLIC_PROFILE)
        self.private_registry = Registry(self.env, "private-lan", PRIVATE_PROFILE)
        self.images, self.behaviors = build_catalog(calibration)
        for image in self.images.values():
            self.public_registry.publish(image)
            self.private_registry.publish(image)
        self.active_registry = (
            self.private_registry
            if self.config.registry == "private"
            else self.public_registry
        )
        self.annotator = Annotator(self.images, self.behaviors)

        # -- backbone + cloud ---------------------------------------------
        self.backbone_switch = OpenFlowSwitch(self.env, "backbone", datapath_id=1)
        self.switches: dict[int, OpenFlowSwitch] = {1: self.backbone_switch}
        self.backbone_topology = SwitchTopology()
        self.backbone = BackboneApp(self.env, self.backbone_topology)
        self.cloud = CloudHost(
            self.env,
            "cloud",
            self._macs.allocate(),
            IPv4Address.parse("198.51.100.1"),
        )
        cloud_port, cloud_iface = self.backbone_switch.add_port(
            self._macs.allocate()
        )
        Link(
            self.env,
            self.cloud.iface,
            cloud_iface,
            self.config.cloud_link_bandwidth_bps,
            self.config.cloud_link_latency_s,
        )
        self.backbone_topology.set_cloud_port(1, cloud_port)

        # -- sites ---------------------------------------------------------
        self.sites: list[Site] = []
        self.clusters: list[EdgeCluster] = []
        self.clients: list[Host] = []
        #: Logical links the fault injector can partition by name pair,
        #: e.g. ``("site0", "shared-state")``.
        self.named_links: dict[tuple[str, str], _t.Any] = {}
        controller_config = dataclasses.replace(
            ControllerConfig.from_calibration(calibration),
            auto_scale_down=self.config.auto_scale_down,
        )
        for index in range(self.config.n_sites):
            self._build_site(index, make_scheduler(), controller_config)

        # Every site knows every remote host through its trunk; the
        # backbone knows every host through the owning site's port.
        self._register_cross_site_routes()

        # -- attach controllers (routes install from final topologies) ----
        self.backbone.attach(
            self.backbone_switch,
            latency_s=self.config.control_channel_latency_s,
        )
        for site in self.sites:
            site.controller.attach(
                site.switch, latency_s=self.config.control_channel_latency_s
            )

        # -- live migration -------------------------------------------------
        # One shared ledger: every site's planner sees the same trunk
        # commitments, so concurrent inbound migrations at different
        # sites cannot jointly oversubscribe a source trunk.
        self.ledger = BandwidthLedger(
            self.env,
            default_capacity_bps=int(
                self.config.trunk_bandwidth_bps
                * self.config.migration_budget_fraction
            ),
        )
        peers = {site.name: site.egs.ip for site in self.sites}
        hosts_by_ip = {client.ip: client for client in self.clients}

        def _conntrack(client_ip, dst_ip, dst_port):
            # The gNB's connection-tracking view: which source ports of
            # this client have live (or half-open) conversations with
            # the service address.  Stood in for by the client host's
            # own socket table — identical information, zero protocol.
            host = hosts_by_ip.get(client_ip)
            return host.tracked_ports(dst_ip, dst_port) if host else ()

        for site in self.sites:
            site.controller.conntrack = _conntrack
            site.manager = MigrationManager(
                self.env,
                site.name,
                site.controller,
                site.cluster,
                site.egs,
                peers,
                self.ledger,
            )

        # -- operational surface (repro.ops) -------------------------------
        for site in self.sites:
            if self.config.flow_stats_period_s is not None:
                site.collector = FlowStatsCollector(
                    self.env,
                    site.name,
                    site.switch,
                    {
                        f"trunk:{site.name}": self.named_links[
                            (site.name, BACKBONE)
                        ]
                    },
                    state=site.replica,
                    period_s=self.config.flow_stats_period_s,
                    recorder=self.recorder,
                ).start()
            site.ops = OpsReadModel(
                self.env,
                site.controller,
                site=site.name,
                switches=(site.switch,),
                manager=site.manager,
                collector=site.collector,
            )
            if self.config.ops_api:
                site.ops_app = OpsApp(
                    site.ops, register=self._site_registrar(site)
                )
                site.egs.open_port(OPS_PORT, site.ops_app)

        self._cloud_apps: dict[str, _t.Any] = {}
        self.settle(0.1)

    # -- assembly ----------------------------------------------------------

    def _build_site(
        self,
        index: int,
        scheduler: GlobalScheduler,
        controller_config: ControllerConfig,
    ) -> Site:
        name = f"site{index}"
        dpid = index + 2  # backbone owns dpid 1
        switch = OpenFlowSwitch(self.env, f"gnb-{name}", datapath_id=dpid)
        self.switches[dpid] = switch
        topology = SwitchTopology()

        # Trunk to the backbone.
        backbone_port, backbone_iface = self.backbone_switch.add_port(
            self._macs.allocate()
        )
        trunk_port, trunk_iface = switch.add_port(self._macs.allocate())
        trunk_link = Link(
            self.env,
            trunk_iface,
            backbone_iface,
            self.config.trunk_bandwidth_bps,
            self.config.trunk_latency_s,
        )
        self.named_links[(name, BACKBONE)] = trunk_link
        topology.set_cloud_port(dpid, trunk_port)

        # EGS with its own runtime + Docker cluster.
        egs = Host(
            self.env, f"{name}-egs", self._macs.allocate(), self._ips.allocate()
        )
        self._wire_host(
            egs,
            switch,
            topology,
            self.config.egs_link_bandwidth_bps,
            self.config.egs_link_latency_s,
        )
        containerd = Containerd(self.env, egs)
        engine = DockerEngine(self.env, containerd)
        cluster = DockerCluster(
            self.env,
            f"{name}-docker",
            egs,
            engine,
            self.active_registry,
            distance=0,
        )
        self.clusters.append(cluster)

        clients = []
        for j in range(self.config.clients_per_site):
            client = Host(
                self.env,
                f"{name}-rpi{j:02d}",
                self._macs.allocate(),
                self._ips.allocate(),
            )
            self._wire_host(
                client,
                switch,
                topology,
                self.config.client_link_bandwidth_bps,
                self.config.client_link_latency_s,
            )
            clients.append(client)
        self.clients.extend(clients)

        replica = self.hub.connect(name)
        registry = ServiceRegistry(self.annotator, state=replica)
        controller = SiteController(
            self.env,
            registry,
            [cluster],
            scheduler,
            topology,
            replica,
            config=controller_config,
            calibration=self.calibration,
            recorder=self.recorder,
            remote_distance_penalty=self.config.remote_distance_penalty,
        )
        self.named_links[(name, SHARED_STATE)] = replica.link

        site = Site(
            name=name,
            switch=switch,
            egs=egs,
            cluster=cluster,
            clients=clients,
            topology=topology,
            registry=registry,
            replica=replica,
            controller=controller,
            trunk_port=trunk_port,
            backbone_port=backbone_port,
        )
        self.sites.append(site)
        return site

    def _wire_host(
        self,
        host: Host,
        switch: OpenFlowSwitch,
        topology: SwitchTopology,
        bandwidth_bps: float,
        latency_s: float,
    ) -> int:
        port_no, iface = switch.add_port(self._macs.allocate())
        Link(self.env, host.iface, iface, bandwidth_bps, latency_s)
        topology.register_host(switch.datapath_id, host.ip, port_no)
        return port_no

    def _register_cross_site_routes(self) -> None:
        # Snapshot each site's *local* hosts before registering anything
        # anywhere — remote entries added below would otherwise leak
        # into later sites' "local" views and misroute the backbone.
        local = {
            site.name: list(site.topology.hosts(site.switch.datapath_id))
            for site in self.sites
        }
        for site in self.sites:
            for ip in local[site.name]:
                self.backbone_topology.register_host(1, ip, site.backbone_port)
            for other in self.sites:
                if other is site:
                    continue
                for ip in local[site.name]:
                    other.topology.register_host(
                        other.switch.datapath_id, ip, other.trunk_port
                    )

    # -- conveniences shared with the classic testbed ----------------------

    @property
    def controllers(self) -> list[SiteController]:
        return [site.controller for site in self.sites]

    @property
    def controller(self) -> SiteController:
        """The first site's controller (single-controller interface for
        tools that expect one, e.g. parts of the fault injector)."""
        return self.sites[0].controller

    def settle(self, duration_s: float = 0.01) -> None:
        """Advance time so in-flight control traffic lands."""
        self.env.run(until=self.env.now + duration_s)

    def settle_replication(self, margin_s: float = 0.01) -> None:
        """Advance past one full site -> hub -> peers propagation."""
        self.settle(2 * self.config.propagation_delay_s + margin_s)

    def site_of(self, client: Host) -> Site:
        for site in self.sites:
            if client in site.clients:
                return site
        raise ValueError(f"{client.name!r} belongs to no site")

    # -- service management ------------------------------------------------

    def register_template(
        self,
        template: ServiceTemplate,
        site: Site | None = None,
        cloud_ip: IPv4Address | None = None,
        port: int = 80,
        wait_replication: bool = True,
    ) -> EdgeService:
        """Register one catalog service at ``site`` (default: site0)
        and serve it from the cloud.  Registration replicates to every
        other site, which installs its intercepts when the write lands;
        by default this blocks until the propagation is done."""
        at = site or self.sites[0]
        ip = cloud_ip if cloud_ip is not None else self._service_ips.allocate()
        service = at.controller.register_service(
            template.definition_yaml, ip, port, template_key=template.key
        )
        behavior = self.behaviors.get(template.images[0].reference)
        factory = behavior.app_factory()
        if factory is not None:
            app = factory(self.env)
            self.cloud.open_service(ip, port, app)
            self._cloud_apps[service.name] = app
        if wait_replication:
            self.settle_replication()
        else:
            self.settle(0.005)
        return service

    def _site_registrar(
        self, site: Site
    ) -> _t.Callable[[str], EdgeService]:
        """``POST /services`` hook for ``site``'s ops API.

        Runs *inside* the simulation, so it must not :meth:`settle` —
        intercepts install a control hop later, and remote sites see
        the registration once replication lands."""

        def register(key: str) -> EdgeService:
            template = template_by_key(key)
            ip = self._service_ips.allocate()
            service = site.controller.register_service(
                template.definition_yaml, ip, 80, template_key=template.key
            )
            behavior = self.behaviors.get(template.images[0].reference)
            factory = behavior.app_factory()
            if factory is not None:
                app = factory(self.env)
                self.cloud.open_service(ip, 80, app)
                self._cloud_apps[service.name] = app
            return service

        return register

    # -- client mobility ---------------------------------------------------

    def move_client(self, client: Host, target: Site) -> None:
        """Hand a client over to another site's gNB (same IP).

        The origin site clears the client's redirect flows and
        memorized resolutions, every topology repoints at the new
        location, and the backbone route follows — the next request is
        re-resolved by the *target* site's controller.
        """
        origin = self.site_of(client)
        if origin is target:
            return
        old_endpoint = client.iface.endpoint
        if old_endpoint is not None:
            old_endpoint.link.down = True
            client.iface.endpoint = None
        origin.clients.remove(client)
        port_no, iface = target.switch.add_port(self._macs.allocate())
        Link(
            self.env,
            client.iface,
            iface,
            self.config.client_link_bandwidth_bps,
            self.config.client_link_latency_s,
        )
        target.clients.append(client)
        # Repoint every view of the client's location.
        target.topology.register_host(
            target.switch.datapath_id, client.ip, port_no
        )
        self.backbone_topology.register_host(1, client.ip, target.backbone_port)
        for site in self.sites:
            if site is not target:
                site.topology.register_host(
                    site.switch.datapath_id, client.ip, site.trunk_port
                )
        # Origin tears down stale flows + memory; target installs
        # routes and learns the new attachment, so subsequent proactive
        # re-dispatches (migration healing) can install eagerly there.
        origin.controller.update_client_location(client.ip)
        target.controller.update_client_location(
            client.ip, target.switch.datapath_id, port_no
        )
        self.backbone.install_host_route(client.ip)
        self.settle(0.05)

    # -- live migration ----------------------------------------------------

    def migrate(
        self,
        service: EdgeService,
        from_site: "Site",
        to_site: "Site",
        mode: str | None = None,
    ) -> "MigrationOutcome":
        """Drive one migration to completion from outside the
        simulation and return its outcome."""
        assert to_site.manager is not None
        done = to_site.manager.request_migration(
            service.name, from_site.name, mode=mode
        )
        outcome: MigrationOutcome = self.env.run(until=done)
        return outcome

    # -- driving requests --------------------------------------------------

    def http_request(
        self,
        client: Host,
        service: EdgeService,
        request=None,
        timeout: float | None = 120.0,
    ):
        """One measured request (generator returning HTTPResult)."""
        template_request = request
        if template_request is None:
            from repro.net.packet import HTTPRequest

            template_request = HTTPRequest("GET", "/", body_bytes=0)
        result = yield from client.http_request(
            service.cloud_ip, service.port, template_request, timeout=timeout
        )
        return result

    def run_request(self, client: Host, service: EdgeService, request=None, timeout=120.0):
        """Drive one request to completion from outside the simulation."""
        proc = self.env.process(
            self.http_request(client, service, request, timeout)
        )
        return self.env.run(until=proc)

    # -- deployment-state helpers ------------------------------------------

    def prepare_pulled(self, cluster: EdgeCluster, service: EdgeService) -> None:
        proc = self.env.process(cluster.pull(service.plan))
        self.env.run(until=proc)

    def prepare_created(self, cluster: EdgeCluster, service: EdgeService) -> None:
        self.prepare_pulled(cluster, service)
        proc = self.env.process(cluster.create(service.plan))
        self.env.run(until=proc)
