"""The simulated C³ evaluation testbed (fig. 8).

Topology: the SDN controller, the virtual OVS switch, Docker, and the
Kubernetes cluster all run on the *Edge Gateway Server* (EGS); clients
run on Raspberry Pis attached through 1 Gbps links; the cloud sits
behind a WAN uplink.  Docker and Kubernetes share one containerd (and
hence one image store), exactly as on the real EGS.
"""

from __future__ import annotations

import dataclasses

from repro.cluster import DockerCluster, EdgeCluster, K8sEdgeCluster
from repro.containers import Containerd, DockerEngine
from repro.core import (
    EdgeController,
    GlobalScheduler,
    NearestScheduler,
    ServiceRegistry,
    SwitchTopology,
)
from repro.core.service_registry import EdgeService
from repro.core.state import ControlPlaneState
from repro.k8s import KubernetesCluster
from repro.net import Host, Link
from repro.net.cloud import CloudHost
from repro.net.link import GBPS
from repro.net.openflow import OpenFlowSwitch
from repro.ops import OPS_PORT, FlowStatsCollector, OpsApp, OpsReadModel
from repro.services import DEFAULT_CALIBRATION, Calibration, ServiceTemplate
from repro.services.catalog import template_by_key
from repro.testbed.site import (
    CLIENT_LINK_BANDWIDTH_BPS,
    CLIENT_LINK_LATENCY_S,
    CLOUD_IP,
    CLOUD_LINK_BANDWIDTH_BPS,
    CLOUD_LINK_LATENCY_S,
    CONTROL_CHANNEL_LATENCY_S,
    EGS_LINK_BANDWIDTH_BPS,
    EGS_LINK_LATENCY_S,
    BaseTestbed,
)

#: The link of a far edge added by :meth:`C3Testbed.add_far_edge`.
FAR_EDGE_LINK_BANDWIDTH_BPS = 1 * GBPS
#: The trunk from a gNB added by :meth:`C3Testbed.add_gnb` to the main switch.
GNB_TRUNK_LATENCY_S = 0.0005
GNB_TRUNK_BANDWIDTH_BPS = 10 * GBPS


@dataclasses.dataclass(frozen=True)
class TestbedConfig:
    """Knobs of the simulated testbed."""

    __test__ = False  # not a pytest class, despite the name

    n_clients: int = 20
    #: Which edge clusters to build on the EGS.
    cluster_types: tuple[str, ...] = ("docker", "k8s")
    #: Pull images from the "public" (Docker Hub/GCR) or the LAN
    #: "private" registry (fig. 13's comparison).
    registry: str = "public"
    auto_scale_down: bool = False
    #: Name of a custom Kubernetes scheduler to use as the Local
    #: Scheduler (§IV-B/§V): the annotator sets it as ``schedulerName``
    #: on every edge Deployment, and the cluster runs it alongside the
    #: default scheduler.
    k8s_local_scheduler: str | None = None
    #: Poll switch flow/port counters every this many seconds with a
    #: :class:`~repro.ops.FlowStatsCollector` (``None``: no collector).
    flow_stats_period_s: float | None = None

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("need at least one client")
        unknown = set(self.cluster_types) - {"docker", "k8s"}
        if unknown:
            raise ValueError(f"unknown cluster types: {sorted(unknown)}")
        if self.registry not in ("public", "private"):
            raise ValueError(f"unknown registry {self.registry!r}")
        if self.flow_stats_period_s is not None and self.flow_stats_period_s <= 0:
            raise ValueError("flow_stats_period_s must be positive")


class C3Testbed(BaseTestbed):
    """A fully wired simulation of the evaluation setup."""

    def __init__(
        self,
        config: TestbedConfig | None = None,
        scheduler: GlobalScheduler | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        self.config = config or TestbedConfig()
        super().__init__(
            calibration, self.config.registry, self.config.k8s_local_scheduler
        )

        # -- hosts ---------------------------------------------------------
        self.egs = Host(self.env, "egs", self._ips.allocate())
        self.clients: list[Host] = [
            Host(self.env, f"rpi{i:02d}", self._ips.allocate())
            for i in range(self.config.n_clients)
        ]
        self.cloud = CloudHost(self.env, "cloud", CLOUD_IP)

        # -- switch + links --------------------------------------------------
        self.switch = OpenFlowSwitch(self.env, "ovs", datapath_id=1)
        #: All switches by datapath id (gNBs added via :meth:`add_gnb`).
        self.switches: dict[int, OpenFlowSwitch] = {1: self.switch}
        #: (from dpid, to dpid) -> port on the *from* switch (star
        #: topology: every gNB trunks to the main switch).
        self._trunk_ports: dict[tuple[int, int], int] = {}
        self.topology = SwitchTopology()
        self._attach_host(self.egs, EGS_LINK_BANDWIDTH_BPS, EGS_LINK_LATENCY_S)
        for client in self.clients:
            self._attach_host(
                client, CLIENT_LINK_BANDWIDTH_BPS, CLIENT_LINK_LATENCY_S
            )
        cloud_port = self._attach_host(
            self.cloud,
            CLOUD_LINK_BANDWIDTH_BPS,
            CLOUD_LINK_LATENCY_S,
            register=False,
        )
        self.topology.set_cloud_port(self.switch.datapath_id, cloud_port)

        # -- shared container runtime on the EGS -------------------------------------
        self.containerd = Containerd(self.env, self.egs)

        self.clusters: list[EdgeCluster] = []
        self.docker_cluster: DockerCluster | None = None
        self.k8s_cluster: K8sEdgeCluster | None = None
        self.kubernetes: KubernetesCluster | None = None

        if "docker" in self.config.cluster_types:
            self.docker_engine = DockerEngine(self.env, self.containerd)
            self.docker_cluster = DockerCluster(
                self.env,
                "docker",
                self.egs,
                self.docker_engine,
                self.active_registry,
                distance=0,
            )
            self.clusters.append(self.docker_cluster)

        if "k8s" in self.config.cluster_types:
            self.kubernetes = KubernetesCluster(
                self.env, "k8s", self.active_registry
            )
            self.kubernetes.add_node("egs", self.egs, self.containerd)
            if self.config.k8s_local_scheduler:
                self.kubernetes.add_scheduler(self.config.k8s_local_scheduler)
            self.k8s_cluster = K8sEdgeCluster(
                self.env,
                "k8s",
                self.kubernetes,
                "egs",
                distance=0,
                local_scheduler=self.config.k8s_local_scheduler,
            )
            self.clusters.append(self.k8s_cluster)

        # -- controller --------------------------------------------------------------------
        self.state = ControlPlaneState()
        self.service_registry = ServiceRegistry(self.annotator, state=self.state)
        self.scheduler = scheduler or NearestScheduler()
        self.controller = EdgeController(
            self.env,
            self.service_registry,
            self.clusters,
            self.scheduler,
            self.topology,
            calibration=calibration,
            auto_scale_down=self.config.auto_scale_down,
            recorder=self.recorder,
            state=self.state,
        )
        self.datapath = self.controller.attach(
            self.switch, latency_s=CONTROL_CHANNEL_LATENCY_S
        )

        # -- operational surface (repro.ops) ---------------------------------
        self.collector: FlowStatsCollector | None = None
        if self.config.flow_stats_period_s is not None:
            egs_endpoint = self.egs.iface.endpoint
            assert egs_endpoint is not None  # attached above
            self.collector = FlowStatsCollector(
                self.env,
                "egs",
                self.switch,
                {"uplink:egs": egs_endpoint.link},
                state=self.state,
                period_s=self.config.flow_stats_period_s,
                recorder=self.recorder,
            ).start()
            self.collector.on_service_rates = (
                self.controller.observe_service_rates
            )
        self.ops = OpsReadModel(
            self.env,
            self.controller,
            site="egs",
            switches=self.switches.values(),
            collector=self.collector,
        )
        # Opening the port installs no events, so serving the API does
        # not perturb replays.
        self.ops_app = OpsApp(self.ops, register=self._register_template_key)
        self.egs.open_port(OPS_PORT, self.ops_app)

        # Let the controller finish installing the infrastructure rules
        # (default route, per-host forwarding) before any traffic flows;
        # each flow-mod pays a control-channel hop.
        self.settle(0.05)

    # -- wiring helpers ---------------------------------------------------------

    def _attach_host(
        self,
        host: Host,
        bandwidth_bps: float,
        latency_s: float,
        register: bool = True,
    ) -> int:
        port_no, iface = self.switch.add_port()
        Link(self.env, host.iface, iface, bandwidth_bps, latency_s)
        if register:
            self.topology.register_host(self.switch.datapath_id, host.ip, port_no)
        return port_no

    def add_far_edge(
        self,
        name: str = "far-docker",
        distance: int = 1,
        latency_s: float = 0.004,
    ) -> DockerCluster:
        """Attach an additional, farther Docker edge cluster.

        Used by no-waiting experiments: "a 'non-optimal' (further away,
        but on the route to the cloud) edge cluster is much more likely
        to have the requested service cached or even running already."
        """
        host = Host(self.env, name, self._ips.allocate())
        self._attach_host(host, FAR_EDGE_LINK_BANDWIDTH_BPS, latency_s)
        runtime = Containerd(self.env, host)
        engine = DockerEngine(self.env, runtime)
        cluster = DockerCluster(
            self.env, name, host, engine, self.active_registry, distance=distance
        )
        self.clusters.append(cluster)
        self.controller.add_cluster(cluster)
        return cluster

    # -- multiple gNB switches + client mobility --------------------------------

    def _port_toward(self, from_dpid: int, to_dpid: int) -> int:
        """Egress port on ``from_dpid`` toward ``to_dpid`` (via the hub)."""
        if from_dpid == to_dpid:
            raise ValueError("no port toward self")
        if from_dpid == 1:
            return self._trunk_ports[(1, to_dpid)]
        return self._trunk_ports[(from_dpid, 1)]

    def add_gnb(self, name: str = "gnb2") -> OpenFlowSwitch:
        """Attach an additional gNB switch, trunked to the main switch.

        Models a second radio site: clients attached here reach the EGS
        and the cloud through the trunk, and the controller programs
        this switch like any other datapath.
        """
        dpid = max(self.switches) + 1
        gnb = OpenFlowSwitch(self.env, name, datapath_id=dpid)
        main_port, main_iface = self.switch.add_port()
        gnb_port, gnb_iface = gnb.add_port()
        Link(
            self.env,
            main_iface,
            gnb_iface,
            GNB_TRUNK_BANDWIDTH_BPS,
            GNB_TRUNK_LATENCY_S,
        )
        self._trunk_ports[(1, dpid)] = main_port
        self._trunk_ports[(dpid, 1)] = gnb_port
        # Everything currently known on the main switch is reachable
        # from the new gNB via its trunk.
        for ip in self.topology.hosts(1):
            self.topology.register_host(dpid, ip, gnb_port)
        self.topology.set_cloud_port(dpid, gnb_port)
        self.switches[dpid] = gnb
        self.controller.attach(gnb, latency_s=CONTROL_CHANNEL_LATENCY_S)
        self.settle(0.1)
        return gnb

    def new_client(self, gnb: OpenFlowSwitch | None = None) -> Host:
        """Create an extra client attached to ``gnb`` (default: main)."""
        switch = gnb or self.switch
        client = Host(self.env, f"rpi{len(self.clients):02d}", self._ips.allocate())
        self.clients.append(client)
        self._wire_client(client, switch)
        self.controller.install_host_routes(client.ip)
        self.settle(0.01)
        return client

    def _wire_client(self, client: Host, switch: OpenFlowSwitch) -> int:
        port_no, iface = switch.add_port()
        Link(
            self.env,
            client.iface,
            iface,
            CLIENT_LINK_BANDWIDTH_BPS,
            CLIENT_LINK_LATENCY_S,
        )
        self.topology.register_host(switch.datapath_id, client.ip, port_no)
        for dpid in self.switches:
            if dpid != switch.datapath_id:
                self.topology.register_host(
                    dpid, client.ip, self._port_toward(dpid, switch.datapath_id)
                )
        return port_no

    def move_client(self, client: Host, gnb: OpenFlowSwitch) -> None:
        """Hand a client over to another gNB (same IP, new attachment).

        The old radio link goes down, a new one comes up, and the
        controller refreshes the client's routes, clears its stale
        redirect flows, and invalidates its memorized flows — the next
        request from the new location is re-resolved by the scheduler
        instead of replaying a resolution made for the old switch.
        Degraded flows are proactively re-dispatched from the new
        attachment instead of waiting for the client's next packet.
        """
        old_endpoint = client.iface.endpoint
        if old_endpoint is not None:
            old_endpoint.link.down = True
            client.iface.endpoint = None
        port_no = self._wire_client(client, gnb)
        self.controller.update_client_location(
            client.ip, gnb.datapath_id, port_no
        )
        self.settle(0.05)

    def add_serverless(self) -> "ServerlessCluster":
        """Add a WebAssembly function runtime on the EGS (§VIII future
        work: containers and serverless side by side)."""
        from repro.serverless import ServerlessCluster, WasmRuntime
        from repro.serverless.catalog import default_module_map

        runtime = WasmRuntime(self.env, self.egs)
        cluster = ServerlessCluster(
            self.env,
            "wasm",
            self.egs,
            runtime,
            default_module_map(),
            distance=0,
        )
        self.clusters.append(cluster)
        self.controller.add_cluster(cluster)
        return cluster

    # -- service management -------------------------------------------------------------

    def register_template(self, template: ServiceTemplate) -> EdgeService:
        """Register one catalog service; also serve it from the cloud
        (the *perceived cloud* of fig. 1 really answers)."""
        service = self._register_catalog(self.controller, template)
        # The interception rule must be live before the first request
        # arrives (registration happens well before use in practice).
        self.settle(0.005)
        return service

    def _register_template_key(self, key: str) -> EdgeService:
        """``POST /services`` hook: register a catalog template.

        Runs *inside* the simulation (from the ops API handler): the
        interception flow-mod simply lands one control-channel hop
        after the response."""
        return self._register_catalog(self.controller, template_by_key(key))

    def register_yaml_file(
        self,
        path: str,
        template_key: str | None = None,
    ) -> EdgeService:
        """Register a service from a YAML definition file on disk —
        the developer workflow of §V ("Each edge service needs to be
        defined in a separate YAML file").  No cloud-side app is opened
        (use :meth:`register_template` for catalog services)."""
        with open(path, encoding="utf-8") as handle:
            definition = handle.read()
        service = self.controller.register_service(
            definition, self._service_ips.allocate(), 80, template_key=template_key
        )
        self.settle(0.005)
        return service
