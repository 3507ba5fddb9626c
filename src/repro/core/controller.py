"""The edge SDN controller application.

Ties everything together as a Ryu-style app (fig. 2/5/7):

* installs interception rules so requests to *registered* services
  punt to the controller while everything else flows to the cloud,
* answers packet-ins: FlowMemory fast path, or the full dispatch
  algorithm (scheduler → deployment phases → flow installation),
* holds the buffered first packet during *with-waiting* deployments
  and releases it through the freshly installed flow,
* rewrites addresses in both directions so the redirection stays
  transparent to clients,
* scales idle services down when their memorized flows expire.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.base import EdgeCluster, ServiceEndpoint
from repro.core.dispatcher import Deployment, Dispatcher, Resolution
from repro.core.flow_memory import FlowMemory, MemorizedFlow
from repro.core.schedulers.base import ClientInfo, GlobalScheduler
from repro.core.service_registry import EdgeService, ServiceRegistry
from repro.core.state import ControlPlaneState, InstanceRecord
from repro.metrics import MetricsRecorder
from repro.net.addressing import IPv4Address
from repro.net.openflow import (
    FlowMatch, FlowRemoved, Nat, Output, PacketIn, SetSrc, ToController
)
from repro.sdnfw import Datapath, SDNApp
from repro.services.calibration import Calibration, DEFAULT_CALIBRATION
from repro.sim import Environment

#: Flow priorities, lowest to highest.
PRIORITY_DEFAULT = 0  # match-all -> cloud uplink
PRIORITY_INFRA = 2  # destination-based infrastructure forwarding
PRIORITY_INTERCEPT = 10  # registered service -> controller
PRIORITY_REDIRECT = 20  # per-(client, service) redirection
PRIORITY_DRAIN = 25  # a pin: the connections begun on one endpoint


class SwitchTopology:
    """Static port map the controller needs per datapath.

    The real controller learns this via LLDP/inventory; the testbed
    builder registers it explicitly.
    """

    def __init__(self) -> None:
        self._host_ports: dict[int, dict[IPv4Address, int]] = {}
        self._cloud_ports: dict[int, int] = {}

    def register_host(self, datapath_id: int, ip: IPv4Address, port: int) -> None:
        self._host_ports.setdefault(datapath_id, {})[ip] = port

    def set_cloud_port(self, datapath_id: int, port: int) -> None:
        self._cloud_ports[datapath_id] = port

    def port_for(self, datapath_id: int, ip: IPv4Address) -> int | None:
        return self._host_ports.get(datapath_id, {}).get(ip)

    def cloud_port(self, datapath_id: int) -> int | None:
        return self._cloud_ports.get(datapath_id)

    def hosts(self, datapath_id: int) -> dict[IPv4Address, int]:
        return dict(self._host_ports.get(datapath_id, {}))


class ForwardingApp(SDNApp):
    """Infrastructure forwarding from a :class:`SwitchTopology`: a
    default route to the cloud plus one route per host.

    The backbone switch runs it as is — no interception, transparency
    is a site-switch concern — and :class:`EdgeController` extends it
    with the service intercepts, so the forwarding policy (priorities,
    cookies, delete-then-add on handover) is written once.
    """

    def __init__(self, env: Environment, topology: SwitchTopology, name: str) -> None:
        super().__init__(env, name=name)
        self.topology = topology

    def on_datapath_join(self, datapath: Datapath) -> None:
        cloud_port = self.topology.cloud_port(datapath.id)
        if cloud_port is not None:
            datapath.add_flow(
                FlowMatch(),
                [Output(cloud_port)],
                priority=PRIORITY_DEFAULT,
                cookie="default:cloud",
            )
        for ip, port in self.topology.hosts(datapath.id).items():
            self._route(datapath, ip, port)

    def install_host_routes(self, ip: IPv4Address) -> None:
        """(Re)install the infrastructure forwarding rules for one host
        on every attached switch, from the current topology."""
        for datapath in self.datapaths.values():
            port = self.topology.port_for(datapath.id, ip)
            if port is None:
                continue
            datapath.delete_flows(f"infra:{ip}")
            self._route(datapath, ip, port)

    @staticmethod
    def _route(datapath: Datapath, ip: IPv4Address, port: int) -> None:
        datapath.add_flow(
            FlowMatch(ip_dst=ip),
            [Output(port)],
            priority=PRIORITY_INFRA,
            cookie=f"infra:{ip}",
        )


class Redirect:
    """One client's redirection to one service on one switch — of its new
    connections, or with ``mark`` of those begun on one endpoint: the
    owner of one forward entry and, toward an edge instance, of the
    reverse entry for it.

    *Forward* names the endpoint once, in a :class:`Nat` (OVS
    ``ct(commit,nat(dst=…))``): the switch marks each SYN's connection
    with it (the cloud's address included), rewrites client → cloud
    address into client → instance, and the entry releases the held
    first packet; *reverse* rewrites the instance's answers back with
    one :class:`SetSrc`, so the client only ever sees the cloud address
    (§V).  A redirect sits at :data:`PRIORITY_REDIRECT` under the cookie
    ``redirect:<service>:<client>``; a *pin* — a repoint's hold on the
    connections begun on the endpoint being left — matches that mark at
    :data:`PRIORITY_DRAIN` under ``drain:<service>:<client>:<mark>``.
    The cookie text is a wire format (``repro.ops.collector`` parses it).

    The controller holds a redirect, keyed by ``(dpid, service name,
    mark)``, exactly while its forward entry is in the table: from the
    add (sent at ``sent_at``) to the idle-out, the delete or a
    power-cycled switch's rejoin.  Only the forward entry has an idle
    timer, and the switch reports its idle-out (FlowRemoved), which
    :meth:`idled_out` follows with the untimed reverse entry.

    Each open race (ROADMAP item 3) is a few lines in one transition,
    here or in the :class:`~repro.core.dispatcher.Deployment` that hands
    over to one:
    (b) :meth:`retire` at a handover deletes where it should drain;
    (d) ``Deployment.ready`` → :meth:`repoint` loses a request caught
    mid-flip.
    """

    def __init__(
        self,
        controller: "EdgeController",
        datapath: Datapath,
        client_ip: IPv4Address,
        service: EdgeService,
        mark: ServiceEndpoint | None,
    ) -> None:
        self.controller = controller
        self.datapath = datapath
        self.client_ip = client_ip
        self.service = service
        self.mark = mark
        self.key = (datapath.id, service.name, mark)
        if mark is None:
            self.cookie = f"redirect:{service.name}:{client_ip}"
        else:
            self.cookie = f"drain:{service.name}:{client_ip}:{mark}"
        self.sent_at = 0.0
        #: The edge instance the reverse entry answers for; ``None``
        #: toward the cloud, where there is none.
        self.edge: ServiceEndpoint | None = None

    def install(
        self, client_port: int, endpoint: ServiceEndpoint | None, buffer_id: int | None
    ) -> None:
        """Point the client at ``endpoint`` and release the held packet.

        Over a held redirect (a repoint, a concurrent dispatch) it
        deletes first, so the table never holds duplicates; FIFO ordering
        makes delete-then-add safe.  Reverse goes in *before* forward
        releases the buffered packet, so the response cannot miss.
        """
        owned = self.controller._redirects.setdefault(self.client_ip, {})
        if self.key in owned:
            self.datapath.delete_flows(cookie=self.cookie)
        self.edge, out_port = self._toward(endpoint)
        if out_port is None:
            owned.pop(self.key, None)
            return
        owned[self.key] = self
        self.sent_at = self.controller.env.now
        priority = PRIORITY_REDIRECT if self.mark is None else PRIORITY_DRAIN
        if self.edge is not None:
            reverse = self._reverse(client_port)
            self.datapath.add_flow(*reverse, priority=priority, cookie=self.cookie)
        idle = self.controller.calibration.switch_idle_timeout_s
        forward = self._forward(out_port)
        self.datapath.add_flow(*forward, priority, idle, self.cookie, buffer_id)

    def repoint(
        self, client_port: int, old_endpoint: ServiceEndpoint, endpoint: ServiceEndpoint | None
    ) -> None:
        """Swap to ``endpoint``, make-before-break: pin, then install.

        One pin above the entries about to be swapped holds the
        connections the switch marked with ``old_endpoint`` — any SYN
        that crosses it before the swap lands among them — on the
        instance they began on; new ones take ``endpoint``.  A pin
        already held stays; no known old out-port, no pin.
        """
        pin = Redirect(self.controller, self.datapath, self.client_ip, self.service, old_endpoint)
        if pin.key not in self.controller._redirects.get(self.client_ip, {}):
            pin.install(client_port, old_endpoint, None)
        self.install(client_port, endpoint, None)

    def idled_out(self) -> None:
        """The switch reports the forward entry idle: drop this redirect,
        delete its reverse entry if one was sent, and — not for a pin —
        start the flow's clock at the entry's last use, one switch idle
        timeout ago.  A report that lands less than an idle timeout after
        the entry was sent is of an entry a later install replaced (none
        idles out sooner), and changes nothing."""
        controller = self.controller
        idle = controller.calibration.switch_idle_timeout_s
        if controller.env.now < self.sent_at + idle:
            return
        del controller._redirects[self.client_ip][self.key]
        if self.edge is not None:
            self.datapath.delete_flows(cookie=self.cookie)
        if self.mark is None:
            controller._follow(self.client_ip, self.service, controller.env.now - idle)

    def retire(self) -> None:
        """Delete this redirect's entries; the caller has dropped it."""
        self.datapath.delete_flows(cookie=self.cookie)

    def _toward(
        self, endpoint: ServiceEndpoint | None
    ) -> tuple[ServiceEndpoint | None, int | None]:
        """``(edge, out_port)`` for ``endpoint``; ``edge`` is ``None``
        for the cloud in either spelling — a resolution's ``None``, or
        FlowMemory's record of the service's own address."""
        topology = self.controller.topology
        if endpoint is None or endpoint == self.service.address:
            return None, topology.cloud_port(self.datapath.id)
        return endpoint, topology.port_for(self.datapath.id, endpoint.ip)

    def _reverse(self, client_port: int):
        """The entry that makes :attr:`edge`'s answers the cloud
        address's: one :class:`SetSrc` to the service's address."""
        edge = self.edge
        match = FlowMatch(ip_src=edge.ip, tcp_src=edge.port, ip_dst=self.client_ip)
        return match, [SetSrc(self.service.address), Output(client_port)]

    def _forward(self, out_port: int):
        """The entry that sends the client's packets (of the connections
        marked :attr:`mark`, for a pin) to :attr:`edge` — or to the
        service's own address toward the cloud — through one :class:`Nat`,
        which marks each new connection with that endpoint."""
        service = self.service
        endpoint = self.edge or service.address
        match = FlowMatch(
            ip_src=self.client_ip,
            ip_dst=service.cloud_ip,
            tcp_dst=service.port,
            ct_mark=self.mark,
        )
        return match, [Nat(endpoint), Output(out_port)]


class EdgeController(ForwardingApp):
    """The transparent-edge SDN controller; FlowRemoved drives FlowMemory."""

    def __init__(
        self,
        env: Environment,
        registry: ServiceRegistry,
        clusters: _t.Sequence[EdgeCluster],
        scheduler: GlobalScheduler,
        topology: SwitchTopology,
        calibration: Calibration = DEFAULT_CALIBRATION,
        auto_scale_down: bool = True,
        recorder: MetricsRecorder | None = None,
        state: ControlPlaneState | None = None,
        on_instance_change: _t.Callable[[InstanceRecord], None] | None = None,
        site: str = "local",
        name: str = "edge-controller",
    ) -> None:
        super().__init__(env, topology, name=name)
        self.registry = registry
        self.clusters = list(clusters)
        self.calibration = calibration
        self.packet_in_processing_s = calibration.controller_processing_s
        #: Scale idle services down when their last memorized flow expires.
        self.auto_scale_down = auto_scale_down
        self.recorder = recorder if recorder is not None else MetricsRecorder()
        #: The typed control-plane state every stateful component
        #: operates on: plain in-memory dicts here, a per-site replica
        #: of the shared state in the federated configuration.
        self.state = state if state is not None else ControlPlaneState()
        self.flow_memory = FlowMemory(
            env,
            idle_timeout_s=calibration.memory_idle_timeout_s,
            on_expire=self._on_memory_expire,
            state=self.state,
        )
        self.dispatcher = self._make_dispatcher(
            env, clusters, scheduler, on_instance_change, site
        )
        # When a background deployment comes up the data plane follows
        # the memory, or switches keep steering clients at the old endpoint.
        self.dispatcher.on_endpoint_ready = self.repoint_service_flows
        #: Optional request predictor for proactive deployment (§VII).
        self.predictor = None
        self.proactive_deployer = None
        #: Every redirect whose forward entry is in a table: client ip ->
        #: {(dpid, service name, mark): owner}, both in insertion
        #: order — the order retirements reach the switch in.
        self._redirects: dict[
            IPv4Address, dict[tuple[int, str, ServiceEndpoint | None], Redirect]
        ] = {}
        #: Diagnostics.
        self.stats = {
            "packet_in": 0,
            "memory_hits": 0,
            "dispatched": 0,
            "cloud_fallbacks": 0,
            "scale_downs": 0,
            "redispatched": 0,
            "flows_repointed": 0,
        }

    def _make_dispatcher(
        self,
        env: Environment,
        clusters: _t.Sequence[EdgeCluster],
        scheduler: GlobalScheduler,
        on_instance_change: _t.Callable[[InstanceRecord], None] | None,
        site: str,
    ) -> Dispatcher:
        """Build the dispatcher (overridden by the federated
        :class:`~repro.core.federation.site.SiteController` to blend
        remote instance views into scheduling)."""
        return Dispatcher(
            env,
            clusters,
            scheduler,
            self.flow_memory,
            recorder=self.recorder,
            calibration=self.calibration,
            state=self.state,
            on_instance_change=on_instance_change,
            site=site,
        )

    def enable_proactive(
        self,
        check_interval_s: float = 5.0,
        lead_time_s: float = 10.0,
    ):
        """Attach an EWMA request predictor and start the proactive deployer.

        The predictor hears of cold arrivals from packet-ins and of
        *warm* traffic (which never produces one) from the testbed's
        flow-stats collector, if it has one (:meth:`observe_service_rates`).

        Returns the :class:`~repro.core.predictor.ProactiveDeployer`.
        """
        from repro.core.predictor import EWMAPredictor, ProactiveDeployer

        self.predictor = EWMAPredictor()
        self.proactive_deployer = ProactiveDeployer(
            self.env,
            self.dispatcher,
            self.registry,
            self.predictor,
            check_interval_s=check_interval_s,
            lead_time_s=lead_time_s,
        )
        return self.proactive_deployer

    def observe_service_rates(
        self, rates: _t.Iterable[tuple[str, float]]
    ) -> None:
        """One flow-stats window's ``(service, packets_per_s)`` pairs
        (``FlowStatsCollector.on_service_rates``, called at the window's
        end): a service whose counters advanced had an arrival, at the
        window's resolution."""
        if self.predictor is None:
            return
        now = self.env.now
        for service_name, packets_per_s in rates:
            if packets_per_s > 0:
                self.predictor.observe(service_name, now)

    def add_cluster(self, cluster: EdgeCluster) -> None:
        """Register an additional edge cluster at runtime."""
        self.clusters.append(cluster)
        self.dispatcher.clusters.append(cluster)

    # -- service registration ------------------------------------------------

    def register_service(
        self,
        definition_yaml: str,
        cloud_ip: IPv4Address,
        port: int,
        template_key: str | None = None,
    ) -> EdgeService:
        """Register a service and intercept its traffic on all switches."""
        service = self.registry.register(
            definition_yaml, cloud_ip, port, template_key=template_key
        )
        for datapath in self.datapaths.values():
            self._install_intercept(datapath, service)
        return service

    def unregister_service(self, service: EdgeService) -> None:
        """Remove a service from the platform.

        Interception and redirect flows are deleted from every switch
        (its traffic reverts to the plain cloud path), memorized flows
        are forgotten, and every instance leaves (``Deployment.evict``
        → ``retire``: fig. 4's Scale Down), then is Removed.
        """
        self.registry.unregister(service)
        self._remove_service_flows(service)
        for cluster in self.clusters:
            if cluster.is_created(service.plan):
                owner = self.dispatcher.deployment(service, cluster)
                owner.evict()
                self.env.spawn(
                    self._teardown(owner),
                    name=f"teardown:{service.name}@{cluster.name}",
                )

    def _remove_service_flows(self, service: EdgeService) -> None:
        """Purge every trace of the service from the data plane this
        controller owns: intercepts, per-client redirects, memory."""
        for datapath in self.datapaths.values():
            datapath.delete_flows(cookie=f"intercept:{service.name}")
        for owned in self._redirects.values():
            for key in [key for key in owned if key[1] == service.name]:
                owned.pop(key).retire()
        for flow in self.flow_memory.flows_for_service(service):
            self.flow_memory.forget(flow)

    @staticmethod
    def _teardown(owner: Deployment):
        yield from owner.retire()
        yield from owner.cluster.remove(owner.service.plan)

    def _install_intercept(self, datapath: Datapath, service: EdgeService) -> None:
        datapath.add_flow(
            FlowMatch(ip_dst=service.cloud_ip, tcp_dst=service.port),
            [ToController()],
            priority=PRIORITY_INTERCEPT,
            cookie=f"intercept:{service.name}",
        )

    # -- datapath lifecycle ----------------------------------------------------

    def on_datapath_join(self, datapath: Datapath) -> None:
        super().on_datapath_join(datapath)
        for service in self.registry.all():
            self._install_intercept(datapath, service)
        # A rejoin after a power cycle: no FlowRemoved said the table emptied.
        for owned in self._redirects.values():
            for key in [key for key in owned if key[0] == datapath.id]:
                redirect = owned.pop(key)
                if redirect.mark is None:
                    self._follow(redirect.client_ip, redirect.service, self.env.now)

    def on_flow_removed(self, datapath: Datapath, message: FlowRemoved) -> None:
        """A redirect's forward entry (the only timed entry) idled out."""
        match = message.match
        service = self.registry.lookup(match.ip_dst, match.tcp_dst)
        owned = self._redirects.get(match.ip_src, {})
        redirect = service and owned.get((datapath.id, service.name, match.ct_mark))
        if redirect:
            redirect.idled_out()

    def _follow(self, client_ip: IPv4Address, service: EdgeService, since: float) -> None:
        """Hold the client's memorized flow of ``service`` while one of
        its redirects is installed, else start its clock at ``since``: at
        an idle-out, a power-cycled switch's rejoin, or when none went in."""
        flow = self.flow_memory.lookup(client_ip, service)
        if flow is None:
            return
        for _, name, mark in self._redirects.get(client_ip, {}):
            if name == service.name and mark is None:
                self.flow_memory.hold(flow)
                return
        self.flow_memory.release(flow, since)

    # -- packet-in handling ----------------------------------------------------------

    def on_packet_in(self, datapath: Datapath, message: PacketIn) -> None:
        """Runs once the controller has spent its processing time on the
        packet-in: the channel lands it then (``ControlChannel``).  The
        handler starts hot, inside that entry; what its first segment
        pushes (a deployment's urgent start) still runs before the next
        packet-in of this instant, which the channel pushed back first."""
        self.stats["packet_in"] += 1
        self.env.spawn(
            self._handle_packet_in(datapath, message),
            name=f"pktin:{message.buffer_id}",
            hot=True,
        )

    def _handle_packet_in(self, datapath: Datapath, message: PacketIn):
        """Answer one packet-in, its processing time already paid
        (:attr:`packet_in_processing_s`, from the calibration's
        ``controller_processing_s``): from FlowMemory on the spot, or
        through the dispatcher, which may wait on a deployment."""
        packet = message.packet
        service = self.registry.lookup(packet.ip_dst, packet.tcp.dst_port)
        if service is None:
            # Not a registered service: a table miss before the join's
            # routes landed.  Send it where those routes would.
            port = self.topology.port_for(datapath.id, packet.ip_dst)
            if port is None:
                port = self.topology.cloud_port(datapath.id)
            if port is not None:
                datapath.packet_out([Output(port)], buffer_id=message.buffer_id)
            return

        client_ip = packet.ip_src
        client = self.dispatcher.note_client(client_ip, datapath.id, message.in_port)
        if self.predictor is not None:
            self.predictor.observe(service.name, self.env.now)

        memorized = self.flow_memory.lookup(client_ip, service)
        if (
            memorized is not None
            and self._endpoint_alive(memorized)
            and not self._should_re_resolve(memorized)
        ):
            # FlowMemory fast path: reinstall without scheduling (§V).
            self.stats["memory_hits"] += 1
            endpoint = memorized.endpoint
        else:
            self.stats["dispatched"] += 1
            resolution: Resolution = yield from self.dispatcher.resolve(service, client)
            endpoint = resolution.endpoint
            if endpoint is None:
                self.stats["cloud_fallbacks"] += 1
            self._remember(client_ip, service, resolution)
        self._redirect(datapath, client_ip, service).install(
            message.in_port, endpoint, message.buffer_id
        )
        self._follow(client_ip, service, self.env.now)

    def _remember(
        self, client_ip: IPv4Address, service: EdgeService, resolution: Resolution
    ) -> None:
        endpoint = resolution.endpoint
        if endpoint is None:
            endpoint = ServiceEndpoint(ip=service.cloud_ip, port=service.port)
        self.flow_memory.remember(
            client_ip,
            service,
            resolution.cluster_name,
            endpoint,
            degraded_from=resolution.degraded_from,
        )

    def _should_re_resolve(self, flow: MemorizedFlow) -> bool:
        """Degraded flows go back through the dispatcher — not the
        memory fast path — as soon as the preferred cluster's breaker
        stops blocking (the re-dispatch is what sends the half-open
        probe).  Healthy flows return False on one attribute load."""
        preferred = flow.degraded_from
        if preferred is None:
            return False
        breaker = self.dispatcher.breakers.get(preferred)
        if breaker is None:
            # No breaker (transient failure, or breakers disabled):
            # re-resolve immediately and let the dispatcher retry.
            return True
        return not breaker.blocked(self.env.now)

    def _endpoint_alive(self, flow: MemorizedFlow) -> bool:
        if flow.cluster_name == "cloud":
            # The cloud stands in for an instance only while none runs.
            return not any(c.is_running(flow.service.plan) for c in self.clusters)
        for cluster in self.clusters:
            if cluster.name == flow.cluster_name:
                ep = cluster.endpoint(flow.service.plan)
                return (
                    ep == flow.endpoint
                    and cluster.ingress_host.port_is_open(ep.port)
                )
        return False

    # -- redirects: lookup, then one transition ------------------------------------------

    def _redirect(
        self, datapath: Datapath, client_ip: IPv4Address, service: EdgeService
    ) -> Redirect:
        """The client's held redirect of ``service`` on ``datapath``, or
        a new one, held once its install sends an add."""
        held = self._redirects.get(client_ip, {}).get((datapath.id, service.name, None))
        return held or Redirect(self, datapath, client_ip, service, None)

    def _attachment(self, client: ClientInfo) -> Datapath | None:
        """The switch ``client`` was last seen on — if it is ours and the
        topology still has the client on that port."""
        datapath = self.datapaths.get(client.datapath_id)
        if datapath is None or client.in_port != self.topology.port_for(
            client.datapath_id, client.ip
        ):
            return None
        return datapath

    def repoint_service_flows(
        self,
        service: EdgeService,
        cluster_name: str,
        endpoint: ServiceEndpoint,
    ) -> int:
        """Atomically repoint every memorized flow of ``service`` to a
        new instance, make-before-break.

        Runs in a single event-loop instant (no yields), so for every
        client whose redirect is installed the pin toward the old
        endpoint and the redirect swap are sent in one batch and land at
        the switch together: connections the switch committed before the
        swap lands stay on the old path, connections whose SYN reaches
        it after ride the new one.  A flow with no redirect installed
        (it idled out) changes only in memory; its next packet-in
        installs toward ``endpoint`` from there.  Returns the number of
        flows repointed.
        """
        repointed = 0
        for flow in self.flow_memory.flows_for_service(service):
            if flow.cluster_name == cluster_name and flow.endpoint == endpoint:
                continue
            client = self.dispatcher.client_locations.get(flow.client_ip)
            datapath = None if client is None else self._attachment(client)
            held = datapath and self._redirects.get(flow.client_ip, {}).get(
                (datapath.id, service.name, None)
            )
            if held:
                held.repoint(client.in_port, flow.endpoint, endpoint)
                self._follow(flow.client_ip, service, self.env.now)
            flow.cluster_name = cluster_name
            flow.endpoint = endpoint
            flow.degraded_from = None
            repointed += 1
        if repointed:
            self.stats["flows_repointed"] += repointed
        return repointed

    # -- client mobility (Follow-me style handover) ----------------------------------------

    def update_client_location(
        self,
        client_ip: IPv4Address,
        datapath_id: int | None = None,
        in_port: int | None = None,
    ) -> None:
        """Handle a client handover to a different switch.

        The testbed updates :attr:`topology` first; this method then
        refreshes the client's infrastructure routes, removes its stale
        redirect flows, and forgets exactly this client's memorized
        flows — they were resolved for the old location, so the first
        packet from the new switch goes back through the scheduler
        instead of replaying a possibly far-away instance from memory.
        Other clients' flows (and the idle-expiry machinery) are
        untouched.

        When the handover signal carries the new attachment
        (``datapath_id``/``in_port``), the client's *degraded* and
        *remote-pinned* flows are proactively re-dispatched in the
        background instead of idling until the client's next packet:
        the scheduler runs again from the new location immediately, the
        result is memorized, and — when the new attachment is one of
        this controller's switches — the redirect entries go straight
        into the flow table.  This closes the stale-redirect window: a
        relocated session whose old resolution was a fallback (breaker
        degradation, cross-site pin) heals at handover time, not at
        idle-out.
        """
        stale = self.flow_memory.forget_client(client_ip)
        if datapath_id is not None and in_port is not None:
            self.dispatcher.note_client(client_ip, datapath_id, in_port)
        self.install_host_routes(client_ip)
        for redirect in self._redirects.pop(client_ip, {}).values():
            redirect.retire()
        if datapath_id is None or in_port is None:
            # Attachment unknown (e.g. the client left for a switch
            # another controller owns): nothing to re-dispatch *from*
            # here — the new owner re-resolves on first contact.
            return
        for flow in stale:
            if not (flow.degraded or "/" in flow.cluster_name):
                continue
            self.env.spawn(
                self._redispatch(flow.service, client_ip),
                name=f"redispatch:{flow.service.name}:{client_ip}",
            )

    def _redispatch(self, service: EdgeService, client_ip: IPv4Address):
        """Background re-resolution of one (client, service) flow after
        a handover (no packet to answer — memory is warmed, and switch
        entries are installed eagerly when the recorded attachment is
        one of ours and current)."""
        client = self.dispatcher.client_locations.get(client_ip)
        if client is None:
            return
        if self.registry.lookup(service.cloud_ip, service.port) is None:
            return  # unregistered while the handover was in flight
        self.stats["redispatched"] += 1
        resolution: Resolution = yield from self.dispatcher.resolve(
            service, client
        )
        if self.flow_memory.lookup(client_ip, service) is not None:
            return  # a real packet-in re-resolved first; keep its result
        self._remember(client_ip, service, resolution)
        datapath = self._attachment(client)
        if datapath is not None:
            self._redirect(datapath, client_ip, service).install(
                client.in_port, resolution.endpoint, None
            )
        self._follow(client_ip, service, self.env.now)

    # -- idle scale-down --------------------------------------------------------------------

    def _on_memory_expire(self, flow: MemorizedFlow) -> None:
        if not self.auto_scale_down:
            return
        if flow.cluster_name == "cloud":
            return
        if self.flow_memory.service_in_use(flow.service):
            return
        self.stats["scale_downs"] += 1
        self.dispatcher.scale_down_idle(flow.service)
