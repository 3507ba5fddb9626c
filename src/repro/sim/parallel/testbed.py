"""The *real* federated testbed sharded onto the parallel kernel.

This module builds each site's **full stack** — gNB
:class:`~repro.net.openflow.OpenFlowSwitch`, EGS host, containerd +
Docker cluster, client hosts, and the site's own
:class:`~repro.core.federation.SiteController` — inside its own
partition, with the backbone switch, :class:`BackboneApp`, cloud host,
and :class:`~repro.core.federation.SharedStateHub` in a partition of
their own.  Every component is the same class the monolithic
:class:`~repro.testbed.federation.FederatedTestbed` runs; only the
wiring differs:

* the trunk :class:`~repro.net.link.Link` between a site switch and
  the backbone becomes a pair of :class:`PortalEndpoint` half-links,
  one per partition, whose serialization timeline mirrors
  :class:`~repro.net.link.LinkEndpoint` float-for-float and whose
  propagation leg rides the cut-edge channel (lookahead = trunk
  latency);
* shared-state replication rides a second, ``control``-kind channel
  per site: the site's :class:`~repro.core.federation.SiteReplica`
  talks to a :class:`~repro.core.federation.RemoteHubHandle`, the hub
  fans out through :meth:`SharedStateHub.attach_remote` sends — each
  leg paying exactly the ``propagation_delay_s`` the in-process hub
  charges (lookahead = propagation delay).

Build-in-worker: partitions are constructed *inside* the forked worker
from a picklable :class:`TestbedReplay` (config + service schedule +
request schedule — plain data, no env-bound objects), the same idiom
as the experiment engine's fork pool.  Because the serial executor and
the parallel coordinator drive the identical partition builds through
the identical round algorithm, latency traces are byte-identical by
construction — gated in ``tests/test_parallel_testbed.py``.

Determinism notes:

* request/service schedules are generated up front in
  :func:`build_replay` from integer-seeded per-site RNGs — no draws
  happen during the run, so completion interleaving cannot perturb
  the workload;
* host connection ids come from disjoint per-partition ranges (the
  module counter is re-based per partition index), so two sites'
  clients can never collide at a shared server's ``conn_id`` demux —
  in serial and parallel execution alike;
* route-cache recordings are aborted at the portal (a cross-partition
  traversal is not replayable, and a recording holds env-bound hop
  objects that must never be pickled), so cross-site flows take the
  slow path under *both* executors — identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import typing as _t
from collections import deque
from functools import partial
from heapq import heappush

import repro.net.host as _host_mod
from repro.cluster import DockerCluster
from repro.containers import Containerd, DockerEngine, Registry
from repro.containers.registry import PRIVATE_PROFILE, PUBLIC_PROFILE
from repro.core import (
    Annotator,
    ControllerConfig,
    LowLatencyScheduler,
    ServiceRegistry,
    SwitchTopology,
)
from repro.core.federation import (
    RemoteHubHandle,
    SharedStateHub,
    SiteController,
    SiteReplica,
)
from repro.core.federation.state import ReplicaLink
from repro.metrics import MetricsRecorder
from repro.net import Host, Link
from repro.net.addressing import IPv4Address, MACAllocator
from repro.net.cloud import CloudHost
from repro.net.packet import HEADER_BYTES
from repro.net.openflow import OpenFlowSwitch
from repro.ops import OPS_PORT, FlowStatsCollector, OpsApp, OpsReadModel
from repro.services import DEFAULT_CALIBRATION, build_catalog
from repro.services.catalog import template_by_key
from repro.sim.events import NORMAL
from repro.sim.parallel.partition import Partition, PartitionSpec, Portal
from repro.sim.parallel.partitioner import (
    CutLink,
    NodeSpec,
    TopologySpec,
    channel_id,
)
from repro.testbed.federation import BACKBONE, BackboneApp, FederationConfig

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.device import NetworkInterface
    from repro.net.packet import Packet

__all__ = [
    "MigrationSpec",
    "PortalEndpoint",
    "ServiceSpec",
    "TestbedReplay",
    "build_backbone_partition",
    "build_migration_replay",
    "build_replay",
    "build_replay_specs",
    "build_site_partition",
    "replay_topology",
    "run_replay",
]

#: Conn-id range width per partition: disjoint blocks far above any
#: realistic connection count, so ids never collide across sites.
_CONN_ID_STRIDE = 1 << 40


# -- deterministic addressing (no objects cross the fork boundary) ---------

def egs_ip(site: int) -> IPv4Address:
    """Site ``site``'s EGS address: ``10.0.<site+1>.1``."""
    return IPv4Address(0x0A000000 + ((site + 1) << 8) + 1)


def client_ip(site: int, client: int) -> IPv4Address:
    """Client ``client`` at ``site``: ``10.0.<site+1>.<10+client>``."""
    return IPv4Address(0x0A000000 + ((site + 1) << 8) + 10 + client)


def cloud_ip() -> IPv4Address:
    return IPv4Address.parse("198.51.100.1")


def service_ip(index: int) -> IPv4Address:
    """Service ``index``'s perceived-cloud address: ``203.0.113.<i+1>``."""
    return IPv4Address(0xCB007100 + index + 1)


# -- the picklable build plan ----------------------------------------------

@dataclasses.dataclass(frozen=True)
class ServiceSpec:
    """One service in the replay: which template, where, and when."""

    key: str
    #: Index into the replay's service list (fixes the service IP).
    index: int
    #: Site whose controller registers the service.
    origin_site: int
    register_at_s: float


@dataclasses.dataclass(frozen=True)
class MigrationSpec:
    """One scheduled live migration in the replay.

    The *destination* site's manager drives it (the pipeline is
    destination-initiated), so the spec is scheduled in the
    ``to_site`` partition; its checkpoint traffic crosses the cut
    trunks as ordinary packets.
    """

    at_s: float
    service_index: int
    from_site: int
    to_site: int
    #: "precopy" / "stopcopy" / None (per-template default).
    mode: str | None = None


@dataclasses.dataclass(frozen=True)
class TestbedReplay:
    """Picklable plan for one full-testbed partitioned run.

    Everything a forked worker needs to build its partition: the
    federation shape, the service registration schedule, and every
    site's request schedule — plain data derived once (deterministic)
    in :func:`build_replay`.
    """

    config: "FederationConfig"
    services: tuple[ServiceSpec, ...]
    #: Per site: tuple of (issue time, client index, service index,
    #: request id) in issue order.
    requests_by_site: tuple[
        tuple[tuple[float, int, int, int], ...], ...
    ]
    horizon_s: float
    seed: int
    request_timeout_s: float = 60.0
    #: Optional per-site fault schedules (``FaultPlan`` instances are
    #: plain data, so they cross the fork boundary with the plan),
    #: aligned with site index; empty tuple = fault-free.  Faults must
    #: target site-local components — the cut trunks and control
    #: channels have no Injector-visible link objects.  Serial and
    #: parallel execution of a faulted replay stay byte-identical
    #: (both build the same partitions), but faulted fingerprints are
    #: never comparable to fault-free ones.
    faults_by_site: tuple[_t.Any, ...] = ()
    #: Scheduled live migrations (plain data; each is armed in its
    #: destination partition).  Every site builds its own private
    #: :class:`~repro.core.migration.BandwidthLedger`; the serial
    #: executor of a partitioned replay builds the identical set, so
    #: admission decisions — and hence fingerprints — match by
    #: construction.
    migrations: tuple[MigrationSpec, ...] = ()

    @property
    def n_sites(self) -> int:
        return self.config.n_sites


def build_replay(
    config: "FederationConfig",
    n_requests: int = 40,
    duration_s: float = 4.0,
    seed: int = 42,
    service_keys: tuple[str, ...] = ("asm", "nginx"),
    request_start_s: float = 2.0,
) -> TestbedReplay:
    """Derive the deterministic replay plan for ``config``.

    Services register early (site0 first, the last site second when
    the federation has one) so registration + replication + intercept
    installation settle before the request window opens at
    ``request_start_s``.
    """
    services = []
    for i, key in enumerate(service_keys):
        origin = 0 if i % 2 == 0 else config.n_sites - 1
        services.append(
            ServiceSpec(
                key=key,
                index=i,
                origin_site=origin,
                register_at_s=0.2 + 0.15 * i,
            )
        )
    per_site: list[tuple[tuple[float, int, int, int], ...]] = []
    base, rem = divmod(n_requests, config.n_sites)
    for site in range(config.n_sites):
        # Integer-only seeding, one stream per site: the schedule is
        # identical no matter which process generates or replays it.
        rng = random.Random(seed * 1_000_003 + site + 1)
        count = base + (1 if site < rem else 0)
        issues = sorted(
            request_start_s + rng.random() * duration_s for _ in range(count)
        )
        requests = tuple(
            (
                at,
                rng.randrange(config.clients_per_site),
                rng.randrange(len(services)),
                site * 1_000_000 + i + 1,
            )
            for i, at in enumerate(issues)
        )
        per_site.append(requests)
    return TestbedReplay(
        config=config,
        services=tuple(services),
        requests_by_site=tuple(per_site),
        # Tail long enough for on-demand pulls (nginx over the public
        # registry is ~5.5 s) plus the response drain.
        horizon_s=request_start_s + duration_s + 30.0,
        seed=seed,
    )


def build_migration_replay(
    config: "FederationConfig",
    n_requests: int = 40,
    duration_s: float = 4.0,
    seed: int = 42,
    service_keys: tuple[str, ...] = ("asm", "nginx"),
) -> TestbedReplay:
    """A migration-heavy variant of :func:`build_replay`.

    After the request window closes, every service is migrated from
    its origin site to the next site over — alternating pre-copy and
    stop-and-copy — so a replay exercises checkpoint transfer over the
    cut trunks, the make-before-break flip, source release, and
    replicated withdrawal, under both executors.
    """
    replay = build_replay(
        config,
        n_requests=n_requests,
        duration_s=duration_s,
        seed=seed,
        service_keys=service_keys,
    )
    start = 2.0 + duration_s + 1.0  # past the request window
    migrations = tuple(
        MigrationSpec(
            at_s=start + 0.5 * i,
            service_index=spec.index,
            from_site=spec.origin_site,
            to_site=(spec.origin_site + 1) % config.n_sites,
            mode="precopy" if i % 2 == 0 else "stopcopy",
        )
        for i, spec in enumerate(replay.services)
        if config.n_sites > 1
    )
    return dataclasses.replace(replay, migrations=migrations)


# -- the half-link: a LinkEndpoint whose far side is another partition ------

class _PortalLinkStub:
    """Stands in for :class:`~repro.net.link.Link` on a portal endpoint.

    The route cache snapshots ``endpoint.link.epoch`` when a recorded
    hop egresses here; the epoch never moves because a portal's
    parameters never change mid-run (recordings through it are aborted
    at serialization end anyway).
    """

    __slots__ = ("epoch", "down", "bandwidth_bps")

    def __init__(self) -> None:
        self.epoch = 0
        self.down = False
        #: Stamped by :class:`PortalEndpoint` so the flow-stats
        #: collector's utilization math sees the same trunk bandwidth
        #: as the monolithic testbed's real ``Link``.
        self.bandwidth_bps = 0.0


class PortalEndpoint:
    """One side of a cut trunk link, transmitting into a portal.

    Mirrors :class:`~repro.net.link.LinkEndpoint`'s FIFO transmitter
    exactly — same busy/deque discipline, same
    ``(HEADER_BYTES + payload) * 8 / bandwidth`` serialization float,
    same end-of-serialization scheduling — but the propagation leg is
    a ``portal.send`` with ``arrival_ts = now + latency`` instead of a
    local delivery callback, so the packet lands on the peer
    partition's heap at the exact instant ``LinkEndpoint._deliver``
    would have fired.  Route-cache state is stripped before the send:
    recordings hold env-bound hops (unpicklable, and a cross-partition
    traversal is not replayable anyway), so cross-site flows stay on
    the slow path under both executors.
    """

    __slots__ = (
        "portal",
        "iface",
        "peer",
        "link",
        "_pending",
        "_busy",
        "_env",
        "_bw",
        "_lat",
        "_serialized_cb",
    )

    def __init__(
        self,
        portal: Portal,
        iface: "NetworkInterface",
        bandwidth_bps: float,
        latency_s: float,
    ) -> None:
        if latency_s < portal.lookahead_s:
            raise ValueError(
                f"portal endpoint latency {latency_s!r}s undercuts channel "
                f"{portal.channel_id!r} lookahead {portal.lookahead_s!r}s"
            )
        self.portal = portal
        self.iface = iface
        #: No peer endpoint in this partition: inbound ``_record_hop``
        #: sees ``in_ep.peer is None`` and aborts recording, exactly
        #: the packet-out-injection fallback of the monolithic path.
        self.peer = None
        self.link = _PortalLinkStub()
        self.link.bandwidth_bps = float(bandwidth_bps)
        self._pending: deque["Packet"] = deque()
        self._busy = False
        self._env = iface.device.env
        self._bw = float(bandwidth_bps)
        self._lat = float(latency_s)
        self._serialized_cb = self._serialized
        iface.endpoint = self

    def _serialize(self, packet: "Packet") -> None:
        env = self._env
        heappush(
            env._queue,
            (
                env._now
                + (HEADER_BYTES + packet.tcp.payload_bytes) * 8 / self._bw,
                NORMAL,
                next(env._seq),
                self._serialized_cb,
                (packet,),
            ),
        )

    def transmit(self, packet: "Packet") -> None:
        if self._busy:
            self._pending.append(packet)
        else:
            self._busy = True
            self._serialize(packet)

    def _serialized(self, packet: "Packet") -> None:
        env = self._env
        hop = packet._fp_next
        if hop is not None:
            # A fused fast hop can never target a portal (recordings
            # through it never finalize), but a stale pointer from an
            # upstream invalidation may survive: kill it before pickling.
            hop.route.invalidate()
            packet._fp_next = None
        if packet._fp_rec is not None:
            packet._fp_rec = None  # cross-partition traversals don't replay
        self.portal.send(packet, arrival_ts=env._now + self._lat)
        if self._pending:
            self._serialize(self._pending.popleft())
        else:
            self._busy = False


# -- partition models -------------------------------------------------------

def _rebase_conn_ids(partition_index: int) -> None:
    """Give this partition's hosts a disjoint conn-id range.

    ``Host`` demultiplexes server-side connections by ``conn_id``
    alone; forked workers inherit the same module counter, so without
    re-basing, clients at two sites could collide at a shared server.
    Under the serial executor the last assignment wins and every
    partition draws from one shared counter — globally unique either
    way (the values differ between executors, but conn ids never enter
    flow matches, timings, or latency digests).
    """
    _host_mod._conn_ids = itertools.count(partition_index * _CONN_ID_STRIDE + 1)


def build_site_partition(
    replay: TestbedReplay, site: int
) -> "SitePartitionModel":
    return SitePartitionModel(replay, site)


def build_backbone_partition(replay: TestbedReplay) -> "BackbonePartitionModel":
    return BackbonePartitionModel(replay)


class SitePartitionModel:
    """One site's full stack, built inside its own partition."""

    def __init__(self, replay: TestbedReplay, site: int) -> None:
        self.replay = replay
        self.site = site
        self.name = f"site{site}"
        self.issued = 0
        self.completed = 0
        self.failed = 0
        self._digest = hashlib.md5()

    def setup(self, partition: Partition) -> None:
        self.partition = partition
        env = self.env = partition.env
        config = self.replay.config
        _rebase_conn_ids(partition.spec.index)
        calibration = DEFAULT_CALIBRATION
        macs = MACAllocator()

        # gNB switch with the trunk as a portal half-link.
        dpid = self.site + 2  # backbone owns dpid 1
        self.switch = OpenFlowSwitch(env, f"gnb-{self.name}", datapath_id=dpid)
        self.topology = SwitchTopology()
        trunk_port, trunk_iface = self.switch.add_port(macs.allocate())
        self.trunk_iface = trunk_iface
        PortalEndpoint(
            partition.portals[channel_id(self.name, BACKBONE)],
            trunk_iface,
            config.trunk_bandwidth_bps,
            config.trunk_latency_s,
        )
        self.topology.set_cloud_port(dpid, trunk_port)

        # Image registries + catalog are per-partition (pull traffic is
        # site-local; the profiles make it deterministic).
        images, behaviors = build_catalog(calibration)
        self.public_registry = public = Registry(env, "docker-hub", PUBLIC_PROFILE)
        self.private_registry = private = Registry(env, "private-lan", PRIVATE_PROFILE)
        for image in images.values():
            public.publish(image)
            private.publish(image)
        self.active_registry = active = (
            private if config.registry == "private" else public
        )

        # EGS with its runtime and Docker cluster.
        self.egs = Host(env, f"{self.name}-egs", macs.allocate(), egs_ip(self.site))
        self._wire_host(
            self.egs,
            macs,
            config.egs_link_bandwidth_bps,
            config.egs_link_latency_s,
        )
        containerd = Containerd(env, self.egs)
        engine = DockerEngine(env, containerd)
        self.cluster = DockerCluster(
            env, f"{self.name}-docker", self.egs, engine, active, distance=0
        )

        self.clients = []
        for j in range(config.clients_per_site):
            client = Host(
                env,
                f"{self.name}-rpi{j:02d}",
                macs.allocate(),
                client_ip(self.site, j),
            )
            self._wire_host(
                client,
                macs,
                config.client_link_bandwidth_bps,
                config.client_link_latency_s,
            )
            self.clients.append(client)

        # Remote hosts are reachable through the trunk.
        for other in range(config.n_sites):
            if other == self.site:
                continue
            self.topology.register_host(dpid, egs_ip(other), trunk_port)
            for j in range(config.clients_per_site):
                self.topology.register_host(
                    dpid, client_ip(other, j), trunk_port
                )

        # Shared state over the control channel: replica -> remote hub.
        handle = RemoteHubHandle(
            partition.portals[
                channel_id(self.name, BACKBONE, "control")
            ].send
        )
        self.replica = SiteReplica(
            env, self.name, ReplicaLink(env, handle, self.name)
        )
        handle.link = self.replica.link
        partition.on_message(
            channel_id(BACKBONE, self.name, "control"),
            self.replica.apply_remote,
        )
        partition.on_message(
            channel_id(BACKBONE, self.name), self._packet_from_backbone
        )

        self.recorder = MetricsRecorder()
        registry = ServiceRegistry(
            Annotator(images, behaviors), state=self.replica
        )
        controller_config = dataclasses.replace(
            ControllerConfig.from_calibration(calibration),
            auto_scale_down=config.auto_scale_down,
        )
        self.controller = SiteController(
            env,
            registry,
            [self.cluster],
            LowLatencyScheduler(),
            self.topology,
            self.replica,
            config=controller_config,
            calibration=calibration,
            recorder=self.recorder,
            remote_distance_penalty=config.remote_distance_penalty,
        )
        self.controller.attach(
            self.switch, latency_s=config.control_channel_latency_s
        )

        # Live migration: daemon + manager on every site, identically
        # under both executors.  The ledger is partition-private; the
        # serial executor builds the same per-site ledgers, so planner
        # admission is byte-identical.
        from repro.core.migration import BandwidthLedger, MigrationManager

        clients_by_ip = {client.ip: client for client in self.clients}

        def _conntrack(ip, dst_ip, dst_port):
            host = clients_by_ip.get(ip)
            return host.tracked_ports(dst_ip, dst_port) if host else ()

        self.controller.conntrack = _conntrack
        self.ledger = BandwidthLedger(
            env,
            default_capacity_bps=int(
                config.trunk_bandwidth_bps
                * config.migration_budget_fraction
            ),
        )
        self.manager = MigrationManager(
            env,
            self.name,
            self.controller,
            self.cluster,
            self.egs,
            {f"site{i}": egs_ip(i) for i in range(config.n_sites)},
            self.ledger,
        )
        # Operational surface: same per-site wiring as the monolithic
        # testbed.  Listeners and scheduled ticks are created *here*
        # (post-fork) — Host pickling strips listeners, so the port
        # must open inside the worker.  Both executors run this same
        # setup, so serial/parallel parity is preserved with the ops
        # surface on.
        self.collector: FlowStatsCollector | None = None
        if config.flow_stats_period_s is not None:
            self.collector = FlowStatsCollector(
                env,
                self.name,
                self.switch,
                {f"trunk:{self.name}": trunk_iface.endpoint.link},
                state=self.replica,
                period_s=config.flow_stats_period_s,
                recorder=self.recorder,
            ).start()
        self.ops = OpsReadModel(
            env,
            self.controller,
            site=self.name,
            switches=(self.switch,),
            manager=self.manager,
            collector=self.collector,
        )
        self.ops_app: OpsApp | None = None
        if config.ops_api:
            self.ops_app = OpsApp(self.ops)
            self.egs.open_port(OPS_PORT, self.ops_app)

        for mig in self.replay.migrations:
            if mig.to_site == self.site:
                env.call_at(mig.at_s, self._start_migration, mig)

        # Schedule this site's service registrations and requests.
        for spec in self.replay.services:
            if spec.origin_site == self.site:
                env.call_at(spec.register_at_s, self._register_service, spec)
        for at, client_idx, service_idx, req_id in (
            self.replay.requests_by_site[self.site]
        ):
            env.call_at(at, self._start_request, client_idx, service_idx, req_id)

        # Fault wiring: the plan crossed the fork boundary as plain
        # data; arm it against this site's components only.
        faults = self.replay.faults_by_site
        if faults and faults[self.site] is not None:
            from repro.faults import Injector

            self.injector = Injector(
                _SiteFaultView(self), faults[self.site]
            ).arm()

    # -- wiring helpers ---------------------------------------------------

    def _wire_host(
        self,
        host: Host,
        macs: MACAllocator,
        bandwidth_bps: float,
        latency_s: float,
    ) -> None:
        port_no, iface = self.switch.add_port(macs.allocate())
        Link(self.env, host.iface, iface, bandwidth_bps, latency_s)
        self.topology.register_host(self.switch.datapath_id, host.ip, port_no)

    def _packet_from_backbone(self, packet: "Packet") -> None:
        self.switch.receive(packet, self.trunk_iface)

    # -- workload ---------------------------------------------------------

    def _register_service(self, spec: ServiceSpec) -> None:
        template = template_by_key(spec.key)
        self.controller.register_service(
            template.definition_yaml,
            service_ip(spec.index),
            80,
            template_key=template.key,
        )

    def _start_request(
        self, client_idx: int, service_idx: int, req_id: int
    ) -> None:
        self.issued += 1
        self.env.process(self._run_request(client_idx, service_idx, req_id))

    def _start_migration(self, spec: MigrationSpec) -> None:
        service = self.controller.registry.lookup(
            service_ip(spec.service_index), 80
        )
        if service is None:
            # Registration never replicated in (e.g. faulted replay):
            # identical no-op under both executors.
            return
        self.manager.request_migration(
            service.name, f"site{spec.from_site}", mode=spec.mode
        )

    def _run_request(self, client_idx: int, service_idx: int, req_id: int):
        template = template_by_key(self.replay.services[service_idx].key)
        try:
            result = yield from self.clients[client_idx].http_request(
                service_ip(service_idx),
                80,
                template.request,
                timeout=self.replay.request_timeout_s,
            )
        except Exception as exc:
            self.failed += 1
            self._digest.update(
                f"{req_id}:!{type(exc).__name__}\n".encode("ascii")
            )
            return
        self.completed += 1
        self._digest.update(
            f"{req_id}:{result.time_total:.17g}\n".encode("ascii")
        )

    # -- results ----------------------------------------------------------

    def result(self) -> dict[str, _t.Any]:
        migration_digest = hashlib.md5()
        for o in self.manager.outcomes:
            migration_digest.update(
                f"{o.service_name}:{o.from_site}->{o.to_site}:{o.mode}:"
                f"{o.rounds}:{o.bytes_moved}:{int(o.completed)}:"
                f"{o.failed_phase}:{o.downtime_s:.17g}\n".encode("ascii")
            )
        return {
            "site": self.site,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "latency_md5": self._digest.hexdigest(),
            "migration_md5": migration_digest.hexdigest(),
            "migrations_completed": sum(
                1 for o in self.manager.outcomes if o.completed
            ),
            "migrations_aborted": sum(
                1 for o in self.manager.outcomes if not o.completed
            ),
            "peak_flow_table": int(self.switch.table.peak_size),
            "switch_stats": dict(self.switch.stats),
        }


class _SiteFaultView:
    """Duck-typed testbed view the fault Injector resolves targets on.

    Exposes exactly one site's components (hosts, switch, cluster,
    registries, controller), so a site's fault plan cannot reach
    across the partition boundary.
    """

    def __init__(self, model: SitePartitionModel) -> None:
        self.env = model.env
        self.egs = model.egs
        self.clients = model.clients
        self.clusters = [model.cluster]
        self.switches = {model.switch.datapath_id: model.switch}
        self.public_registry = model.public_registry
        self.private_registry = model.private_registry
        self.active_registry = model.active_registry
        self.controllers = [model.controller]
        self.recorder = model.recorder


class BackbonePartitionModel:
    """The backbone island: switch, static app, cloud, shared-state hub."""

    def __init__(self, replay: TestbedReplay) -> None:
        self.replay = replay

    def setup(self, partition: Partition) -> None:
        self.partition = partition
        env = self.env = partition.env
        config = self.replay.config
        _rebase_conn_ids(partition.spec.index)
        macs = MACAllocator()

        self.switch = OpenFlowSwitch(env, "backbone", datapath_id=1)
        self.topology = SwitchTopology()
        self.app = BackboneApp(env, self.topology)
        self.cloud = CloudHost(env, "cloud", macs.allocate(), cloud_ip())
        cloud_port, cloud_iface = self.switch.add_port(macs.allocate())
        Link(
            env,
            self.cloud.iface,
            cloud_iface,
            config.cloud_link_bandwidth_bps,
            config.cloud_link_latency_s,
        )
        self.topology.set_cloud_port(1, cloud_port)

        # One portal half-link per site trunk; every host of a site is
        # reachable through that site's port.
        self.hub = SharedStateHub(
            env, propagation_delay_s=config.propagation_delay_s
        )
        for site in range(config.n_sites):
            name = f"site{site}"
            port_no, iface = self.switch.add_port(macs.allocate())
            PortalEndpoint(
                partition.portals[channel_id(BACKBONE, name)],
                iface,
                config.trunk_bandwidth_bps,
                config.trunk_latency_s,
            )
            self.topology.register_host(1, egs_ip(site), port_no)
            for j in range(config.clients_per_site):
                self.topology.register_host(1, client_ip(site, j), port_no)
            partition.on_message(
                channel_id(name, BACKBONE),
                partial(self._packet_from_site, iface),
            )
            # Control plane: site writes arrive here having already
            # paid the site -> hub delay (channel lookahead); fan-out
            # to other remote sites pays hub -> site over their portals.
            self.hub.attach_remote(
                name,
                partition.portals[channel_id(BACKBONE, name, "control")].send,
            )
            partition.on_message(
                channel_id(name, BACKBONE, "control"),
                partial(self.hub.deliver, name),
            )

        self.app.attach(
            self.switch, latency_s=config.control_channel_latency_s
        )

        # Cloud side of every service is up from t=0 (the monolithic
        # testbed opens it at registration; opening early only means
        # the cloud answers requests that could not yet arrive).
        _images, behaviors = build_catalog(DEFAULT_CALIBRATION)
        for spec in self.replay.services:
            template = template_by_key(spec.key)
            behavior = behaviors.get(template.images[0].reference)
            factory = behavior.app_factory()
            if factory is not None:
                self.cloud.open_service(
                    service_ip(spec.index), 80, factory(env)
                )

    def _packet_from_site(
        self, iface: "NetworkInterface", packet: "Packet"
    ) -> None:
        self.switch.receive(packet, iface)

    def result(self) -> dict[str, _t.Any]:
        return {
            "switch_stats": dict(self.switch.stats),
            "hub_entries": len(self.hub._values),
        }


# -- topology + runners -----------------------------------------------------

def replay_topology(replay: TestbedReplay) -> TopologySpec:
    """Cut the full testbed at the trunks *and* the control channels.

    Each kind derives its lookahead from its own physical latency
    (``FederationConfig.data_lookahead_s`` /
    ``control_lookahead_s``): data channels ride the trunk, control
    channels ride the shared-state hub's propagation delay — usually
    an order of magnitude wider, so replication traffic never forces
    trunk-sized synchronization rounds.  The adaptive round engine
    piggybacks both kinds' bounds on the same round batch, so the
    kind-suffixed channel pairs cost no extra null messages.
    """
    config = replay.config
    nodes = [NodeSpec(BACKBONE, build_backbone_partition, {"replay": replay})]
    links = []
    for site in range(config.n_sites):
        name = f"site{site}"
        nodes.append(
            NodeSpec(
                name, build_site_partition, {"replay": replay, "site": site}
            )
        )
        links.append(
            CutLink(name, BACKBONE, config.data_lookahead_s, kind="data")
        )
        links.append(
            CutLink(
                name, BACKBONE, config.control_lookahead_s, kind="control"
            )
        )
    return TopologySpec(nodes=tuple(nodes), links=tuple(links))


def build_replay_specs(replay: TestbedReplay) -> list[PartitionSpec]:
    return replay_topology(replay).partitions()


def run_replay(replay: TestbedReplay, parallel: bool = False):
    """Run the full-testbed replay; returns a ``ParallelRun``."""
    from repro.sim.parallel.coordinator import (
        ParallelCoordinator,
        SerialExecutor,
    )

    specs = build_replay_specs(replay)
    executor = ParallelCoordinator(specs) if parallel else SerialExecutor(specs)
    return executor.run(until=replay.horizon_s)


def combined_fingerprint(results: dict[str, _t.Any], n_sites: int) -> str:
    """MD5 over the per-site latency digests in site order."""
    digest = hashlib.md5()
    for site in range(n_sites):
        digest.update(results[f"site{site}"]["latency_md5"].encode("ascii"))
    return digest.hexdigest()


def totals(results: dict[str, _t.Any], n_sites: int) -> dict[str, int]:
    """Aggregate request counters across sites."""
    issued = completed = failed = 0
    for site in range(n_sites):
        issued += results[f"site{site}"]["issued"]
        completed += results[f"site{site}"]["completed"]
        failed += results[f"site{site}"]["failed"]
    return {"issued": issued, "completed": completed, "failed": failed}
