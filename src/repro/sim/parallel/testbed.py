"""The *real* federated testbed sharded onto the parallel kernel.

Each site's :class:`~repro.testbed.site.Site` stack runs inside its
own partition, and the :class:`~repro.testbed.site.Backbone` island
(switch, static app, cloud host, shared-state hub) in one more — the
very builders the monolithic
:class:`~repro.testbed.federation.FederatedTestbed` puts into one event
loop.  Only the two seams are wired differently:

* the trunk :class:`~repro.net.link.Link` between a site switch and
  the backbone becomes two :class:`HalfLinkEndpoint` halves, one per
  partition: the transmitter is :class:`~repro.net.link.LinkEndpoint`
  itself, the propagation leg rides the cut-edge channel (lookahead =
  trunk latency);
* shared-state replication rides a second, ``control``-kind channel
  per site: the site's :class:`~repro.core.federation.ReplicaLink`
  ships its writes into the control portal, and the hub fans out to
  the site through the portal back (:meth:`SharedStateHub.attach`) —
  each leg paying exactly the ``propagation_delay_s`` the in-process
  hub charges (lookahead = propagation delay).

What the monolith has once per federation, a partition has for itself:
catalog and registries (pull traffic is site-local; the profiles make
it deterministic), recorder and bandwidth ledger.  Addresses are
computed, not allocated, so no object crosses the fork boundary.

Build-in-worker: partitions are constructed *inside* the forked worker
from a picklable :class:`TestbedReplay` (config + service schedule +
request schedule — plain data, no env-bound objects).  Because the
serial executor and the parallel coordinator drive the identical
partition builds through the identical round algorithm, latency traces
are byte-identical by construction — gated in
``tests/test_parallel_testbed.py``.  A replay is registrations and
requests only: faults and live migrations run on the monolith.

Determinism notes:

* request/service schedules are generated up front in
  :func:`build_replay` from integer-seeded per-site RNGs — no draws
  happen during the run, so completion interleaving cannot perturb
  the workload;
* host connection ids come from disjoint per-partition ranges (the
  module counter is re-based per partition index), so two sites'
  clients can never collide at a shared server's ``conn_id`` demux —
  in serial and parallel execution alike.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import typing as _t
from functools import partial

import repro.net.host as _host_mod
from repro.core import LowLatencyScheduler
from repro.core.federation import ReplicaLink, SiteReplica
from repro.metrics import MetricsRecorder
from repro.net.addressing import IPv4Address
from repro.net.device import NetworkInterface
from repro.net.link import LinkEndpoint
from repro.net.packet import Packet
from repro.services.catalog import template_by_key
from repro.sim import Environment
from repro.sim.parallel.partition import ChannelSpec, Partition, PartitionSpec
from repro.testbed.site import (
    BACKBONE,
    Backbone,
    Catalog,
    FederationConfig,
    Site,
    TrunkWiring,
    migration_ledger,
)

__all__ = [
    "HalfLinkEndpoint",
    "ServiceSpec",
    "TestbedReplay",
    "build_backbone_partition",
    "build_replay",
    "build_replay_specs",
    "build_site_partition",
]

#: Conn-id range width per partition: disjoint blocks far above any
#: realistic connection count, so ids never collide across sites.
_CONN_ID_STRIDE = 1 << 40

#: The services every replay registers, in service-index order.
SERVICE_KEYS = ("asm", "nginx")
#: A client gives up on a request after this many simulated seconds.
REQUEST_TIMEOUT_S = 60.0


# -- deterministic addressing (no objects cross the fork boundary) ---------

#: Each site owns the /24 ``10.0.<site+1>.0``; clients start at ``.10``.
MAX_SITES = 254
MAX_CLIENTS_PER_SITE = 245


def egs_ip(site: int) -> IPv4Address:
    """Site ``site``'s EGS address: ``10.0.<site+1>.1``."""
    return IPv4Address(0x0A000000 + ((site + 1) << 8) + 1)


def client_ip(site: int, client: int) -> IPv4Address:
    """Client ``client`` at ``site``: ``10.0.<site+1>.<10+client>``."""
    return IPv4Address(0x0A000000 + ((site + 1) << 8) + 10 + client)


def host_ips(config: FederationConfig, site: int) -> list[IPv4Address]:
    """Every host at ``site``: its EGS first, then its clients."""
    return [egs_ip(site)] + [
        client_ip(site, j) for j in range(config.clients_per_site)
    ]


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
class TestbedReplay:
    """Picklable plan for one full-testbed partitioned run.

    Everything a forked worker needs to build its partition: the
    federation shape, the service registration schedule, and every
    site's request schedule — plain data derived once (deterministic)
    in :func:`build_replay`.
    """

    config: FederationConfig
    services: tuple[ServiceSpec, ...]
    #: Per site: tuple of (issue time, client index, service index,
    #: request id) in issue order.
    requests_by_site: tuple[
        tuple[tuple[float, int, int, int], ...], ...
    ]
    horizon_s: float
    seed: int

    @property
    def n_sites(self) -> int:
        return self.config.n_sites


def build_replay(
    config: FederationConfig,
    n_requests: int = 40,
    duration_s: float = 4.0,
    seed: int = 42,
    request_start_s: float = 2.0,
) -> TestbedReplay:
    """Derive the deterministic replay plan for ``config``.

    Services register early (site0 first, the last site second when
    the federation has one) so registration + replication + intercept
    installation settle before the request window opens at
    ``request_start_s``.  Both cut latencies must be positive: each is
    the lookahead of a channel pair, and at zero no safe window exists.
    """
    if config.n_sites > MAX_SITES:
        raise ValueError(
            f"n_sites={config.n_sites} exceeds the replay's address plan: "
            f"at most {MAX_SITES} sites (one /24 each under 10.0.0.0/16)"
        )
    if config.clients_per_site > MAX_CLIENTS_PER_SITE:
        raise ValueError(
            f"clients_per_site={config.clients_per_site} exceeds the "
            f"replay's address plan: at most {MAX_CLIENTS_PER_SITE} clients "
            f"fit a site's /24 (10.0.<site+1>.10 upward)"
        )
    for field in ("trunk_latency_s", "propagation_delay_s"):
        value = getattr(config, field)
        if value <= 0:
            raise ValueError(
                f"{field}={value!r} must be positive: it is the lookahead "
                f"of the channels the replay cuts at, and conservative "
                f"synchronization has no safe window at zero"
            )
    services = []
    for i, key in enumerate(SERVICE_KEYS):
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


class HalfLinkEndpoint(LinkEndpoint):
    """The near side of a trunk cut at its propagation leg.

    :class:`~repro.net.link.LinkEndpoint`'s transmitter with no local
    latency: its one heap entry per packet fires at the end of
    serialization, the hand-off instant, and sends the packet across
    with ``arrival_ts=now + latency_s``, when a whole link's arrival
    would fire; the far side hands it to its device with ``receive``.
    Where the hand-off falls among same-instant entries is invisible:
    it only appends to the channel's outbox, which leaves between
    rounds in arrival order.

    The endpoint is its own ``link`` (``down``, ``bandwidth_bps``, read
    by a handover and the flow-stats collector), with fixed parameters
    and ``peer = None``.
    """

    __slots__ = ("send", "env", "bandwidth_bps", "latency_s", "down")

    def __init__(
        self,
        env: Environment,
        iface: NetworkInterface,
        bandwidth_bps: float,
        latency_s: float,
        send: _t.Callable[..., None],
    ) -> None:
        self.send = send
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.down = False
        super().__init__(self, iface)
        iface.endpoint = self
        # The propagation leg is the channel's: the entry fires at the
        # end of serialization (``end + 0.0`` is ``end``).
        self._lat = 0.0

    def _deliver(self, packet: Packet) -> None:
        self.send(packet, arrival_ts=self._env._now + self.latency_s)


def _cut_trunk(
    partition: Partition, channel: str, config: FederationConfig
) -> TrunkWiring:
    """The near half of a trunk whose far half is across ``channel``."""
    send = partition.portals[channel].send
    return lambda iface: HalfLinkEndpoint(
        partition.env,
        iface,
        config.trunk_bandwidth_bps,
        config.trunk_latency_s,
        send,
    )


def build_site_partition(
    replay: TestbedReplay, site: int
) -> "SitePartitionModel":
    return SitePartitionModel(replay, site)


def build_backbone_partition(replay: TestbedReplay) -> "BackbonePartitionModel":
    return BackbonePartitionModel(replay)


class SitePartitionModel:
    """One site's full stack in its own partition, plus its share of
    the replay's schedule."""

    def __init__(self, replay: TestbedReplay, site: int) -> None:
        self.replay = replay
        self.site = site
        self.name = f"site{site}"
        self.issued = 0
        self.completed = 0
        self.failed = 0
        self._digest = hashlib.md5()

    def setup(self, partition: Partition) -> None:
        env = self.env = partition.env
        replay = self.replay
        config = replay.config
        _rebase_conn_ids(partition.spec.index)

        # Shared state: writes leave through the control portal, the
        # hub's fan-out comes back in through the link's ``deliver``.
        replica: SiteReplica
        replica = SiteReplica(
            self.name,
            ReplicaLink(
                self.name,
                partition.portals[_control(self.name, BACKBONE)].send,
                lambda update: replica.apply_remote(update),
            ),
        )
        stack = self.stack = Site(
            env,
            self.site,
            config,
            wire_trunk=_cut_trunk(partition, _data(self.name, BACKBONE), config),
            replica=replica,
            catalog=Catalog(env, registry=config.registry),
            egs_ip=egs_ip(self.site),
            client_ips=[
                client_ip(self.site, j) for j in range(config.clients_per_site)
            ],
            scheduler=LowLatencyScheduler(),
            recorder=MetricsRecorder(),
        )
        self.clients = stack.clients
        self.recorder = stack.recorder
        self.controller = stack.controller
        partition.on_message(_control(BACKBONE, self.name), replica.link.deliver)
        partition.on_message(_data(BACKBONE, self.name), stack.receive_from_trunk)
        for other in range(config.n_sites):
            if other != self.site:
                stack.reach_via_trunk(host_ips(config, other))
        stack.attach()
        stack.start_ops(
            {f"site{i}": egs_ip(i) for i in range(config.n_sites)},
            migration_ledger(env, config),
        )

        # This site's share of the schedule.
        for spec in replay.services:
            if spec.origin_site == self.site:
                env.call_at(spec.register_at_s, self._register_service, spec)
        for at, client_idx, service_idx, req_id in (
            replay.requests_by_site[self.site]
        ):
            env.call_at(at, self._start_request, client_idx, service_idx, req_id)

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

    def _run_request(self, client_idx: int, service_idx: int, req_id: int):
        template = template_by_key(self.replay.services[service_idx].key)
        try:
            result = yield from self.clients[client_idx].http_request(
                service_ip(service_idx),
                80,
                template.request,
                timeout=REQUEST_TIMEOUT_S,
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
        switch = self.stack.switch
        return {
            "site": self.site,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "latency_md5": self._digest.hexdigest(),
            "peak_flow_table": int(switch.table.peak_size),
            "switch_stats": dict(switch.stats),
        }


class BackbonePartitionModel:
    """The backbone island in its own partition, every trunk cut."""

    def __init__(self, replay: TestbedReplay) -> None:
        self.replay = replay

    def setup(self, partition: Partition) -> None:
        env = partition.env
        config = self.replay.config
        _rebase_conn_ids(partition.spec.index)
        backbone = self.backbone = Backbone(env, config)
        for site in range(config.n_sites):
            name = f"site{site}"
            iface = backbone.add_trunk_port(name)
            _cut_trunk(partition, _data(BACKBONE, name), config)(iface)
            backbone.route_hosts(name, host_ips(config, site))
            partition.on_message(
                _data(name, BACKBONE),
                partial(backbone.switch.receive, iface=iface),
            )
            # Control plane: site writes arrive here having already
            # paid the site -> hub delay (channel lookahead); fan-out
            # to the other sites pays hub -> site over their portals.
            backbone.hub.attach(
                name, partition.portals[_control(BACKBONE, name)].send
            )
            partition.on_message(
                _control(name, BACKBONE), partial(backbone.hub.deliver, name)
            )
        backbone.attach()

        # Cloud side of every service is up from t=0 (the monolithic
        # testbed opens it at registration; opening early only means
        # the cloud answers requests that could not yet arrive).
        catalog = Catalog(env)
        for spec in self.replay.services:
            catalog.serve_from_cloud(
                backbone.cloud, template_by_key(spec.key), service_ip(spec.index)
            )

    def result(self) -> dict[str, _t.Any]:
        return {"switch_stats": dict(self.backbone.switch.stats)}


# -- the cut ----------------------------------------------------------------

def _data(src: str, dst: str) -> str:
    """The channel a trunk's packets cross from ``src`` to ``dst``."""
    return f"{src}->{dst}"


def _control(src: str, dst: str) -> str:
    """The channel shared-state updates cross from ``src`` to ``dst``."""
    return f"{src}->{dst}#control"


def build_replay_specs(replay: TestbedReplay) -> list[PartitionSpec]:
    """The partitions of ``replay``: the backbone (index 0), then the sites.

    Each site meets the backbone over two channel pairs: the trunk's
    (lookahead ``trunk_latency_s``) and the shared-state hub's
    (``#control``, lookahead ``propagation_delay_s``, usually an order
    of magnitude wider).  Every partition's channels are sorted by id.
    """
    config = replay.config

    def pair(src: str, dst: str) -> tuple[ChannelSpec, ChannelSpec]:
        return (
            ChannelSpec(_data(src, dst), config.trunk_latency_s),
            ChannelSpec(_control(src, dst), config.propagation_delay_s),
        )

    def by_id(channels: _t.Iterable[ChannelSpec]) -> tuple[ChannelSpec, ...]:
        return tuple(sorted(channels, key=lambda c: c.channel_id))

    sites = [f"site{i}" for i in range(config.n_sites)]
    up = {name: pair(name, BACKBONE) for name in sites}
    down = {name: pair(BACKBONE, name) for name in sites}
    specs = [
        PartitionSpec(
            BACKBONE,
            0,
            build_backbone_partition,
            {"replay": replay},
            out_channels=by_id(c for name in sites for c in down[name]),
            in_channels=by_id(c for name in sites for c in up[name]),
        )
    ]
    for site, name in enumerate(sites):
        specs.append(
            PartitionSpec(
                name,
                site + 1,
                build_site_partition,
                {"replay": replay, "site": site},
                out_channels=up[name],
                in_channels=down[name],
            )
        )
    return specs


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
