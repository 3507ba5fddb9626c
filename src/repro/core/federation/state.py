"""The shared control-plane state: hub, per-site replicas, versioning.

The federated control plane replicates three stores across sites —
registered services, client locations, and instance views — through a
logically centralised **shared-state service** (etcd/Redis in a real
deployment, :class:`SharedStateHub` here).  Memorized flows and
circuit breakers stay site-local (each site owns its switches and its
failure detectors outright).

Consistency model (DESIGN.md §9):

* Every replicated entry is a **last-writer-wins register** stamped
  with a :class:`VersionStamp` — a Lamport clock paired with the
  writing site's id, compared lexicographically, so concurrent writes
  resolve identically (and deterministically) everywhere.
* A site **reads its own writes** immediately: local writes apply to
  the site replica before they start propagating.
* Propagation is asynchronous with explicit simulated latency:
  ``propagation_delay_s`` one-way to the hub, the same again from the
  hub to every other replica — remote sites observe a write after two
  one-way delays.  Until then their views are *stale*, which the
  dispatcher surfaces as ``stale_redirects`` metrics rather than
  hiding.
* A **partition** between a site and the hub (``ReplicaLink.down``)
  buffers traffic in both directions — the site's outbound writes in
  the link's outbox, the hub's fan-out in a per-site inbox — and the
  site degrades to serving from its local view.  Healing the link
  drains both buffers in FIFO order, each message paying the normal
  one-way delay; last-writer-wins stamps make the replay convergent.
"""

from __future__ import annotations

import typing as _t

from repro.core.state.base import (
    ControlPlaneState,
    InstanceRecord,
    LinkStatsRecord,
)
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.schedulers.base import ClientInfo
    from repro.core.service_registry import EdgeService

__all__ = [
    "HubLike",
    "RemoteHubHandle",
    "ReplicaLink",
    "SharedStateHub",
    "SiteReplica",
    "VersionStamp",
]


class VersionStamp(_t.NamedTuple):
    """Lamport-clock version of one replicated entry.

    Compared lexicographically: higher Lamport time wins, site id
    breaks ties — every replica resolves a conflict the same way.
    """

    lamport: int
    site: str


#: (store domain, entry key) — the unit of versioning.
StateKey = _t.Tuple[str, _t.Any]

#: One replicated write in flight: domain, key, value, stamp.
StateUpdate = _t.Tuple[str, _t.Any, _t.Any, VersionStamp]


class HubLike(_t.Protocol):
    """What a :class:`SiteReplica`'s link needs from "the hub".

    In the monolithic testbed this is the :class:`SharedStateHub`
    itself; under the partitioned kernel each site partition holds a
    :class:`RemoteHubHandle` that forwards writes over a control
    channel instead.
    """

    def submit(self, origin: str, update: StateUpdate) -> None: ...

    def on_link_restored(self, site: str) -> None: ...

    def version_of(self, domain: str, key: _t.Any) -> "VersionStamp | None": ...


class ReplicaLink:
    """The (partitionable) channel between one site and the hub.

    Duck-types the ``down`` flag of a data-plane link so the fault
    injector's :class:`~repro.faults.plan.LinkPartition` can target it
    by name via the testbed's ``named_links`` table.  While down,
    site-to-hub writes queue in :attr:`outbox` and hub-to-site
    deliveries queue in :attr:`inbox`; setting ``down = False`` drains
    both (FIFO, each message paying the normal one-way delay).
    """

    def __init__(self, env: Environment, hub: HubLike, site: str) -> None:
        self.env = env
        self.hub = hub
        self.site = site
        self._down = False
        self.outbox: list[StateUpdate] = []
        self.inbox: list[StateUpdate] = []
        #: Diagnostics: how often the link was partitioned.
        self.partitions = 0

    @property
    def down(self) -> bool:
        return self._down

    @down.setter
    def down(self, value: bool) -> None:
        value = bool(value)
        if value == self._down:
            return
        self._down = value
        if value:
            self.partitions += 1
        else:
            self.hub.on_link_restored(self.site)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self._down else "up"
        return f"<ReplicaLink {self.site}<->shared-state {state}>"


class SharedStateHub:
    """The logically centralised shared-state service.

    Holds the authoritative (most recently arrived, LWW-resolved)
    version of every replicated entry and fans writes out to all other
    site replicas.  The authoritative versions let the metrics layer
    ask "was this site's view stale when it decided?" without
    perturbing the data path.
    """

    def __init__(
        self, env: Environment, propagation_delay_s: float = 0.025
    ) -> None:
        if propagation_delay_s < 0:
            raise ValueError("propagation_delay_s must be >= 0")
        self.env = env
        #: One-way site -> hub (and hub -> site) latency.
        self.propagation_delay_s = float(propagation_delay_s)
        self.replicas: dict[str, SiteReplica] = {}
        #: Remote (cross-partition) sites: site name -> send callable
        #: shipping one update over that site's control channel.
        self._remote_sites: dict[
            str, _t.Callable[[StateUpdate], None]
        ] = {}
        self._versions: dict[StateKey, VersionStamp] = {}

    # -- wiring ------------------------------------------------------------

    def connect(self, site: str) -> "SiteReplica":
        """Create (and register) the replica for one site."""
        if site in self.replicas:
            raise ValueError(f"site {site!r} already connected")
        replica = SiteReplica(self.env, site, ReplicaLink(self.env, self, site))
        self.replicas[site] = replica
        return replica

    def attach_remote(
        self, site: str, send: _t.Callable[[StateUpdate], None]
    ) -> None:
        """Register a site living in *another partition*.

        The hub never holds a replica object for a remote site — just a
        ``send`` callable that ships one :data:`StateUpdate` over the
        site's control channel (the partitioned kernel wires it to a
        portal whose lookahead is :attr:`propagation_delay_s`, so the
        hub -> site leg pays exactly the in-process delay).
        """
        if site in self.replicas or site in self._remote_sites:
            raise ValueError(f"site {site!r} already connected")
        self._remote_sites[site] = send

    # -- write propagation -------------------------------------------------

    def submit(self, origin: str, update: StateUpdate) -> None:
        """A site's write arriving over its (up) link."""
        self.env.call_later(
            self.propagation_delay_s, self.deliver, origin, update
        )

    def deliver(self, origin: str, update: StateUpdate) -> None:
        """One write *arriving at the hub* (site -> hub delay already
        paid): LWW-stamp it, then fan out to every other site — local
        replicas via ``call_later``, remote partitions via their
        control-channel send."""
        domain, key, _value, stamp = update
        state_key = (domain, key)
        current = self._versions.get(state_key)
        if current is None or stamp > current:
            self._versions[state_key] = stamp
        for site, replica in self.replicas.items():
            if site == origin:
                continue
            link = replica.link
            if link.down:
                link.inbox.append(update)
            else:
                self.env.call_later(
                    self.propagation_delay_s, replica.apply_remote, update
                )
        for site, send in self._remote_sites.items():
            if site == origin:
                continue
            send(update)

    def on_link_restored(self, site: str) -> None:
        """Drain both directions of a healed site link."""
        replica = self.replicas[site]
        link = replica.link
        outbox, link.outbox = link.outbox, []
        for update in outbox:
            self.submit(site, update)
        inbox, link.inbox = link.inbox, []
        for update in inbox:
            self.env.call_later(
                self.propagation_delay_s, replica.apply_remote, update
            )

    # -- authoritative reads (metrics / tests) -----------------------------

    def version_of(self, domain: str, key: _t.Any) -> VersionStamp | None:
        return self._versions.get((domain, key))


class SiteReplica(ControlPlaneState):
    """One site's replica of the shared control-plane state.

    The plain :class:`~repro.core.state.ControlPlaneState` plus
    replication: the stores and every read are inherited, so each
    component (registry, flow memory, dispatcher, controller) runs
    unmodified against it; the five writes are overridden.  Replicated
    writes apply locally first (read-your-writes), then travel
    ``site -> hub -> other sites`` with one one-way delay per leg;
    incoming remote writes apply through last-writer-wins version
    comparison.
    """

    def __init__(self, env: Environment, site: str, link: ReplicaLink) -> None:
        super().__init__()
        self.env = env
        self.site = site
        self.link = link
        self._clock = 0
        self._versions: dict[StateKey, VersionStamp] = {}
        #: Separate Lamport stream for the observability (linkstats)
        #: domain: link-utilization publishing must never advance the
        #: data-path clock, or enabling the collector would shift the
        #: VersionStamps of service/client/instance writes and could
        #: flip LWW winners — breaking the md5-neutrality guarantee.
        self._stats_clock = 0
        self._stats_versions: dict[StateKey, VersionStamp] = {}
        #: Fired when a *remote* write adds/removes a service —
        #: the site controller uses these to (un)install intercepts.
        self.on_service_added: _t.Callable[[EdgeService], None] | None = None
        self.on_service_removed: _t.Callable[[EdgeService], None] | None = None
        #: Fired when a *remote* write changes an instance record — the
        #: site controller uses this to heal flows pinned to an
        #: instance another site just withdrew (migration release).
        self.on_instance_changed: _t.Callable[[InstanceRecord], None] | None = None

    # -- write plumbing ----------------------------------------------------

    def _local_write(self, domain: str, key: _t.Any, value: _t.Any) -> None:
        self._clock += 1
        stamp = VersionStamp(self._clock, self.site)
        self._versions[(domain, key)] = stamp
        self._apply(domain, key, value, remote=False)
        update: StateUpdate = (domain, key, value, stamp)
        if self.link.down:
            self.link.outbox.append(update)
        else:
            self.link.hub.submit(self.site, update)

    def apply_remote(self, update: StateUpdate) -> None:
        domain, key, value, stamp = update
        if domain == "linkstats":
            self._apply_remote_stats(key, value, stamp)
            return
        if stamp.lamport > self._clock:
            self._clock = stamp.lamport
        state_key = (domain, key)
        current = self._versions.get(state_key)
        if current is not None and stamp <= current:
            return  # stale or duplicate delivery: LWW keeps ours
        self._versions[state_key] = stamp
        self._apply(domain, key, value, remote=True)

    def _apply(
        self, domain: str, key: _t.Any, value: _t.Any, remote: bool
    ) -> None:
        if domain == "service":
            if value is None:
                service = self._by_address.pop(key, None)
                if service is not None:
                    self._by_name.pop(service.name, None)
                    if remote and self.on_service_removed is not None:
                        self.on_service_removed(service)
            else:
                self._by_address[key] = value
                self._by_name[value.name] = value
                if remote and self.on_service_added is not None:
                    self.on_service_added(value)
        elif domain == "client":
            self._clients[key] = value
        elif domain == "instance":
            self._instances[key] = value
            if remote and self.on_instance_changed is not None:
                self.on_instance_changed(value)
        else:  # pragma: no cover - new domains must be wired here
            raise ValueError(f"unknown state domain {domain!r}")

    def _apply_remote_stats(
        self, key: _t.Any, value: _t.Any, stamp: VersionStamp
    ) -> None:
        """LWW-apply a remote linkstats write on the *stats* clock."""
        if stamp.lamport > self._stats_clock:
            self._stats_clock = stamp.lamport
        state_key: StateKey = ("linkstats", key)
        current = self._stats_versions.get(state_key)
        if current is not None and stamp <= current:
            return
        self._stats_versions[state_key] = stamp
        self._link_stats[key] = value

    # -- staleness introspection (metrics only) ----------------------------

    def instance_is_stale(
        self, service_name: str, site: str, cluster_name: str
    ) -> bool:
        """Has the hub accepted a newer version of this instance entry
        than the one this site decided on?  (Metrics only — the data
        path never peeks at the hub.)"""
        key = (service_name, site, cluster_name)
        authoritative = self.link.hub.version_of("instance", key)
        if authoritative is None:
            return False
        return self._versions.get(("instance", key)) != authoritative

    # -- the five writes, replicated ---------------------------------------

    def put_service(self, service: "EdgeService") -> None:
        self._local_write("service", service.address, service)

    def remove_service(self, service: "EdgeService") -> None:
        self._local_write("service", service.address, None)

    def put_client(self, info: "ClientInfo") -> None:
        """Record a client observation.

        Only *location changes* (new client, or a different datapath)
        replicate — per-packet ``last_seen`` refreshes stay local, so
        steady-state traffic costs no propagation events.
        """
        previous = self._clients.get(info.ip)
        if previous is None or previous.datapath_id != info.datapath_id:
            self._local_write("client", info.ip, info)
        else:
            self._clients[info.ip] = info

    def publish_instance(self, record: InstanceRecord) -> None:
        key = (record.service_name, record.site, record.cluster_name)
        self._local_write("instance", key, record)

    def instance(
        self, service_name: str, site: str, cluster_name: str
    ) -> InstanceRecord | None:
        return self._instances.get((service_name, site, cluster_name))

    def publish_link_stats(self, record: LinkStatsRecord) -> None:
        """Publish a link observation on the dedicated stats clock.

        Same propagation path as every replicated write (local apply,
        then site -> hub -> other sites), but versioned on
        :attr:`_stats_clock` so the data-path Lamport stream is
        untouched whether or not the collector runs.
        """
        key = (record.site, record.link)
        self._stats_clock += 1
        stamp = VersionStamp(self._stats_clock, self.site)
        self._stats_versions[("linkstats", key)] = stamp
        self._link_stats[key] = record
        update: StateUpdate = ("linkstats", key, record, stamp)
        if self.link.down:
            self.link.outbox.append(update)
        else:
            self.link.hub.submit(self.site, update)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SiteReplica {self.site} clock={self._clock}>"


class RemoteHubHandle:
    """A site partition's stand-in for the (remote) shared-state hub.

    Satisfies :class:`HubLike` so a :class:`SiteReplica` runs
    unmodified inside a forked worker:

    * :meth:`submit` ships the update over the site's outbound control
      channel (the portal's lookahead is the propagation delay, so the
      site -> hub leg costs exactly what :meth:`SharedStateHub.submit`
      charges in-process);
    * :meth:`version_of` answers ``None`` — the authoritative versions
      live in the backbone partition, so staleness introspection
      degrades to "never stale".  Crucially it degrades *identically*
      under the serial executor and the parallel coordinator (both run
      the same partitioned build), so parity gating is unaffected;
    * :meth:`on_link_restored` drains the site link's outbox through
      :meth:`submit` (hub-to-site inbox draining is the backbone
      partition's job).
    """

    def __init__(self, send: _t.Callable[[StateUpdate], None]) -> None:
        self._send = send
        #: Bound after the ReplicaLink exists (the two reference each
        #: other); needed only to drain the outbox on link heal.
        self.link: ReplicaLink | None = None

    def submit(self, origin: str, update: StateUpdate) -> None:
        self._send(update)

    def on_link_restored(self, site: str) -> None:
        link = self.link
        if link is None:  # pragma: no cover - wiring error
            return
        outbox, link.outbox = link.outbox, []
        for update in outbox:
            self.submit(site, update)

    def version_of(self, domain: str, key: _t.Any) -> VersionStamp | None:
        return None
