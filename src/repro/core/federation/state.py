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
  the link's outbox, the hub's fan-out in its inbox — and the site
  degrades to serving from its local view.  Healing the link drains
  both buffers in FIFO order, each message paying the normal one-way
  delay; last-writer-wins stamps make the replay convergent.
"""

from __future__ import annotations

import typing as _t
from functools import partial

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

#: One leg of a site's link: ships an update one way and charges the
#: one-way propagation delay itself (a ``call_later`` in one event
#: loop, a control portal's ``send`` on the sharded kernel).
Leg = _t.Callable[[StateUpdate], None]


class ReplicaLink:
    """The (partitionable) channel between one site and the hub.

    Two legs: :meth:`send` ships a site's write over ``to_hub``,
    :meth:`deliver` a hub fan-out over ``to_site``.  Duck-types the
    ``down`` flag of a data-plane link so the fault injector's
    :class:`~repro.faults.plan.LinkPartition` can target it by name via
    the testbed's ``named_links`` table.  While down, writes queue in
    :attr:`outbox` and fan-outs in :attr:`inbox`; setting ``down =
    False`` drains both (outbox first, each FIFO, each message paying
    the normal one-way delay).
    """

    def __init__(self, site: str, to_hub: Leg, to_site: Leg) -> None:
        self.site = site
        self.to_hub = to_hub
        self.to_site = to_site
        self._down = False
        self.outbox: list[StateUpdate] = []
        self.inbox: list[StateUpdate] = []
        #: Diagnostics: how often the link was partitioned.
        self.partitions = 0

    def send(self, update: StateUpdate) -> None:
        """One write leaving the site for the hub."""
        if self._down:
            self.outbox.append(update)
        else:
            self.to_hub(update)

    def deliver(self, update: StateUpdate) -> None:
        """One write fanned out by the hub toward the site."""
        if self._down:
            self.inbox.append(update)
        else:
            self.to_site(update)

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
            return
        outbox, self.outbox = self.outbox, []
        for update in outbox:
            self.to_hub(update)
        inbox, self.inbox = self.inbox, []
        for update in inbox:
            self.to_site(update)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self._down else "up"
        return f"<ReplicaLink {self.site}<->shared-state {state}>"


class SharedStateHub:
    """The logically centralised shared-state service.

    Holds the authoritative (most recently arrived, LWW-resolved)
    version of every replicated entry and fans writes out to all other
    sites.  The authoritative versions let the metrics layer ask "was
    this site's view stale when it decided?" without perturbing the
    data path.
    """

    def __init__(
        self, env: Environment, propagation_delay_s: float = 0.025
    ) -> None:
        if propagation_delay_s < 0:
            raise ValueError("propagation_delay_s must be >= 0")
        self.env = env
        #: One-way site -> hub (and hub -> site) latency.
        self.propagation_delay_s = float(propagation_delay_s)
        #: Site name -> the hub -> site leg of that site, in the order
        #: the sites attached (the fan-out order).
        self._to_sites: dict[str, Leg] = {}
        self._versions: dict[StateKey, VersionStamp] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, site: str, to_site: Leg) -> None:
        """Fan every other site's writes out to ``site`` over ``to_site``.

        :meth:`connect` attaches a replica in this event loop; the
        sharded kernel attaches a site in another partition with its
        control portal's ``send``, whose lookahead is
        :attr:`propagation_delay_s`.
        """
        if site in self._to_sites:
            raise ValueError(f"site {site!r} already connected")
        self._to_sites[site] = to_site

    def connect(self, site: str) -> "SiteReplica":
        """Create the replica for one site in this event loop."""
        replica: SiteReplica
        link = ReplicaLink(
            site,
            partial(self.submit, site),
            lambda update: self.env.call_later(
                self.propagation_delay_s, replica.apply_remote, update
            ),
        )
        self.attach(site, link.deliver)
        replica = SiteReplica(site, link, hub=self)
        return replica

    # -- write propagation -------------------------------------------------

    def submit(self, origin: str, update: StateUpdate) -> None:
        """A site's write leaving over its (up) link in this loop."""
        self.env.call_later(
            self.propagation_delay_s, self.deliver, origin, update
        )

    def deliver(self, origin: str, update: StateUpdate) -> None:
        """One write *arriving at the hub* (site -> hub delay already
        paid): LWW-stamp it, then fan out to every other site."""
        domain, key, _value, stamp = update
        state_key = (domain, key)
        current = self._versions.get(state_key)
        if current is None or stamp > current:
            self._versions[state_key] = stamp
        for site, to_site in self._to_sites.items():
            if site != origin:
                to_site(update)

    # -- authoritative reads (metrics / tests) -----------------------------

    def version_of(self, domain: str, key: _t.Any) -> VersionStamp | None:
        return self._versions.get((domain, key))


class _Lamport:
    """One Lamport clock and the stamp each key holds under it."""

    __slots__ = ("site", "clock", "stamps")

    def __init__(self, site: str) -> None:
        self.site = site
        self.clock = 0
        self.stamps: dict[StateKey, VersionStamp] = {}

    def stamp(self, key: StateKey) -> VersionStamp:
        """Tick for a local write to ``key``."""
        self.clock += 1
        stamp = self.stamps[key] = VersionStamp(self.clock, self.site)
        return stamp

    def accept(self, key: StateKey, stamp: VersionStamp) -> bool:
        """Witness a remote write to ``key``; whether it wins (LWW)."""
        if stamp.lamport > self.clock:
            self.clock = stamp.lamport
        current = self.stamps.get(key)
        if current is not None and stamp <= current:
            return False  # stale or duplicate delivery: LWW keeps ours
        self.stamps[key] = stamp
        return True


class SiteReplica(ControlPlaneState):
    """One site's replica of the shared control-plane state.

    The plain :class:`~repro.core.state.ControlPlaneState` plus
    replication: the stores and every read are inherited, so each
    component (registry, flow memory, dispatcher, controller) runs
    unmodified against it; the five writes are overridden.  Replicated
    writes apply locally first (read-your-writes), then travel
    ``site -> hub -> other sites`` over :attr:`link`, with one one-way
    delay per leg; incoming remote writes apply through last-writer-wins
    version comparison.

    ``hub`` is the hub in this event loop, if any; only
    :meth:`instance_is_stale` reads it, and without one no view is
    stale.
    """

    def __init__(
        self,
        site: str,
        link: ReplicaLink,
        hub: SharedStateHub | None = None,
    ) -> None:
        super().__init__()
        self.site = site
        self.link = link
        self.hub = hub
        self._lamport = _Lamport(site)
        #: Separate Lamport stream for the observability (linkstats)
        #: domain: link-utilization publishing must never advance the
        #: data-path clock, or enabling the collector would shift the
        #: VersionStamps of service/client/instance writes and could
        #: flip LWW winners — breaking the md5-neutrality guarantee.
        self._stats_lamport = _Lamport(site)
        #: Fired when a *remote* write adds/removes a service —
        #: the site controller uses these to (un)install intercepts.
        self.on_service_added: _t.Callable[[EdgeService], None] | None = None
        self.on_service_removed: _t.Callable[[EdgeService], None] | None = None
        #: Fired when a *remote* write changes an instance record — the
        #: site controller uses this to heal flows pinned to an
        #: instance another site just withdrew (migration release).
        self.on_instance_changed: _t.Callable[[InstanceRecord], None] | None = None

    # -- write plumbing ----------------------------------------------------

    def _clock_of(self, domain: str) -> _Lamport:
        return self._stats_lamport if domain == "linkstats" else self._lamport

    def _local_write(self, domain: str, key: _t.Any, value: _t.Any) -> None:
        stamp = self._clock_of(domain).stamp((domain, key))
        self._apply(domain, key, value, remote=False)
        self.link.send((domain, key, value, stamp))

    def apply_remote(self, update: StateUpdate) -> None:
        domain, key, value, stamp = update
        if self._clock_of(domain).accept((domain, key), stamp):
            self._apply(domain, key, value, remote=True)

    def _apply(
        self, domain: str, key: _t.Any, value: _t.Any, remote: bool
    ) -> None:
        """Write into the local stores with the plain state's own writes,
        then tell the site controller what a remote write changed."""
        hook: _t.Callable[[_t.Any], None] | None = None
        if domain == "service":
            if value is None:
                value = self._by_address.get(key)
                if value is None:
                    return
                super().remove_service(value)
                hook = self.on_service_removed
            else:
                super().put_service(value)
                hook = self.on_service_added
        elif domain == "client":
            super().put_client(value)
        elif domain == "instance":
            super().publish_instance(value)
            hook = self.on_instance_changed
        elif domain == "linkstats":
            super().publish_link_stats(value)
        else:  # pragma: no cover - new domains must be wired here
            raise ValueError(f"unknown state domain {domain!r}")
        if remote and hook is not None:
            hook(value)

    # -- staleness introspection (metrics only) ----------------------------

    def instance_is_stale(
        self, service_name: str, site: str, cluster_name: str
    ) -> bool:
        """Has the hub accepted a newer version of this instance entry
        than the one this site decided on?  (Metrics only — the data
        path never peeks at the hub.)"""
        if self.hub is None:
            return False
        key = ("instance", (service_name, site, cluster_name))
        authoritative = self.hub.version_of(*key)
        if authoritative is None:
            return False
        return self._lamport.stamps.get(key) != authoritative

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
            super().put_client(info)

    def publish_instance(self, record: InstanceRecord) -> None:
        key = (record.service_name, record.site, record.cluster_name)
        self._local_write("instance", key, record)

    def instance(
        self, service_name: str, site: str, cluster_name: str
    ) -> InstanceRecord | None:
        return self._instances.get((service_name, site, cluster_name))

    def publish_link_stats(self, record: LinkStatsRecord) -> None:
        """Publish a link observation on the dedicated stats clock."""
        self._local_write("linkstats", (record.site, record.link), record)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SiteReplica {self.site} clock={self._lamport.clock}>"
