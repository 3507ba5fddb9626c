"""Per-site controller and dispatcher.

A :class:`SiteController` is an :class:`~repro.core.controller.EdgeController`
that owns exactly one site — its gNB switches, its clusters, its flow
memory and breakers — and coordinates with peers only through its
:class:`~repro.core.federation.state.SiteReplica`:

* deployments it performs are announced as instance records,
* peers' running instances show up in scheduling as
  :class:`~repro.core.federation.remote.RemoteClusterView` candidates,
* services registered anywhere get intercept flows installed here when
  the registration replicates in,
* while the site's shared-state link is partitioned it degrades to the
  local view: local instances (and the cloud) keep serving, remote
  candidates vanish, and every write queues for the heal.
"""

from __future__ import annotations

import typing as _t

from repro.core.controller import EdgeController
from repro.core.dispatcher import Dispatcher, Resolution
from repro.core.federation.remote import RemoteClusterView
from repro.core.federation.state import SiteReplica
from repro.core.flow_memory import MemorizedFlow
from repro.core.schedulers.base import ClientInfo, ClusterState, GlobalScheduler
from repro.core.service_registry import EdgeService, ServiceRegistry
from repro.core.state import InstanceRecord
from repro.metrics import MetricsRecorder
from repro.services.calibration import Calibration, DEFAULT_CALIBRATION
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.cluster.base import EdgeCluster
    from repro.core.controller import SwitchTopology


class SiteDispatcher(Dispatcher):
    """A dispatcher that blends replicated remote instances into the
    local scheduler's view.

    Local clusters keep the full lifecycle (deploy, breakers,
    capacity); remote sites appear as running-only redirect candidates
    at a distance penalty.  When the replica's shared-state link is
    down the remote candidates disappear — the site serves from what
    it knows locally and counts the degradation instead of failing.
    """

    def __init__(
        self,
        env: Environment,
        clusters: "_t.Sequence[EdgeCluster]",
        scheduler: GlobalScheduler,
        flow_memory: _t.Any,
        *,
        replica: SiteReplica,
        remote_distance_penalty: int = 2,
        **kwargs: _t.Any,
    ) -> None:
        super().__init__(env, clusters, scheduler, flow_memory, **kwargs)
        self.replica = replica
        #: Extra scheduler distance for crossing the backbone.
        self.remote_distance_penalty = remote_distance_penalty

    def gather_states(self, service: EdgeService) -> list[ClusterState]:
        states = super().gather_states(service)
        if self.replica.link.down:
            return states  # partition: local view only
        remote_util: dict[str, float] | None = None
        for record in self.replica.instances_for(service.name):
            if record.site == self.site:
                continue  # our own announcements; already local
            if not record.running or record.endpoint is None:
                continue
            if remote_util is None:
                # Remote candidates carry the publishing site's worst
                # replicated link utilization — the read-model view,
                # never a poke into a Link object this site can't see.
                remote_util = {}
                for row in self.replica.link_stats():
                    if row.utilization > remote_util.get(row.site, 0.0):
                        remote_util[row.site] = row.utilization
            states.append(
                ClusterState(
                    cluster=_t.cast(
                        "EdgeCluster",
                        RemoteClusterView(record, self.remote_distance_penalty),
                    ),
                    running=True,
                    created=True,
                    cached=True,
                    has_capacity=False,
                    utilization=remote_util.get(record.site, 0.0),
                )
            )
        return states

    def resolve(
        self, service: EdgeService, client: ClientInfo
    ) -> "_t.Generator[_t.Any, _t.Any, Resolution]":
        """Resolve as usual, then account for federation effects:
        serves made on a partitioned (local-only) view, redirects that
        crossed sites, and redirects made on a provably stale view."""
        if self.replica.link.down:
            self.recorder.count(f"degraded_serves/{self.site}")
        resolution: Resolution = yield from super().resolve(service, client)
        remote_site, sep, remote_cluster = resolution.cluster_name.partition("/")
        if sep:
            self.recorder.count(f"cross_site_redirects/{self.site}")
            if self.replica.instance_is_stale(
                service.name, remote_site, remote_cluster
            ):
                self.recorder.count(f"stale_redirects/{self.site}")
        return resolution


class SiteController(EdgeController):
    """One site's edge controller in the federated control plane."""

    def __init__(
        self,
        env: Environment,
        registry: ServiceRegistry,
        clusters: "_t.Sequence[EdgeCluster]",
        scheduler: GlobalScheduler,
        topology: "SwitchTopology",
        replica: SiteReplica,
        calibration: Calibration = DEFAULT_CALIBRATION,
        auto_scale_down: bool = True,
        recorder: MetricsRecorder | None = None,
        remote_distance_penalty: int = 2,
    ) -> None:
        for cluster in clusters:
            if "/" in cluster.name:
                raise ValueError(
                    f"local cluster name {cluster.name!r} may not contain "
                    "'/' — that separator marks remote views"
                )
        # Set before super().__init__: _make_dispatcher needs the replica.
        self.replica = replica
        self.remote_distance_penalty = remote_distance_penalty
        super().__init__(
            env,
            registry,
            clusters,
            scheduler,
            topology,
            calibration=calibration,
            auto_scale_down=auto_scale_down,
            recorder=recorder,
            state=replica,
            on_instance_change=replica.publish_instance,
            site=replica.site,
            name=f"controller-{replica.site}",
        )
        replica.on_service_added = self._on_remote_service_added
        replica.on_service_removed = self._on_remote_service_removed
        replica.on_instance_changed = self._on_remote_instance_changed

    def _make_dispatcher(
        self,
        env: Environment,
        clusters: "_t.Sequence[EdgeCluster]",
        scheduler: GlobalScheduler,
        on_instance_change: _t.Callable[[InstanceRecord], None] | None,
        site: str,
    ) -> Dispatcher:
        return SiteDispatcher(
            env,
            clusters,
            scheduler,
            self.flow_memory,
            replica=self.replica,
            remote_distance_penalty=self.remote_distance_penalty,
            recorder=self.recorder,
            calibration=self.calibration,
            state=self.state,
            on_instance_change=on_instance_change,
            site=site,
        )

    # -- service replication -------------------------------------------------

    def _on_remote_service_added(self, service: EdgeService) -> None:
        """A peer site registered a service: intercept its traffic on
        every switch this site owns (the local registry already sees it
        — both read the same replica)."""
        for datapath in self.datapaths.values():
            self._install_intercept(datapath, service)

    def _on_remote_service_removed(self, service: EdgeService) -> None:
        """A peer site unregistered a service: drop its intercepts,
        redirects, and memorized flows here.  Local deployments are
        torn down by the idle scale-down machinery as flows expire."""
        self._remove_service_flows(service)

    def _on_remote_instance_changed(self, record: InstanceRecord) -> None:
        """A peer announced an instance transition.  When a remote
        instance this site has flows pinned to is *withdrawn* (a
        migration released its source, or a site scaled down), re-drive
        those clients through the dispatcher immediately instead of
        letting them idle out against a dead endpoint.  By the
        make-before-break ordering the destination's running record
        always replicates in before the source's withdrawal, so the
        re-resolution lands on the new instance."""
        if record.running:
            return
        withdrawn = f"{record.site}/{record.cluster_name}"
        service = self.replica.service_named(record.service_name)
        if service is None:
            return
        for flow in self.flow_memory.flows_for_service(service):
            if flow.cluster_name != withdrawn:
                continue
            self.flow_memory.forget(flow)
            self.env.spawn(
                self._redispatch(flow.service, flow.client_ip),
                name=f"heal:{flow.service.name}:{flow.client_ip}",
            )

    # -- remote-aware flow liveness ------------------------------------------

    def _endpoint_alive(self, flow: MemorizedFlow) -> bool:
        remote_site, sep, cluster_name = flow.cluster_name.partition("/")
        if not sep:
            return super()._endpoint_alive(flow)
        record = self.replica.instance(flow.service.name, remote_site, cluster_name)
        return (
            record is not None
            and record.running
            and record.endpoint == flow.endpoint
        )
