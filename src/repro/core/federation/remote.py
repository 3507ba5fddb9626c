"""Remote instance views presented to the scheduler as clusters.

The Global Scheduler stays a pure function over
:class:`~repro.core.schedulers.base.ClusterState` sequences — it never
learns about federation.  A :class:`RemoteClusterView` wraps one
replicated :class:`~repro.core.state.InstanceRecord` in just enough of
the :class:`~repro.cluster.base.EdgeCluster` surface for scheduling
and redirection: name, distance, running state and endpoint.  It has
no deployment verbs, because deployments are the owning site's job.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.base import ServiceEndpoint
from repro.core.state import InstanceRecord

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.cluster.plan import DeploymentPlan


class RemoteClusterView:
    """A running instance at another site, seen through shared state.

    Named ``"{site}/{cluster}"`` so memorized flows and metrics keys
    say where the traffic went (local cluster names must not contain
    ``"/"``).  Its cluster state never has room (``has_capacity`` is
    False): a remote site is a redirect target only while its instance
    is *running* — this site never deploys there (each site's
    dispatcher owns exactly its own clusters), which the
    :attr:`~repro.core.schedulers.base.ClusterState.eligible` rule
    encodes for free.
    """

    __slots__ = ("record", "distance")

    def __init__(self, record: InstanceRecord, distance_penalty: int) -> None:
        self.record = record
        #: The owning site's view of its cluster distance, pushed out
        #: by the extra cross-site backbone hops.
        self.distance = record.distance + distance_penalty

    @property
    def name(self) -> str:
        return f"{self.record.site}/{self.record.cluster_name}"

    # -- what the scheduler and redirection read -------------------------

    def is_running(self, plan: "DeploymentPlan") -> bool:
        return self.record.running

    def endpoint(self, plan: "DeploymentPlan") -> ServiceEndpoint | None:
        return self.record.endpoint

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self.record.running else "stopped"
        return f"<RemoteClusterView {self.name} {state} d={self.distance}>"
