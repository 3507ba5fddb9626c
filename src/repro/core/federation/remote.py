"""Remote instance views presented to the scheduler as clusters.

The Global Scheduler stays a pure function over
:class:`~repro.core.schedulers.base.ClusterState` sequences — it never
learns about federation.  A :class:`RemoteClusterView` wraps one
replicated :class:`~repro.core.state.InstanceRecord` in just enough of
the :class:`~repro.cluster.base.EdgeCluster` surface for scheduling
and redirection; anything that would *operate* on the remote cluster
(pull / create / scale-up) raises, because deployments are the owning
site's job.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.base import DeployError, ServiceEndpoint
from repro.core.state import InstanceRecord

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.services.definition import DeploymentPlan


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

    # -- read-only EdgeCluster surface -------------------------------------

    def is_running(self, plan: "DeploymentPlan") -> bool:
        return self.record.running

    def is_created(self, plan: "DeploymentPlan") -> bool:
        return self.record.running

    def image_cached(self, plan: "DeploymentPlan") -> bool:
        return self.record.running

    def endpoint(self, plan: "DeploymentPlan") -> ServiceEndpoint | None:
        return self.record.endpoint

    def running_services(self) -> set[str]:
        return {self.record.service_name} if self.record.running else set()

    # -- mutations are the owning site's business --------------------------

    def _refuse(self, verb: str) -> _t.NoReturn:
        raise DeployError(
            f"{self.name}: cannot {verb} through a remote view — "
            f"deployments belong to site {self.record.site!r}"
        )

    def pull(self, plan: "DeploymentPlan") -> "_t.Generator[_t.Any, _t.Any, None]":  # pragma: no cover - guarded
        self._refuse("pull")
        yield  # unreachable; keeps the generator protocol

    def create(self, plan: "DeploymentPlan") -> "_t.Generator[_t.Any, _t.Any, None]":  # pragma: no cover - guarded
        self._refuse("create")
        yield

    def scale_up(self, plan: "DeploymentPlan") -> "_t.Generator[_t.Any, _t.Any, None]":  # pragma: no cover - guarded
        self._refuse("scale up")
        yield

    def scale_down(self, plan: "DeploymentPlan") -> "_t.Generator[_t.Any, _t.Any, None]":
        """No-op: the owning site's idle tracking scales it down."""
        return
        yield  # pragma: no cover - generator protocol

    def wait_ready(self, plan: "DeploymentPlan", **_kwargs: _t.Any) -> "_t.Generator[_t.Any, _t.Any, bool]":
        """A replicated *running* record is by definition ready."""
        return self.record.running
        yield  # pragma: no cover - generator protocol

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self.record.running else "stopped"
        return f"<RemoteClusterView {self.name} {state} d={self.distance}>"
