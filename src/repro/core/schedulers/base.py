"""Scheduler interface types."""

from __future__ import annotations

import abc
import dataclasses
import typing as _t

from repro.cluster.base import EdgeCluster
from repro.core.service_registry import EdgeService
from repro.net.addressing import IPv4Address


@dataclasses.dataclass(frozen=True)
class ClusterState:
    """What the Dispatcher tells the scheduler about one cluster."""

    cluster: EdgeCluster
    #: An instance is up and answering.
    running: bool
    #: Create has happened (containers / Deployment exist).
    created: bool
    #: All images are in the local cache.
    cached: bool
    #: Room for a (new) instance of this service.
    has_capacity: bool = True
    #: The cluster's circuit breaker is open: recent deployments kept
    #: failing and the cooldown has not elapsed — not a candidate.
    blocked: bool = False
    #: The breaker is half-open: the cluster may take a probe
    #: deployment, but schedulers prefer healthy peers at equal rank.
    degraded: bool = False
    #: Load on the path toward this cluster, from the observability
    #: read-model's replicated link-utilization rows (0.0 when no
    #: collector runs).  Candidate views read it from here — never
    #: from private ``Link`` attributes — so utilization-aware
    #: schedulers (LinUCB-style) see the same numbers everywhere.
    utilization: float = 0.0

    @property
    def distance(self) -> int:
        return self.cluster.distance

    @property
    def eligible(self) -> bool:
        """Can this cluster serve the request (now or after deploying)?"""
        return (self.running or self.has_capacity) and not self.blocked


@dataclasses.dataclass(frozen=True)
class Decision:
    """The scheduler's two choices.

    ``best is None`` means BEST equals FAST (with-waiting semantics);
    ``fast is None`` means forward the current request to the cloud.
    """

    fast: EdgeCluster | None
    best: EdgeCluster | None = None


@dataclasses.dataclass(frozen=True)
class ClientInfo:
    """Client location data tracked by the Dispatcher."""

    ip: IPv4Address
    datapath_id: int
    in_port: int
    last_seen: float


class GlobalScheduler(abc.ABC):
    """Chooses the edge cluster(s) for a request (fig. 6, left)."""

    @abc.abstractmethod
    def choose(
        self,
        service: EdgeService,
        states: _t.Sequence[ClusterState],
        client: ClientInfo,
    ) -> Decision:
        """Return the FAST/BEST decision for this request."""
