"""Federated (multi-site) control plane.

``repro.core.federation`` shards the monolithic edge controller into
per-site :class:`SiteController` instances that coordinate only
through a replicated :class:`SharedStateHub` — the paper's
architecture scaled out to many gNB sites with explicit state-
propagation latency, stale-view accounting, and graceful degradation
under control-plane partitions.
"""

from repro.core.federation.remote import RemoteClusterView
from repro.core.federation.site import SiteController, SiteDispatcher
from repro.core.federation.state import (
    ReplicaLink,
    SharedStateHub,
    SiteReplica,
    VersionStamp,
)

__all__ = [
    "RemoteClusterView",
    "ReplicaLink",
    "SharedStateHub",
    "SiteController",
    "SiteDispatcher",
    "SiteReplica",
    "VersionStamp",
]
