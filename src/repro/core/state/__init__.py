"""Typed control-plane state (DESIGN.md §9).

:class:`ControlPlaneState` holds every mutable controller store in
plain dicts — the single-controller configuration.  The federated,
replicated configuration subclasses it in
:mod:`repro.core.federation.state`.
"""

from repro.core.state.base import (
    ControlPlaneState,
    InstanceRecord,
    LinkStatsRecord,
)

__all__ = [
    "ControlPlaneState",
    "InstanceRecord",
    "LinkStatsRecord",
]
