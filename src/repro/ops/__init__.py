"""Operational control plane: REST API, flow-stats collection, and the
unified observability read-model.

Layering (bottom up):

1. components expose raw introspection (counters, tables, state),
2. :class:`FlowStatsCollector` periodically derives link-utilization
   and per-service rate windows and replicates them,
3. :class:`OpsReadModel` renders everything into the immutable rows of
   :mod:`repro.ops.model`,
4. :class:`OpsApp` serves those views over simulated HTTP on
   :data:`OPS_PORT` of every site's EGS host.

Everything here is read-only with respect to the data path: enabling
the ops surface leaves replay latency fingerprints byte-identical
(gated by ``tests/test_ops_api.py``).
"""

from repro.ops.api import OPS_PORT, OpsApp
from repro.ops.collector import DEFAULT_BYTES_PER_PACKET, FlowStatsCollector
from repro.ops.model import (
    SCHEMA_VERSION,
    BreakerView,
    ClusterView,
    FlowView,
    InstanceView,
    OpsSnapshot,
    ServiceRateView,
    ServiceView,
    SwitchView,
)
from repro.ops.readmodel import OpsReadModel

__all__ = [
    "OPS_PORT",
    "OpsApp",
    "DEFAULT_BYTES_PER_PACKET",
    "FlowStatsCollector",
    "OpsReadModel",
    "SCHEMA_VERSION",
    "BreakerView",
    "ClusterView",
    "FlowView",
    "InstanceView",
    "OpsSnapshot",
    "ServiceRateView",
    "ServiceView",
    "SwitchView",
]
