"""Versioned snapshot views of the operational read-model.

Every observable surface of the testbed — services, instances, flows,
breakers, migrations, clusters, switches, link stats — leaves the
control plane as an immutable row.  The REST API, the experiments, and
the schedulers consume *these*, never the live objects, so:

* a snapshot taken mid-dispatch stays self-consistent (nothing mutates
  under the consumer's feet),
* the JSON shape over the wire is exactly the row's fields, and
  :data:`SCHEMA_VERSION` stamps every API payload so clients can
  detect incompatible changes.

A view class exists where the row *reshapes* its source: the seven
below flatten addresses and endpoints to JSON-safe scalars (an
:class:`~repro.net.addressing.IPv4Address` becomes its dotted string)
or gather counters that have no source record.  A migration row and a
link row have no view — their source already is a flat record of
JSON-safe scalars: a copy of the
:class:`~repro.core.migration.MigrationOutcome` and the frozen
:class:`~repro.core.state.LinkStatsRecord` itself.  Every row is
rendered with :func:`dataclasses.asdict`, so a row's fields are its
wire format (``tests/test_ops_api.py`` pins the migration and link
key sets).
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.migration import MigrationOutcome
    from repro.core.state import LinkStatsRecord

__all__ = [
    "SCHEMA_VERSION",
    "BreakerView",
    "ClusterView",
    "FlowView",
    "InstanceView",
    "ServiceRateView",
    "ServiceView",
    "SwitchView",
    "OpsSnapshot",
]

#: Bumped whenever a row gains/loses/renames a field.  Stamped into
#: every API payload as ``schema_version``.
SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class ServiceView:
    """One registered service (``GET /services``)."""

    name: str
    cloud_ip: str
    port: int
    template_key: str | None


@dataclasses.dataclass(frozen=True)
class InstanceView:
    """One known service-instance observation (``GET /instances``)."""

    service_name: str
    cluster_name: str
    site: str
    running: bool
    endpoint_ip: str | None
    endpoint_port: int | None
    distance: int
    observed_at: float


@dataclasses.dataclass(frozen=True)
class FlowView:
    """One memorized (client, service) flow (``GET /flows``)."""

    client_ip: str
    service_name: str
    cluster_name: str
    endpoint_ip: str
    endpoint_port: int
    created_at: float
    #: When the flow expires; ``None`` while a redirect holds it.
    deadline: float | None
    degraded: bool
    degraded_from: str | None


@dataclasses.dataclass(frozen=True)
class BreakerView:
    """One cluster's circuit-breaker state (``GET /breakers``).

    ``transitions`` is the full timestamped history —
    ``(sim_time, from_state, to_state)`` triples — so an operator can
    reconstruct exactly when the cluster was excluded and readmitted.
    """

    cluster: str
    state: str
    consecutive_failures: int
    opened_at: float
    opens: int
    closes: int
    probes: int
    transitions: tuple[tuple[float, str, str], ...]


@dataclasses.dataclass(frozen=True)
class ClusterView:
    """One local edge cluster's node state (``GET /clusters``)."""

    name: str
    distance: int
    capacity: int | None
    running_count: int


@dataclasses.dataclass(frozen=True)
class SwitchView:
    """One switch's counters and table occupancy (``GET /clusters``)."""

    name: str
    datapath_id: int
    table_size: int
    table_peak: int
    table_epoch: int
    rx: int
    tx: int
    miss: int
    drop: int
    punt: int


@dataclasses.dataclass(frozen=True)
class ServiceRateView:
    """Per-service packet rate over the collector's last window
    (``GET /metrics/links``), derived from redirect/intercept flow
    cookie counters."""

    site: str
    service_name: str
    observed_at: float
    window_s: float
    packets_per_s: float


@dataclasses.dataclass(frozen=True)
class OpsSnapshot:
    """The whole observable surface at one instant (``snapshot()``)."""

    schema_version: int
    site: str
    now: float
    services: tuple[ServiceView, ...]
    instances: tuple[InstanceView, ...]
    flows: tuple[FlowView, ...]
    breakers: tuple[BreakerView, ...]
    migrations: tuple[MigrationOutcome, ...]
    clusters: tuple[ClusterView, ...]
    switches: tuple[SwitchView, ...]
    links: tuple[LinkStatsRecord, ...]
    service_rates: tuple[ServiceRateView, ...]
    controller_stats: dict[str, int]
