"""The unified observability read-model.

One object per site binds every introspectable layer — controller and
dispatcher counters, the typed control-plane state, switch/link
counters, breaker machines, migration outcomes, the metrics recorder,
and the flow-stats collector — and renders them into the immutable rows
of :mod:`repro.ops.model`.  The REST API serves these views verbatim;
experiments and schedulers that used to reach into component internals
read them here instead, so there is exactly one definition of "what
the system looks like right now".

Strictly read-only: every accessor takes an instantaneous snapshot
with plain attribute/dict reads — no events scheduled, no simulated
messages, no RNG — so an enabled read-model can never perturb replay
fingerprints.
"""

from __future__ import annotations

import dataclasses
import typing as _t

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

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.controller import EdgeController
    from repro.core.migration import MigrationManager, MigrationOutcome
    from repro.core.state import LinkStatsRecord
    from repro.net.openflow.switch import OpenFlowSwitch
    from repro.ops.collector import FlowStatsCollector
    from repro.sim import Environment

__all__ = ["OpsReadModel"]


class OpsReadModel:
    """Read-only snapshot factory over one site's full stack."""

    def __init__(
        self,
        env: "Environment",
        controller: "EdgeController",
        site: str = "local",
        switches: "_t.Collection[OpenFlowSwitch]" = (),
        manager: "MigrationManager | None" = None,
        collector: "FlowStatsCollector | None" = None,
    ) -> None:
        self.env = env
        self.controller = controller
        self.site = site
        # Held as given (may be a live dict-values view, so switches
        # attached after construction show up in snapshots).
        self.switches_list = switches
        self.manager = manager
        self.collector = collector

    # -- service registrations ---------------------------------------------

    def services(self) -> tuple[ServiceView, ...]:
        return tuple(
            ServiceView(
                name=service.name,
                cloud_ip=str(service.cloud_ip),
                port=service.port,
                template_key=service.template_key,
            )
            for service in self.controller.state.services()
        )

    # -- instances ----------------------------------------------------------

    def instances(self) -> tuple[InstanceView, ...]:
        """Every known instance: replicated observations merged with
        the local clusters' ground truth (which wins for this site —
        the single-controller build never publishes records, and a
        replica's own rows can lag its clusters)."""
        state = self.controller.state
        views: dict[tuple[str, str, str], InstanceView] = {}
        for service in state.services():
            for record in state.instances_for(service.name):
                endpoint = record.endpoint
                views[(record.service_name, record.site, record.cluster_name)] = (
                    InstanceView(
                        service_name=record.service_name,
                        cluster_name=record.cluster_name,
                        site=record.site,
                        running=record.running,
                        endpoint_ip=(
                            str(endpoint.ip) if endpoint is not None else None
                        ),
                        endpoint_port=(
                            endpoint.port if endpoint is not None else None
                        ),
                        distance=record.distance,
                        observed_at=record.observed_at,
                    )
                )
        now = self.env.now
        for service in state.services():
            for cluster in self.controller.clusters:
                if not cluster.is_running(service.plan):
                    continue
                endpoint = cluster.endpoint(service.plan)
                views[(service.name, self.site, cluster.name)] = InstanceView(
                    service_name=service.name,
                    cluster_name=cluster.name,
                    site=self.site,
                    running=True,
                    endpoint_ip=str(endpoint.ip) if endpoint is not None else None,
                    endpoint_port=endpoint.port if endpoint is not None else None,
                    distance=cluster.distance,
                    observed_at=now,
                )
        return tuple(views[key] for key in sorted(views))

    # -- memorized flows -----------------------------------------------------

    def flows(self) -> tuple[FlowView, ...]:
        rows: list[FlowView] = []
        for flow in self.controller.state.flows.values():
            rows.append(
                FlowView(
                    client_ip=str(flow.client_ip),
                    service_name=flow.service.name,
                    cluster_name=flow.cluster_name,
                    endpoint_ip=str(flow.endpoint.ip),
                    endpoint_port=flow.endpoint.port,
                    created_at=flow.created_at,
                    deadline=flow.deadline,
                    degraded=flow.degraded,
                    degraded_from=flow.degraded_from,
                )
            )
        rows.sort(key=lambda v: (v.client_ip, v.service_name))
        return tuple(rows)

    # -- circuit breakers ----------------------------------------------------

    def breakers(self) -> tuple[BreakerView, ...]:
        views: list[BreakerView] = []
        for name in sorted(self.controller.state.breakers):
            breaker = self.controller.state.breakers[name]
            views.append(
                BreakerView(
                    cluster=name,
                    state=breaker.state.value,
                    consecutive_failures=breaker.consecutive_failures,
                    opened_at=breaker.opened_at,
                    opens=breaker.stats["opens"],
                    closes=breaker.stats["closes"],
                    probes=breaker.stats["probes"],
                    transitions=tuple(breaker.transitions),
                )
            )
        return tuple(views)

    # -- migrations ----------------------------------------------------------

    def migrations(self) -> "tuple[MigrationOutcome, ...]":
        """Copies: the manager keeps writing to an outcome until the
        migration ends, and a snapshot must not change under its
        consumer."""
        if self.manager is None:
            return ()
        return tuple(dataclasses.replace(o) for o in self.manager.outcomes)

    # -- cluster / node state ------------------------------------------------

    def clusters(self) -> tuple[ClusterView, ...]:
        return tuple(
            ClusterView(
                name=cluster.name,
                distance=cluster.distance,
                capacity=cluster.capacity,
                running_count=len(cluster.running_services()),
            )
            for cluster in sorted(
                self.controller.clusters, key=lambda c: c.name
            )
        )

    def switches(self) -> tuple[SwitchView, ...]:
        return tuple(
            SwitchView(
                name=switch.name,
                datapath_id=switch.datapath_id,
                table_size=len(switch.table),
                table_peak=int(switch.table.peak_size),
                table_epoch=switch.table.epoch,
                rx=switch.stats["rx"],
                tx=switch.stats["tx"],
                miss=switch.stats["miss"],
                drop=switch.stats["drop"],
                punt=switch.stats["punt"],
            )
            for switch in sorted(self.switches_list, key=lambda s: s.name)
        )

    # -- link stats ------------------------------------------------------------

    def link_stats(self) -> "tuple[LinkStatsRecord, ...]":
        """Federation-wide link rows: the replicated state's view (this
        site's publishes apply locally first, so it always includes our
        own; the collector publishes every row it observes there)."""
        return tuple(self.controller.state.link_stats())

    def service_rates(self) -> tuple[ServiceRateView, ...]:
        if self.collector is None:
            return ()
        return self.collector.service_rate_views()

    # -- recorder metrics ------------------------------------------------------

    def metrics(self) -> dict[str, _t.Any]:
        """Counters + per-name sample summaries + controller stats."""
        recorder = self.controller.recorder
        summaries: dict[str, _t.Any] = {}
        for name in recorder.names():
            summaries[name] = recorder.summary(name).as_dict()
        return {
            "schema_version": SCHEMA_VERSION,
            "site": self.site,
            "now": self.env.now,
            "counters": recorder.counters(),
            "summaries": summaries,
            "controller_stats": dict(self.controller.stats),
        }

    # -- the whole surface -----------------------------------------------------

    def snapshot(self) -> OpsSnapshot:
        return OpsSnapshot(
            schema_version=SCHEMA_VERSION,
            site=self.site,
            now=self.env.now,
            services=self.services(),
            instances=self.instances(),
            flows=self.flows(),
            breakers=self.breakers(),
            migrations=self.migrations(),
            clusters=self.clusters(),
            switches=self.switches(),
            links=self.link_stats(),
            service_rates=self.service_rates(),
            controller_stats=dict(self.controller.stats),
        )
