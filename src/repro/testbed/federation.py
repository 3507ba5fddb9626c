"""The federated multi-site testbed (Extension D1) in one event loop.

*n* :class:`~repro.testbed.site.Site` stacks and one
:class:`~repro.testbed.site.Backbone` (see :mod:`repro.testbed.site`
for the topology), wired with whole trunk links and replicas connected
straight to the hub.  What exists once per federation here — catalog
and registries, IP pools, recorder, bandwidth ledger — is shared by
every site.
"""

from __future__ import annotations

import typing as _t

from repro.cluster import EdgeCluster
from repro.core import GlobalScheduler, LowLatencyScheduler
from repro.core.federation import SiteController
from repro.core.service_registry import EdgeService
from repro.net import Host, Link
from repro.net.openflow import OpenFlowSwitch
from repro.services import DEFAULT_CALIBRATION, ServiceTemplate
from repro.testbed.site import (
    BACKBONE,
    SHARED_STATE,
    Backbone,
    BaseTestbed,
    FederationConfig,
    Site,
    migration_ledger,
)


#: Slack :meth:`FederatedTestbed.settle_replication` adds past a full
#: propagation.
REPLICATION_MARGIN_S = 0.01


class FederatedTestbed(BaseTestbed):
    """*n* sites, *n* controllers, one shared state, one backbone."""

    def __init__(self, config: FederationConfig | None = None) -> None:
        self.config = config or FederationConfig()
        super().__init__(DEFAULT_CALIBRATION, self.config.registry)

        self.backbone = Backbone(self.env, self.config)
        self.cloud = self.backbone.cloud
        self.sites = [
            self._build_site(index, LowLatencyScheduler())
            for index in range(self.config.n_sites)
        ]
        self.switches: dict[int, OpenFlowSwitch] = {1: self.backbone.switch}
        self.clusters: list[EdgeCluster] = []
        self.clients: list[Host] = []
        #: Logical links the fault injector can partition by name pair,
        #: e.g. ``("site0", "shared-state")``.
        self.named_links: dict[tuple[str, str], _t.Any] = {}
        for site in self.sites:
            self.switches.update(site.switches)
            self.clusters.append(site.cluster)
            self.clients.extend(site.clients)
            self.named_links[(site.name, BACKBONE)] = site.trunk_link
            self.named_links[(site.name, SHARED_STATE)] = site.replica.link

        # Every site knows every remote host through its trunk; the
        # backbone knows every host through the owning site's port.
        for site in self.sites:
            ips = site.host_ips()
            self.backbone.route_hosts(site.name, ips)
            for other in self.sites:
                if other is not site:
                    other.reach_via_trunk(ips)

        # Controllers attach last: routes install from final topologies.
        self.backbone.attach()
        for site in self.sites:
            site.attach()

        self.ledger = migration_ledger(self.env, self.config)
        peers = {site.name: site.egs.ip for site in self.sites}
        for site in self.sites:
            site.start_ops(peers, self.ledger)
        self.settle(0.1)

    def _build_site(self, index: int, scheduler: GlobalScheduler) -> Site:
        config = self.config
        name = f"site{index}"
        backbone_iface = self.backbone.add_trunk_port(name)
        return Site(
            self.env,
            index,
            config,
            wire_trunk=lambda iface: Link(
                self.env,
                iface,
                backbone_iface,
                config.trunk_bandwidth_bps,
                config.trunk_latency_s,
            ),
            replica=self.backbone.hub.connect(name),
            catalog=self,
            egs_ip=self._ips.allocate(),
            client_ips=[
                self._ips.allocate() for _ in range(config.clients_per_site)
            ],
            scheduler=scheduler,
            recorder=self.recorder,
        )

    # -- conveniences shared with the classic testbed ----------------------

    @property
    def controllers(self) -> list[SiteController]:
        return [site.controller for site in self.sites]

    def settle_replication(self) -> None:
        """Advance past one full site -> hub -> peers propagation."""
        self.settle(2 * self.config.propagation_delay_s + REPLICATION_MARGIN_S)

    def site_of(self, client: Host) -> Site:
        for site in self.sites:
            if client in site.clients:
                return site
        raise ValueError(f"{client.name!r} belongs to no site")

    # -- service management ------------------------------------------------

    def register_template(
        self,
        template: ServiceTemplate,
        wait_replication: bool = True,
    ) -> EdgeService:
        """Register one catalog service at site0 and serve it from the
        cloud.  Registration replicates to every other site, which
        installs its intercepts when the write lands; by default this
        blocks until the propagation is done."""
        service = self._register_catalog(self.sites[0].controller, template)
        if wait_replication:
            self.settle_replication()
        else:
            self.settle(0.005)
        return service

    # -- client mobility ---------------------------------------------------

    def move_client(self, client: Host, target: Site) -> None:
        """Hand a client over to another site's gNB (same IP).

        The origin site clears the client's redirect flows and
        memorized resolutions, every topology repoints at the new
        location, and the backbone route follows — the next request is
        re-resolved by the *target* site's controller.
        """
        origin = self.site_of(client)
        if origin is target:
            return
        old_endpoint = client.iface.endpoint
        if old_endpoint is not None:
            old_endpoint.link.down = True
            client.iface.endpoint = None
        origin.clients.remove(client)
        port_no = target.add_client(client)
        # Repoint every other view of the client's location.
        self.backbone.route_hosts(target.name, [client.ip])
        for site in self.sites:
            if site is not target:
                site.reach_via_trunk([client.ip])
        # Origin tears down stale flows + memory; target installs
        # routes and learns the new attachment, so subsequent proactive
        # re-dispatches (migration healing) can install eagerly there.
        origin.controller.update_client_location(client.ip)
        target.controller.update_client_location(
            client.ip, target.switch.datapath_id, port_no
        )
        self.backbone.app.install_host_routes(client.ip)
        self.settle(0.05)
