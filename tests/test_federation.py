"""Tests for the distributed control plane (Extension D1).

Three layers:

* the replicated state machinery (LWW convergence, propagation
  latency, partition buffering),
* the federated testbed end to end (cross-site serving, handover,
  stale-view accounting),
* chaos: a site partitioned from shared state keeps serving from its
  local view with zero client-visible errors.
"""

from __future__ import annotations

import pytest

from repro.cluster.base import ServiceEndpoint
from repro.core.federation import (
    RemoteClusterView,
    ReplicaLink,
    SharedStateHub,
    SiteReplica,
    VersionStamp,
)
from repro.core.state import InstanceRecord, LinkStatsRecord
from repro.net.addressing import IPv4Address
from repro.net.openflow import Output
from repro.services.catalog import NGINX
from repro.sim import Environment
from repro.testbed import FederatedTestbed, FederationConfig


def _record(site="site0", cluster="site0-docker", running=True, port=20000):
    return InstanceRecord(
        service_name="svc",
        cluster_name=cluster,
        site=site,
        running=running,
        endpoint=ServiceEndpoint(ip=IPv4Address.parse("10.0.0.1"), port=port)
        if running
        else None,
        distance=0,
        observed_at=0.0,
    )


class TestSharedState:
    def _hub(self, delay=0.025):
        env = Environment()
        hub = SharedStateHub(env, propagation_delay_s=delay)
        return env, hub, hub.connect("site0"), hub.connect("site1")

    def test_read_your_writes_is_immediate(self):
        env, hub, a, b = self._hub()
        a.publish_instance(_record())
        assert a.instances_for("svc")  # visible locally at once
        assert b.instances_for("svc") == []  # not yet remotely

    def test_propagation_takes_two_one_way_delays(self):
        env, hub, a, b = self._hub(delay=0.025)
        a.publish_instance(_record())
        env.run(until=0.049)
        assert b.instances_for("svc") == []
        env.run(until=0.051)
        assert len(b.instances_for("svc")) == 1

    def test_last_writer_wins_converges_both_orders(self):
        env, hub, a, b = self._hub()
        a.publish_instance(_record(running=True, port=20000))
        env.run(until=0.2)
        b.publish_instance(_record(running=False))
        env.run(until=0.4)
        ra = a.instances_for("svc")[0]
        rb = b.instances_for("svc")[0]
        assert ra == rb
        assert ra.running is False  # b's write carried the higher clock

    def test_version_stamps_order_lexicographically(self):
        assert VersionStamp(2, "site0") > VersionStamp(1, "site9")
        assert VersionStamp(1, "site1") > VersionStamp(1, "site0")

    def test_stale_delivery_is_discarded(self):
        env, hub, a, b = self._hub()
        a.publish_instance(_record(running=True))
        env.run(until=0.2)
        # b writes a newer version; a's old update arriving later at b
        # must not clobber it.
        b.publish_instance(_record(running=False))
        a.apply_remote(("instance", ("svc", "site0", "site0-docker"),
                        _record(running=True), VersionStamp(1, "site0")))
        assert b.instances_for("svc")[0].running is False

    def test_partition_buffers_and_heals_both_directions(self):
        env, hub, a, b = self._hub()
        a.link.down = True
        a.publish_instance(_record())  # outbound: queued at a
        b.publish_instance(_record(site="site1", cluster="site1-docker"))
        env.run(until=0.2)
        assert len(a.link.outbox) == 1  # a -> hub queued
        assert len(a.link.inbox) == 1  # hub -> a fan-out queued
        assert b.instances_for("svc") == [] or all(
            r.site == "site1" for r in b.instances_for("svc")
        )
        a.link.down = False
        env.run(until=0.4)
        assert len(a.link.outbox) == 0
        assert len(a.link.inbox) == 0
        sites_at_b = {r.site for r in b.instances_for("svc")}
        assert sites_at_b == {"site0", "site1"}
        sites_at_a = {r.site for r in a.instances_for("svc")}
        assert sites_at_a == {"site0", "site1"}

    def test_client_refresh_does_not_replicate(self):
        """Per-packet last_seen refreshes stay site-local; only location
        changes travel."""
        from repro.core.schedulers.base import ClientInfo

        env, hub, a, b = self._hub()
        ip = IPv4Address.parse("10.0.0.9")
        a.put_client(ClientInfo(ip=ip, datapath_id=2, in_port=1, last_seen=0.0))
        env.run(until=0.2)
        assert b.client(ip) is not None
        a.put_client(ClientInfo(ip=ip, datapath_id=2, in_port=1, last_seen=5.0))
        env.run(until=0.4)
        assert b.client(ip).last_seen == 0.0  # refresh stayed local
        a.put_client(ClientInfo(ip=ip, datapath_id=3, in_port=1, last_seen=6.0))
        env.run(until=0.6)
        assert b.client(ip).datapath_id == 3  # the move replicated

    def test_duplicate_site_rejected(self):
        env = Environment()
        hub = SharedStateHub(env)
        hub.connect("site0")
        with pytest.raises(ValueError):
            hub.connect("site0")
        with pytest.raises(ValueError):
            hub.attach("site0", lambda update: None)

    def test_replicas_and_attached_legs_share_one_fan_out(self):
        """A replica in the loop and a site attached by its leg alone
        (the sharded wiring's portal) hear every write but their own,
        in attach order."""
        env, hub, a, b = self._hub(delay=0.025)
        heard = []
        hub.attach("far", lambda update: heard.append((env.now, update[1])))
        a.publish_instance(_record())
        env.run(until=0.03)
        key = ("svc", "site0", "site0-docker")
        assert heard == [(0.025, key)]  # the leg charges hub -> far itself
        far = _record(site="far", cluster="far-docker")
        hub.deliver("far", ("instance", ("svc", "far", "far-docker"), far,
                            VersionStamp(1, "far")))
        env.run(until=0.1)
        assert len(heard) == 1  # no echo to the writer
        assert far in a.instances_for("svc") and far in b.instances_for("svc")

    def test_heal_drains_the_outbox_then_the_inbox_each_in_order(self):
        legs = []
        link = ReplicaLink(
            "site0",
            lambda update: legs.append(("hub", update)),
            lambda update: legs.append(("site", update)),
        )
        link.down = True
        link.send("w1")
        link.deliver("f1")
        link.send("w2")
        link.deliver("f2")
        assert legs == [] and link.outbox == ["w1", "w2"]
        link.down = False
        link.down = False  # healing a healed link drains nothing twice
        assert legs == [("hub", "w1"), ("hub", "w2"), ("site", "f1"), ("site", "f2")]
        assert (link.outbox, link.inbox, link.partitions) == ([], [], 1)
        link.send("w3")
        link.deliver("f3")
        assert legs[4:] == [("hub", "w3"), ("site", "f3")]

    def test_link_stats_replicate_on_their_own_clock(self):
        """The collector's writes take the one write path but never tick
        the data-path Lamport clock."""
        env, hub, a, b = self._hub(delay=0.025)
        stats = LinkStatsRecord("site0", "trunk:site0", 0.0, 1.0, 1.0, 8.0, 0.5)
        a.publish_link_stats(stats)
        a.publish_link_stats(stats)
        a.publish_instance(_record())
        assert hub.version_of("linkstats", ("site0", "trunk:site0")) is None
        env.run(until=0.1)
        assert b.link_stats() == [stats]
        assert hub.version_of("linkstats", ("site0", "trunk:site0")) == (
            VersionStamp(2, "site0")
        )
        assert hub.version_of("instance", ("svc", "site0", "site0-docker")) == (
            VersionStamp(1, "site0")
        )
        assert not b.instance_is_stale("svc", "site0", "site0-docker")

    def test_a_replica_without_a_hub_is_never_stale(self):
        def unused(update):
            raise AssertionError("nothing was written")

        replica = SiteReplica("site0", ReplicaLink("site0", unused, unused))
        assert not replica.instance_is_stale("svc", "site1", "site1-docker")


class TestRemoteClusterView:
    def test_surfaces_record(self):
        view = RemoteClusterView(_record(), distance_penalty=2)
        assert view.name == "site0/site0-docker"
        assert view.distance == 2
        assert view.is_running(None)
        assert view.endpoint(None).port == 20000


def _federation(**overrides):
    defaults = dict(n_sites=2, clients_per_site=1)
    defaults.update(overrides)
    return FederatedTestbed(FederationConfig(**defaults))


def _deploy_locally(tb, site, svc):
    """Synchronously deploy + publish at one site (replication pending)."""
    tb.prepare_created(site.cluster, svc)
    proc = tb.env.process(
        site.controller.dispatcher.ensure_deployed(svc, site.cluster)
    )
    tb.env.run(until=proc)


class TestFederatedTestbed:
    def test_local_clients_are_served_locally(self):
        tb = _federation()
        svc = tb.register_template(NGINX)
        site0 = tb.sites[0]
        _deploy_locally(tb, site0, svc)
        tb.settle_replication()
        result = tb.run_request(site0.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        assert result.time_total < 0.01  # no WAN, no trunk
        assert tb.recorder.counter("cross_site_redirects/site0") == 0

    def test_remote_instance_serves_first_packet_cross_site(self):
        """The paper's low-latency policy, federated: a site with no
        local instance redirects to a peer's running instance (beating
        the cloud) while deploying its own copy in the background."""
        tb = _federation()
        site0, site1 = tb.sites
        svc = tb.register_template(NGINX)
        _deploy_locally(tb, site0, svc)
        tb.settle_replication()

        result = tb.run_request(site1.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        # Cross-site: slower than local, faster than the 15 ms WAN.
        assert 0.004 < result.time_total < 0.03
        assert tb.recorder.counter("cross_site_redirects/site1") == 1
        assert site1.controller.stats["cloud_fallbacks"] == 0
        # The background deployment brings up a local replica.
        tb.settle(30.0)
        assert site1.cluster.is_running(svc.plan)

    def test_remote_memory_hit_then_heal_after_withdrawal(self):
        """site1 has no room, so site0's instance serves site1's client.
        Once its switch entry idles out, the client's next request is a
        FlowMemory hit on the remote instance.  When site0 scales that
        instance down, the withdrawal replicates, site1 forgets the flow
        and re-dispatches it, and the client keeps getting answers."""
        tb = _federation()
        site0, site1 = tb.sites
        site1.cluster.capacity = 0
        svc = tb.register_template(NGINX)
        _deploy_locally(tb, site0, svc)
        tb.settle_replication()
        client, stats = site1.clients[0], site1.controller.stats
        remote = f"{site0.name}/{site0.cluster.name}"

        assert tb.run_request(client, svc, NGINX.request).response.status == 200
        assert site1.controller.flow_memory.lookup(client.ip, svc).cluster_name == remote
        tb.settle(tb.calibration.switch_idle_timeout_s + 1.0)
        assert tb.run_request(client, svc, NGINX.request).response.status == 200
        assert (stats["dispatched"], stats["memory_hits"]) == (1, 1)

        site0.controller.dispatcher.scale_down_idle(svc)
        tb.settle_replication()
        assert stats["redispatched"] == 1
        assert site1.controller.flow_memory.lookup(client.ip, svc).cluster_name == "cloud"
        tb.settle(1.0)
        assert not site0.cluster.is_running(svc.plan)
        assert tb.run_request(client, svc, NGINX.request).response.status == 200

    def test_unreplicated_view_falls_back_to_cloud(self):
        """Before the instance record propagates, the peer site cannot
        know about it: its first packet goes to the cloud — the cost of
        eventual consistency, surfaced rather than hidden."""
        tb = _federation(propagation_delay_s=5.0)
        site0, site1 = tb.sites
        svc = tb.register_template(NGINX)
        _deploy_locally(tb, site0, svc)
        # Deliberately NOT settling past the 10 s propagation.
        result = tb.run_request(site1.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        assert site1.controller.stats["cloud_fallbacks"] == 1
        assert tb.recorder.counter("cross_site_redirects/site1") == 0

    def test_service_registration_replicates_intercepts(self):
        tb = _federation()
        site1 = tb.sites[1]
        svc = tb.register_template(NGINX)  # registered at site0
        cookies = [str(e.cookie or "") for e in site1.switch.table]
        assert f"intercept:{svc.name}" in cookies

    def test_cross_site_handover(self):
        """A client moving between *sites* is re-resolved by the target
        site's controller and keeps getting answers."""
        tb = _federation(clients_per_site=2)
        site0, site1 = tb.sites
        svc = tb.register_template(NGINX)
        _deploy_locally(tb, site0, svc)
        tb.settle_replication()
        client = site0.clients[0]
        before = tb.run_request(client, svc, NGINX.request)
        assert before.response.status == 200

        tb.move_client(client, site1)
        assert tb.site_of(client) is site1
        after = tb.run_request(client, svc, NGINX.request)
        assert after.response.status == 200
        # Resolved by site1's controller this time.
        assert site1.controller.stats["dispatched"] == 1
        assert site1.controller.dispatcher.client_locations[client.ip]

    def test_backbone_route_follows_a_moved_client(self):
        """The backbone switch runs the controller's forwarding app: after
        a cross-site move it holds exactly one route for the client, out
        of the target site's port."""
        tb = _federation()
        site0, site1 = tb.sites
        client = site0.clients[0]

        def routes():
            cookie = f"infra:{client.ip}"
            return [e.actions for e in tb.backbone.switch.table if e.cookie == cookie]

        assert routes() == [[Output(tb.backbone.site_ports[site0.name])]]
        tb.move_client(client, site1)
        assert routes() == [[Output(tb.backbone.site_ports[site1.name])]]

    def test_runs_are_deterministic(self):
        def one_run():
            tb = _federation()
            svc = tb.register_template(NGINX)
            site0, site1 = tb.sites
            _deploy_locally(tb, site0, svc)
            tb.settle_replication()
            latencies = []
            for site in tb.sites:
                for client in site.clients:
                    latencies.append(
                        tb.run_request(client, svc, NGINX.request).time_total
                    )
            return latencies

        assert one_run() == one_run()


@pytest.mark.chaos
class TestSitePartition:
    """LinkPartition between a site and the shared state: the site
    degrades to its local view; clients never see an error."""

    def _partitioned_testbed(self):
        from repro.faults.injector import Injector
        from repro.faults.plan import FaultPlan, LinkPartition

        tb = _federation()
        svc = tb.register_template(NGINX)
        site0, site1 = tb.sites
        for site in tb.sites:
            _deploy_locally(tb, site, svc)
        tb.settle_replication()
        plan = FaultPlan(
            [LinkPartition(at_s=5.0, a="site1", b="shared-state", duration_s=30.0)]
        )
        Injector(tb, plan).arm()
        return tb, svc, site0, site1

    def test_partitioned_site_serves_from_local_view(self):
        tb, svc, site0, site1 = self._partitioned_testbed()
        link = tb.named_links[("site1", "shared-state")]
        # Partition hits at t=5; idle the switch flows out so requests
        # actually traverse the (degraded) control plane.
        tb.env.run(until=tb.env.now + 20.0)
        assert link.down
        results = [
            tb.run_request(site1.clients[0], svc, NGINX.request)
            for _ in range(3)
        ]
        assert all(r.response.status == 200 for r in results)
        assert all(r.time_total < 0.01 for r in results)  # local instance
        # The injector logged the partition; serving never failed over
        # to the cloud.
        assert site1.controller.stats["cloud_fallbacks"] == 0

    def test_degraded_resolves_are_counted_and_local_only(self):
        tb, svc, site0, site1 = self._partitioned_testbed()
        tb.env.run(until=tb.env.now + 20.0)
        # Force a real resolve during the partition: the partitioned
        # site must not offer remote candidates.
        states = site1.controller.dispatcher.gather_states(svc)
        assert [s.cluster.name for s in states] == ["site1-docker"]
        proc = tb.env.process(
            site1.controller.dispatcher.resolve(
                svc,
                site1.controller.dispatcher.note_client(
                    site1.clients[0].ip, site1.switch.datapath_id, 2
                ),
            )
        )
        resolution = tb.env.run(until=proc)
        assert resolution.cluster_name == "site1-docker"
        assert tb.recorder.counter("degraded_serves/site1") == 1

    def test_heal_drains_queued_announcements(self):
        tb, svc, site0, site1 = self._partitioned_testbed()
        link = tb.named_links[("site1", "shared-state")]
        tb.env.run(until=tb.env.now + 20.0)
        assert link.down
        # A state change during the partition queues instead of vanishing.
        proc = tb.env.process(site1.cluster.scale_down(svc.plan))
        tb.env.run(until=proc)
        site1.controller.dispatcher.deployment(svc, site1.cluster).publish(
            running=False
        )
        assert len(link.outbox) == 1
        assert site0.replica.instances_for(svc.name)[1].running  # stale at site0
        # Heal (the injector reverts 30 s after the partition hit at
        # +5; we are at +20 and change) and drain.
        tb.env.run(until=tb.env.now + 20.0)
        assert not link.down
        assert len(link.outbox) == 0
        by_site = {r.site: r for r in site0.replica.instances_for(svc.name)}
        assert by_site["site1"].running is False  # site0 converged
