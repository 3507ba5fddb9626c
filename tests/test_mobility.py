"""Tests for multi-gNB topologies and client mobility (Follow-me)."""

from __future__ import annotations

from repro.observe import tap
from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, TestbedConfig


def _testbed():
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
    gnb2 = tb.add_gnb("gnb2")
    return tb, gnb2


class TestMultiGnb:
    def test_client_on_second_gnb_reaches_edge(self):
        tb, gnb2 = _testbed()
        client = tb.new_client(gnb=gnb2)
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        result = tb.run_request(client, svc, NGINX.request)
        assert result.response.status == 200
        # The packet-in came from the second datapath.
        assert tb.controller.dispatcher.client_locations[client.ip].datapath_id == 2

    def test_second_gnb_warm_requests_cost_trunk_hop(self):
        tb, gnb2 = _testbed()
        near = tb.clients[0]
        far_client = tb.new_client(gnb=gnb2)
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(near, svc, NGINX.request)  # deploy once
        warm_near = tb.run_request(near, svc, NGINX.request).time_total
        tb.run_request(far_client, svc, NGINX.request)  # install flows at gnb2
        warm_far = tb.run_request(far_client, svc, NGINX.request).time_total
        # Same edge instance, but 2 extra trunk traversals per round trip.
        assert warm_far > warm_near
        assert warm_far - warm_near < 0.01

    def test_unregistered_traffic_from_gnb2_reaches_cloud(self):
        from repro.net.addressing import IPv4Address
        from repro.net.packet import HTTPRequest
        from tests.nethelpers import EchoApp

        tb, gnb2 = _testbed()
        client = tb.new_client(gnb=gnb2)
        ip = IPv4Address.parse("203.0.113.250")
        tb.cloud.open_service(ip, 80, EchoApp(tb.env))

        def go(env):
            return (
                yield from client.http_request(
                    ip, 80, HTTPRequest("GET", "/"), timeout=10.0
                )
            )

        proc = tb.env.process(go(tb.env))
        result = tb.env.run(until=proc)
        assert result.response.status == 200


class TestHandover:
    def test_handover_keeps_service_reachable(self):
        """After moving, the next request is *re-resolved* — the old
        location's memorized flow is invalidated, the scheduler runs
        again from the new switch, and the warm instance answers."""
        tb, gnb2 = _testbed()
        client = tb.clients[0]  # starts on the main switch
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)

        before = tb.run_request(client, svc, NGINX.request)
        assert before.response.status == 200
        dispatched_before = tb.controller.stats["dispatched"]

        tb.move_client(client, gnb2)
        # The handover invalidated exactly this client's memorized flow.
        assert tb.controller.flow_memory.lookup(client.ip, svc) is None

        after = tb.run_request(client, svc, NGINX.request)
        assert after.response.status == 200
        # Served warm-ish: the instance is already running, so the
        # re-resolution costs a scheduler pass but no deployment.
        assert after.time_total < 0.05
        # The moved client went back through the dispatcher (stale
        # memory is not replayed from the new location).
        assert tb.controller.stats["dispatched"] == dispatched_before + 1
        # Location tracking follows the client.
        assert tb.controller.dispatcher.client_locations[client.ip].datapath_id == 2
        # Once re-resolved, later packet-ins ride the memory fast path
        # again (idle the switch entry out first; memory lives longer).
        tb.env.run(until=tb.env.now + 15.0)
        hits_before = tb.controller.stats["memory_hits"]
        again = tb.run_request(client, svc, NGINX.request)
        assert again.response.status == 200
        assert tb.controller.stats["memory_hits"] == hits_before + 1
        assert tb.controller.stats["dispatched"] == dispatched_before + 1

    def test_handover_tears_down_old_flows(self):
        tb, gnb2 = _testbed()
        client = tb.clients[0]
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(client, svc, NGINX.request)

        main_redirects = [
            e for e in tb.switch.table if str(e.cookie or "").startswith("redirect:")
        ]
        assert main_redirects
        tb.move_client(client, gnb2)
        main_redirects = [
            e for e in tb.switch.table if str(e.cookie or "").startswith("redirect:")
        ]
        assert main_redirects == []

    def test_handover_back_and_forth(self):
        tb, gnb2 = _testbed()
        client = tb.clients[0]
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(client, svc, NGINX.request)
        for target in (gnb2, tb.switch, gnb2):
            tb.move_client(client, target)
            result = tb.run_request(client, svc, NGINX.request)
            assert result.response.status == 200

    def test_handover_during_active_workload(self):
        """A client moving mid-workload keeps getting answers: requests
        before, between, and after two handovers all succeed."""
        tb, gnb2 = _testbed()
        gnb3 = tb.add_gnb("gnb3")
        client = tb.clients[0]
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)

        results = []
        for hop, target in enumerate((None, gnb2, gnb3, tb.switch)):
            if target is not None:
                tb.move_client(client, target)
            for _ in range(3):
                results.append(tb.run_request(client, svc, NGINX.request))
                tb.env.run(until=tb.env.now + 1.0)
        assert len(results) == 12
        assert all(r.response.status == 200 for r in results)
        # One dispatch per location (the first request and each of the
        # three handovers re-resolve); only the first deployed anything.
        assert tb.controller.stats["dispatched"] == 4

    def test_mid_flow_move_re_resolved_without_handover_signal(self):
        """Regression: a client that shows up behind a different gNB
        *mid-flow* — before anything called ``update_client_location``
        — is re-resolved on its next request.  ``note_client`` detects
        the datapath change and invalidates the stale memorized flow."""
        tb, gnb2 = _testbed()
        client = tb.clients[0]
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(client, svc, NGINX.request)
        assert tb.controller.flow_memory.lookup(client.ip, svc) is not None

        dispatcher = tb.controller.dispatcher
        # The client's packets start arriving from datapath 2 with no
        # handover notification (e.g. the RAN moved it under our feet).
        dispatcher.note_client(client.ip, gnb2.datapath_id, in_port=1)
        assert tb.controller.flow_memory.lookup(client.ip, svc) is None
        dispatched = tb.controller.stats["dispatched"]
        tb.move_client(client, gnb2)
        result = tb.run_request(client, svc, NGINX.request)
        assert result.response.status == 200
        assert tb.controller.stats["dispatched"] == dispatched + 1

    def test_move_invalidates_only_the_moved_client(self):
        """The handover forgets exactly the moved client's memorized
        flows; a bystander on the original switch keeps its fast path."""
        tb, gnb2 = _testbed()
        mover, stayer = tb.clients[0], tb.clients[1]
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(mover, svc, NGINX.request)
        tb.run_request(stayer, svc, NGINX.request)

        tb.move_client(mover, gnb2)
        assert tb.controller.flow_memory.lookup(mover.ip, svc) is None
        assert tb.controller.flow_memory.lookup(stayer.ip, svc) is not None

        # Idle the stayer's switch entry out (memory lives longer) so
        # its next request produces a packet-in — answered from memory.
        tb.env.run(until=tb.env.now + 15.0)
        hits = tb.controller.stats["memory_hits"]
        dispatched = tb.controller.stats["dispatched"]
        assert tb.run_request(stayer, svc, NGINX.request).response.status == 200
        assert tb.controller.stats["memory_hits"] == hits + 1
        assert tb.controller.stats["dispatched"] == dispatched

    def test_transparency_survives_handover(self):
        tb, gnb2 = _testbed()
        client = tb.clients[0]
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(client, svc, NGINX.request)
        tb.move_client(client, gnb2)
        seen = []
        tap(client, "receive", lambda p, i: seen.append(p.ip_src))
        result = tb.run_request(client, svc, NGINX.request)
        assert result.response.status == 200
        assert seen and all(ip == svc.cloud_ip for ip in seen)


class TestProactiveRedispatch:
    """Regression: handover used to only *forget* the moved client's
    flows, so a degraded resolution (breaker fallback, cross-site pin)
    kept steering the session at the old fallback until the idle
    timeout.  ``update_client_location`` now re-dispatches those flows
    proactively when it learns the new attachment."""

    def test_degraded_flow_heals_at_handover(self):
        tb, gnb2 = _testbed()
        client = tb.clients[0]
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(client, svc, NGINX.request)
        # Simulate a breaker-degraded resolution: the flow is tagged as
        # a fallback from a preferred cluster that was blocked.
        tagged = tb.controller.flow_memory.mark_service_degraded(
            svc, "phantom-k8s"
        )
        assert tagged == 1
        before = tb.controller.stats["redispatched"]
        tb.move_client(client, gnb2)
        tb.settle(1.0)
        # The handover itself re-resolved the degraded flow...
        assert tb.controller.stats["redispatched"] == before + 1
        flow = tb.controller.flow_memory.lookup(client.ip, svc)
        assert flow is not None and not flow.degraded
        # ...and eagerly installed the redirect entries at the new gNB,
        # so the next request never even reaches the controller.
        packet_ins = tb.controller.stats["packet_in"]
        result = tb.run_request(client, svc, NGINX.request)
        assert result.response.status == 200
        assert tb.controller.stats["packet_in"] == packet_ins

    def test_healthy_local_flow_is_not_redispatched(self):
        tb, gnb2 = _testbed()
        client = tb.clients[0]
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(client, svc, NGINX.request)
        before = tb.controller.stats["redispatched"]
        tb.move_client(client, gnb2)
        tb.settle(1.0)
        # A healthy locally-served flow just re-resolves lazily on the
        # client's next packet; no background work is spent on it.
        assert tb.controller.stats["redispatched"] == before
        assert tb.controller.flow_memory.lookup(client.ip, svc) is None
