"""Tests for the full service lifecycle: register → serve → unregister."""

from __future__ import annotations

from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, TestbedConfig


class TestUnregistration:
    def test_unregister_reverts_to_cloud(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        edge = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert edge.time_total < 1.0
        assert tb.docker_cluster.is_running(svc.plan)

        tb.controller.unregister_service(svc)
        tb.settle(2.0)

        # The deployment was torn down (Scale Down + Remove).
        assert not tb.docker_cluster.is_running(svc.plan)
        assert not tb.docker_cluster.is_created(svc.plan)
        # Memorized flows are gone.
        assert tb.controller.flow_memory.lookup(tb.clients[0].ip, svc) is None
        # The registry no longer knows the address.
        assert tb.service_registry.lookup(svc.cloud_ip, svc.port) is None

        # Traffic flows to the cloud via the default rule — no
        # packet-in, and the latency shows the WAN round trips.
        packet_ins = tb.controller.stats["packet_in"]
        cloud = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert cloud.response.status == 200
        assert cloud.time_total > 0.05
        assert tb.controller.stats["packet_in"] == packet_ins

    def test_unregister_clears_switch_flows(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)

        def service_flows():
            return [
                e
                for e in tb.switch.table
                if str(e.cookie or "").endswith(svc.name)
                or f":{svc.name}:" in str(e.cookie or "")
                or str(e.cookie or "") == f"intercept:{svc.name}"
            ]

        assert service_flows()
        tb.controller.unregister_service(svc)
        tb.settle(1.0)
        assert service_flows() == []

    def test_reregistration_after_unregister(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        svc = tb.register_template(NGINX)
        ip, port = svc.cloud_ip, svc.port
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)
        tb.controller.unregister_service(svc)
        tb.settle(2.0)

        svc2 = tb.controller.register_service(
            NGINX.definition_yaml, ip, port, template_key="nginx"
        )
        tb.settle(0.01)
        assert svc2.name == svc.name  # same address -> same unique name
        result = tb.run_request(tb.clients[0], svc2, NGINX.request)
        assert result.response.status == 200
        assert tb.docker_cluster.is_running(svc2.plan)
