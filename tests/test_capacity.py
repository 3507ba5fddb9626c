"""Tests for cluster capacity limits and capacity-aware scheduling."""

from __future__ import annotations

import pytest

from repro.core import LowLatencyScheduler
from repro.services.catalog import ASM, NGINX
from repro.testbed import C3Testbed, TestbedConfig


class TestCapacityAccounting:
    def test_running_count_tracks_services(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        svc1 = tb.register_template(NGINX)
        svc2 = tb.register_template(ASM)
        cluster = tb.docker_cluster
        assert cluster.running_services() == set()
        tb.prepare_created(cluster, svc1)
        tb.run_request(tb.clients[0], svc1, NGINX.request)
        assert cluster.running_services() == {svc1.name}
        tb.prepare_created(cluster, svc2)
        tb.run_request(tb.clients[0], svc2, ASM.request)
        assert cluster.running_services() == {svc1.name, svc2.name}

    def test_has_capacity_semantics(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        tb.docker_cluster.capacity = 1
        svc1 = tb.register_template(NGINX)
        svc2 = tb.register_template(ASM)
        cluster = tb.docker_cluster
        dispatcher = tb.controller.dispatcher
        assert dispatcher.gather_states(svc1)[0].has_capacity
        tb.prepare_created(cluster, svc1)
        tb.run_request(tb.clients[0], svc1, NGINX.request)
        # Full — but the already-running service still "fits".
        assert dispatcher.gather_states(svc1)[0].has_capacity
        assert not dispatcher.gather_states(svc2)[0].has_capacity

    def test_capacity_validation(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        from repro.cluster import DockerCluster

        with pytest.raises(ValueError):
            DockerCluster(
                tb.env,
                "bad",
                tb.egs,
                tb.docker_engine,
                tb.active_registry,
                capacity=0,
            )

    def test_k8s_running_count(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("k8s",)))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.k8s_cluster, svc)
        assert tb.k8s_cluster.running_services() == set()
        tb.run_request(tb.clients[0], svc, NGINX.request)
        assert tb.k8s_cluster.running_services() == {svc.name}


class TestCapacityAwareScheduling:
    def test_full_near_edge_overflows_to_far(self):
        """When the small near edge is full, new services deploy to the
        farther cluster instead (§IV-A's size hierarchy)."""
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        tb.docker_cluster.capacity = 1
        far = tb.add_far_edge("far-docker", distance=1)
        svc1 = tb.register_template(NGINX)
        svc2 = tb.register_template(ASM)
        for svc in (svc1, svc2):
            tb.prepare_created(tb.docker_cluster, svc)
            tb.prepare_created(far, svc)

        r1 = tb.run_request(tb.clients[0], svc1, NGINX.request)
        assert r1.response.status == 200
        assert tb.docker_cluster.is_running(svc1.plan)

        # Near edge is now full: the second service lands far.
        r2 = tb.run_request(tb.clients[0], svc2, ASM.request)
        assert r2.response.status == 200
        assert not tb.docker_cluster.is_running(svc2.plan)
        assert far.is_running(svc2.plan)

    def test_everything_full_falls_back_to_cloud(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        tb.docker_cluster.capacity = 1
        svc1 = tb.register_template(NGINX)
        svc2 = tb.register_template(ASM)
        for svc in (svc1, svc2):
            tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(tb.clients[0], svc1, NGINX.request)

        r2 = tb.run_request(tb.clients[0], svc2, ASM.request)
        assert r2.response.status == 200  # the cloud answered
        assert tb.controller.stats["cloud_fallbacks"] == 1
        assert not tb.docker_cluster.is_running(svc2.plan)

    def test_lowlatency_respects_capacity(self):
        tb = C3Testbed(
            TestbedConfig(cluster_types=("docker",)),
            scheduler=LowLatencyScheduler(),
        )
        tb.docker_cluster.capacity = 1
        far = tb.add_far_edge("far-docker", distance=1)
        svc1 = tb.register_template(NGINX)
        svc2 = tb.register_template(ASM)
        for svc in (svc1, svc2):
            tb.prepare_created(tb.docker_cluster, svc)
            tb.prepare_created(far, svc)
        tb.run_request(tb.clients[0], svc1, NGINX.request)
        tb.env.run(until=tb.env.now + 5.0)
        # svc2: near full, nothing running elsewhere -> cloud now, far
        # (the nearest eligible) deploys in background.
        tb.run_request(tb.clients[0], svc2, ASM.request)
        tb.env.run(until=tb.env.now + 5.0)
        assert far.is_running(svc2.plan)
        assert not tb.docker_cluster.is_running(svc2.plan)
