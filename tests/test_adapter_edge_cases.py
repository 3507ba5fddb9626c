"""Edge cases of the cluster adapters and engine APIs."""

from __future__ import annotations

import pytest

from repro.cluster import DeployError
from repro.services.catalog import ASM, NGINX
from repro.testbed import C3Testbed, TestbedConfig


class TestDockerAdapter:
    def _testbed(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        svc = tb.register_template(NGINX)
        return tb, tb.docker_cluster, svc

    def test_scale_up_before_create_rejected(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_pulled(cluster, svc)

        def go(env):
            yield from cluster.scale_up(svc.plan)

        proc = tb.env.process(go(tb.env))
        with pytest.raises(DeployError, match="not created"):
            tb.env.run(until=proc)

    def test_create_before_pull_rejected(self):
        tb, cluster, svc = self._testbed()

        def go(env):
            yield from cluster.create(svc.plan)

        proc = tb.env.process(go(tb.env))
        with pytest.raises(DeployError, match="not pulled"):
            tb.env.run(until=proc)

    def test_create_is_idempotent(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_created(cluster, svc)
        tb.prepare_created(cluster, svc)  # second call is a no-op
        containers = cluster.engine.containers(
            {"edge.service": svc.name}, running_only=False
        )
        assert len(containers) == 1

    def test_remove_clears_state_and_port(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_created(cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)
        endpoint = cluster.endpoint(svc.plan)
        proc = tb.env.process(cluster.remove(svc.plan))
        tb.env.run(until=proc)
        assert not cluster.is_created(svc.plan)
        assert cluster.endpoint(svc.plan) is None
        assert not tb.egs.port_is_open(endpoint.port)

    def test_delete_images_via_adapter(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_pulled(cluster, svc)

        def go(env):
            freed = yield from cluster.delete_images(svc.plan)
            return freed

        proc = tb.env.process(go(tb.env))
        freed = tb.env.run(until=proc)
        assert freed > 0
        assert not cluster.image_cached(svc.plan)

    def test_engine_lists_by_state(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_created(cluster, svc)
        engine = cluster.engine
        created = engine.containers(running_only=False)
        running = engine.containers(running_only=True)
        assert len(created) == 1 and running == []
        tb.run_request(tb.clients[0], svc, NGINX.request)
        assert len(engine.containers(running_only=True)) == 1


class TestK8sAdapter:
    def _testbed(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("k8s",)))
        svc = tb.register_template(NGINX)
        return tb, tb.k8s_cluster, svc

    def test_scale_up_before_create_rejected(self):
        tb, cluster, svc = self._testbed()

        def go(env):
            yield from cluster.scale_up(svc.plan)

        proc = tb.env.process(go(tb.env))
        with pytest.raises(DeployError, match="not created"):
            tb.env.run(until=proc)

    def test_remove_unknown_service_is_noop(self):
        tb, cluster, svc = self._testbed()

        def go(env):
            yield from cluster.remove(svc.plan)
            return True

        proc = tb.env.process(go(tb.env))
        assert tb.env.run(until=proc) is True

    def test_create_idempotent(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_created(cluster, svc)
        tb.prepare_created(cluster, svc)
        deployments = tb.kubernetes.api.list_nowait("Deployment")
        services = tb.kubernetes.api.list_nowait("Service")
        assert len(deployments) == 1 and len(services) == 1

    def test_scale_down_keeps_objects(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_created(cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)

        proc = tb.env.process(cluster.scale_down(svc.plan))
        tb.env.run(until=proc)
        tb.env.run(until=tb.env.now + 10.0)
        assert not cluster.is_running(svc.plan)
        assert cluster.is_created(svc.plan)  # Deployment+Service remain
        assert tb.kubernetes.api.list_nowait("Pod") == []


class TestRegistryStats:
    def test_pull_statistics_accumulate(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        svc_small = tb.register_template(ASM)
        svc_big = tb.register_template(NGINX)
        registry = tb.active_registry
        for svc in (svc_small, svc_big):
            tb.prepare_pulled(tb.docker_cluster, svc)
        assert registry.stats["manifests"] == 2
        assert registry.stats["layers"] == ASM.layer_count + NGINX.layer_count
        total = ASM.total_bytes + NGINX.total_bytes
        assert registry.stats["bytes"] == total
