"""Edge cases of the cluster adapters and engine APIs."""

from __future__ import annotations

import pytest

from repro.cluster import DeployError, K8sEdgeCluster
from repro.services.catalog import ASM, NGINX
from repro.sim import Environment
from repro.testbed import C3Testbed, TestbedConfig

from tests.test_k8s import _cluster as _k8s_nodes


class _Contract:
    """The fig. 4 contract :class:`~repro.cluster.EdgeCluster` drives for
    every deploying adapter; a subclass supplies the testbed and counts
    what Create made for the service."""

    #: How long after Remove the ingress port may stay open.
    port_close_lag_s = 0.0

    def _testbed(self):
        raise NotImplementedError

    def _created(self, tb, cluster, svc) -> tuple[int, ...]:
        raise NotImplementedError

    def test_scale_up_before_create_rejected(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_pulled(cluster, svc)

        def go(env):
            yield from cluster.scale_up(svc.plan)

        proc = tb.env.process(go(tb.env))
        with pytest.raises(DeployError, match="not created"):
            tb.env.run(until=proc)

    def test_create_is_idempotent(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_created(cluster, svc)
        created_at = tb.env.now
        tb.env.run_process(cluster.create(svc.plan))  # a no-op: no time passes
        assert tb.env.now == created_at
        tb.run_request(tb.clients[0], svc, NGINX.request)
        assert all(count == 1 for count in self._created(tb, cluster, svc))

    def test_remove_clears_state_and_port(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_created(cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)
        endpoint = cluster.endpoint(svc.plan)
        proc = tb.env.process(cluster.remove(svc.plan))
        tb.env.run(until=proc)
        assert not cluster.is_created(svc.plan)
        assert cluster.endpoint(svc.plan) is None
        if self.port_close_lag_s:
            tb.settle(self.port_close_lag_s)
        assert not cluster.ingress_host.port_is_open(endpoint.port)

    def test_delete_images_via_adapter(self):
        """fig. 4's Delete phase frees a pulled image, and keeps one a
        running instance uses (as ``docker rmi`` and kubelet image GC
        refuse to remove it)."""
        for in_use in (False, True):
            tb, cluster, svc = self._testbed()
            if in_use:
                tb.prepare_created(cluster, svc)
                tb.run_request(tb.clients[0], svc, NGINX.request)
            else:
                tb.prepare_pulled(cluster, svc)
            freed = tb.env.run_process(cluster.delete_images(svc.plan))
            assert (freed > 0) is not in_use, in_use
            assert cluster.image_cached(svc.plan) is in_use, in_use
            assert (svc.name in cluster.running_services()) is in_use


class TestDockerAdapter(_Contract):
    def _testbed(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        svc = tb.register_template(NGINX)
        return tb, tb.docker_cluster, svc

    def _created(self, tb, cluster, svc):
        containers = cluster.engine.containers(
            {"edge.service": svc.name}, running_only=False
        )
        return (len(containers),)

    def test_create_before_pull_rejected(self):
        tb, cluster, svc = self._testbed()

        def go(env):
            yield from cluster.create(svc.plan)

        proc = tb.env.process(go(tb.env))
        with pytest.raises(DeployError, match="not pulled"):
            tb.env.run(until=proc)

    def test_engine_lists_by_state(self):
        tb, cluster, svc = self._testbed()
        tb.prepare_created(cluster, svc)
        engine = cluster.engine
        created = engine.containers(running_only=False)
        running = engine.containers(running_only=True)
        assert len(created) == 1 and running == []
        tb.run_request(tb.clients[0], svc, NGINX.request)
        assert len(engine.containers(running_only=True)) == 1


class TestK8sAdapter(_Contract):
    #: kube-proxy closes the NodePort on the Service's watch event.
    port_close_lag_s = 1.0

    def _testbed(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("k8s",)))
        svc = tb.register_template(NGINX)
        return tb, tb.k8s_cluster, svc

    def _created(self, tb, cluster, svc):
        api = tb.kubernetes.api
        return (len(api.list_nowait("Deployment")), len(api.list_nowait("Service")))

    def test_remove_unknown_service_is_noop(self):
        tb, cluster, svc = self._testbed()

        def go(env):
            yield from cluster.remove(svc.plan)
            return True

        proc = tb.env.process(go(tb.env))
        assert tb.env.run(until=proc) is True

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

    def test_runtimes_lead_with_the_adapters_node(self):
        """What a pod kill visits: the node's runtime, then the other
        kubelets' in join order."""
        env = Environment()
        kubernetes, _, nodes = _k8s_nodes(env, node_count=3)
        cluster = K8sEdgeCluster(env, "k8s", kubernetes, "node1")
        first, second, third = (runtime for _, runtime in nodes)
        assert cluster.runtimes == (second, first, third)


class TestServerlessAdapter(_Contract):
    def _testbed(self):
        tb = C3Testbed(TestbedConfig(cluster_types=()))
        cluster = tb.add_serverless()
        return tb, cluster, tb.register_template(NGINX)

    def _created(self, tb, cluster, svc):
        return (len(cluster.runtime.instances),)


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
