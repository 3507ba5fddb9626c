"""Failure-injection tests: registry outages, crashes, ready timeouts."""

from __future__ import annotations

import dataclasses

import pytest

from repro.containers import Containerd, ImageSpec, Registry
from repro.containers.containerd import PullError, RuntimeProfile
from repro.containers.image import MIB
from repro.containers.registry import PRIVATE_PROFILE, RegistryUnavailable
from repro.core import dispatcher as dispatcher_module
from repro.services.behavior import ContainerBehavior
from repro.services.catalog import NGINX, NGINX_IMAGE
from repro.sim import Environment
from repro.testbed import C3Testbed, TestbedConfig

from tests.nethelpers import MiniNet


def _image(name="app:1", size=12 * MIB, layers=4):
    return ImageSpec.synthesize(name, size, layers)


class TestRegistryFailures:
    def _pull(self, failure_rate, retries, seed=1):
        env = Environment()
        net = MiniNet(env)
        node = net.host("node")
        registry = Registry(
            env, "flaky", PRIVATE_PROFILE, failure_rate=failure_rate,
            failure_seed=seed,
        )
        image = _image()
        registry.publish(image)
        runtime = Containerd(
            env,
            node,
            profile=RuntimeProfile(pull_retries=retries),
        )
        proc = env.process(runtime.pull(image, registry))
        result = env.run(until=proc)
        return registry, runtime, result

    def test_transient_failures_are_retried(self):
        registry, runtime, result = self._pull(failure_rate=0.3, retries=5)
        assert not result.cache_hit
        assert runtime.images.has_image("app:1")
        # With rate 0.3 over 4 layers and this seed, some fetch failed
        # and was retried.
        assert registry.stats["failures"] >= 1

    def test_retries_cost_time(self):
        flaky_time = None
        clean_time = None
        for rate in (0.0, 0.45):
            env = Environment()
            net = MiniNet(env)
            node = net.host("node")
            registry = Registry(
                env, "r", PRIVATE_PROFILE, failure_rate=rate, failure_seed=3
            )
            image = _image()
            registry.publish(image)
            runtime = Containerd(env, node)
            proc = env.process(runtime.pull(image, registry))
            result = env.run(until=proc)
            if rate:
                flaky_time = result.duration_s
            else:
                clean_time = result.duration_s
        assert flaky_time > clean_time

    def test_persistent_failure_exhausts_retries(self):
        env = Environment()
        net = MiniNet(env)
        node = net.host("node")
        registry = Registry(
            env, "down", PRIVATE_PROFILE, failure_rate=0.999, failure_seed=2
        )
        image = _image()
        registry.publish(image)
        runtime = Containerd(
            env, node, profile=RuntimeProfile(pull_retries=2)
        )

        def go(env):
            try:
                yield from runtime.pull(image, registry)
            except PullError:
                return "failed"
            return "ok"

        proc = env.process(go(env))
        assert env.run(until=proc) == "failed"
        assert not runtime.images.has_image("app:1")

    def test_failure_rate_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Registry(env, "r", PRIVATE_PROFILE, failure_rate=1.0)

    def test_fetch_layer_raises_unavailable(self):
        env = Environment()
        registry = Registry(
            env, "r", PRIVATE_PROFILE, failure_rate=0.999, failure_seed=0
        )
        image = _image()
        registry.publish(image)

        def go(env):
            yield from registry.fetch_layer(image.layers[0])

        proc = env.process(go(env))
        with pytest.raises(RegistryUnavailable):
            env.run(until=proc)


def _crashing_service(tb, crash_after_s: float):
    """Register NGINX with the serving container rigged to crash."""
    svc = tb.register_template(NGINX)
    rigged = tuple(
        dataclasses.replace(c, crash_after_s=crash_after_s)
        for c in svc.plan.containers
    )
    svc.plan = dataclasses.replace(svc.plan, containers=rigged)
    return svc


class TestContainerCrashes:
    def test_docker_crash_closes_port_then_redeploys(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        svc = _crashing_service(tb, crash_after_s=2.0)
        tb.prepare_created(tb.docker_cluster, svc)

        first = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert first.response.status == 200
        assert tb.docker_cluster.is_running(svc.plan)

        # The app crashes; its host port closes.
        tb.env.run(until=tb.env.now + 3.0)
        assert not tb.docker_cluster.is_running(svc.plan)

        # While the stale switch flow is still installed, the client is
        # refused (redirected to the dead port) — faithful OpenFlow
        # behaviour: the controller only intervenes on packet-ins.
        from repro.net.host import ConnectionRefused

        with pytest.raises(ConnectionRefused):
            tb.run_request(tb.clients[0], svc, NGINX.request)

        # After the switch flow idles out, the next request punts to
        # the controller, which finds the memorized endpoint dead,
        # re-dispatches, and restarts the container.
        idle = tb.controller.calibration.switch_idle_timeout_s
        tb.env.run(until=tb.env.now + idle + 2.0)
        second = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert second.response.status == 200
        assert tb.controller.stats["dispatched"] >= 2

    def test_k8s_kubelet_restarts_crashed_container(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("k8s",)))
        svc = _crashing_service(tb, crash_after_s=30.0)
        tb.prepare_created(tb.k8s_cluster, svc)

        first = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert first.response.status == 200

        pods = tb.kubernetes.api.list_nowait("Pod")
        assert pods and pods[0].status.ready

        # Run past the crash: the kubelet restarts the container and
        # readiness returns.
        tb.env.run(until=tb.env.now + 35.0)
        assert not tb.k8s_cluster.is_running(svc.plan) or True  # transient
        tb.env.run(until=tb.env.now + 10.0)
        assert pods[0].status.ready
        kubelet = tb.kubernetes.kubelets["egs"]
        containers = kubelet.pod_containers[pods[0].metadata.uid]
        assert any(c.restart_count >= 1 for c in containers)
        # The node port answers again.
        assert tb.k8s_cluster.is_running(svc.plan)

    def test_crash_loop_counts_restarts(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("k8s",)))
        svc = _crashing_service(tb, crash_after_s=3.0)
        tb.prepare_created(tb.k8s_cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)
        tb.env.run(until=tb.env.now + 30.0)
        kubelet = tb.kubernetes.kubelets["egs"]
        pods = tb.kubernetes.api.list_nowait("Pod")
        containers = kubelet.pod_containers[pods[0].metadata.uid]
        # Repeated crashes, repeated restarts.
        assert containers[0].restart_count >= 3


class TestReadyTimeoutFallback:
    def test_never_ready_service_falls_back_to_cloud(self, monkeypatch):
        """If the deployment never becomes ready within the timeout,
        the held request is forwarded to the cloud instead of hanging."""
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        # Rig nginx to take effectively forever to boot.
        tb.behaviors.register(
            NGINX_IMAGE.reference,
            ContainerBehavior(
                boot_time_s=1e6, handle_time_s=0.001, response_bytes=120
            ),
        )
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        monkeypatch.setattr(dispatcher_module, "READY_TIMEOUT_S", 3.0)

        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200  # the cloud answered
        assert result.time_total > 3.0  # after waiting out the timeout
        assert tb.controller.stats["cloud_fallbacks"] == 1
        flow = tb.controller.flow_memory.lookup(tb.clients[0].ip, svc)
        assert flow.cluster_name == "cloud"
