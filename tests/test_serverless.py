"""Tests for the WebAssembly serverless substrate (§VIII extension)."""

from __future__ import annotations

import pytest

from repro.cluster.base import DeployError
from repro.containers.image import MIB
from repro.serverless import (
    ServerlessCluster,
    WasmModule,
    WasmRuntime,
    WasmRuntimeProfile,
)
from repro.serverless.catalog import WASM_SERVICES, default_module_map
from repro.services.catalog import NGINX, RESNET
from repro.sim import Environment
from repro.testbed import C3Testbed, TestbedConfig

from tests.nethelpers import MiniNet


def _runtime(env, profile=None):
    net = MiniNet(env)
    node = net.host("node")
    return node, WasmRuntime(env, node, profile=profile)


def _module(name="f.wasm", size=1 * MIB, handle=0.001):
    return WasmModule(name=name, size_bytes=size, native_handle_s=handle)


class TestWasmRuntime:
    def test_fetch_then_instantiate(self):
        env = Environment()
        node, rt = _runtime(env)
        module = _module()

        def go(env):
            yield from rt.fetch(module)
            assert rt.has_module(module.name)
            instance = yield from rt.instantiate(module, 25000)
            return instance

        proc = env.process(go(env))
        instance = env.run(until=proc)
        assert node.port_is_open(25000)
        assert instance.running

    def test_instantiate_without_fetch_rejected(self):
        env = Environment()
        node, rt = _runtime(env)

        def go(env):
            yield from rt.instantiate(_module(), 25000)

        proc = env.process(go(env))
        with pytest.raises(RuntimeError, match="not fetched"):
            env.run(until=proc)

    def test_cold_start_is_milliseconds(self):
        """The headline property: instantiation ≪ container start."""
        env = Environment()
        node, rt = _runtime(env)
        module = _module()

        def go(env):
            yield from rt.fetch(module)
            t0 = env.now
            yield from rt.instantiate(module, 25000)
            return env.now - t0

        proc = env.process(go(env))
        cold = env.run(until=proc)
        assert cold < 0.01

    def test_fetch_cached_second_time(self):
        env = Environment()
        node, rt = _runtime(env)
        module = _module(size=20 * MIB)

        def go(env):
            t0 = env.now
            yield from rt.fetch(module)
            first = env.now - t0
            t0 = env.now
            yield from rt.fetch(module)
            return first, env.now - t0

        proc = env.process(go(env))
        first, second = env.run(until=proc)
        assert first > 0 and second == 0.0
        assert rt.stats["fetches"] == 1
        assert rt.stats["compiles"] == 1

    def test_compile_cost_scales_with_size(self):
        env = Environment()
        node, rt = _runtime(env)
        small, large = _module("s.wasm", 1 * MIB), _module("l.wasm", 30 * MIB)

        def fetch_timed(module):
            t0 = env.now
            yield from rt.fetch(module)
            return env.now - t0

        def go(env):
            a = yield from fetch_timed(small)
            b = yield from fetch_timed(large)
            return a, b

        proc = env.process(go(env))
        a, b = env.run(until=proc)
        assert b > 10 * a

    def test_execution_slowdown_applied(self):
        env = Environment()
        profile = WasmRuntimeProfile(slowdown=2.0)
        node, rt = _runtime(env, profile)
        module = _module(handle=0.1)

        def go(env):
            yield from rt.fetch(module)
            instance = yield from rt.instantiate(module, 25000)
            return instance

        proc = env.process(go(env))
        instance = env.run(until=proc)
        assert instance.function.handle_time_s == pytest.approx(0.2)

    def test_terminate_closes_port(self):
        env = Environment()
        node, rt = _runtime(env)
        module = _module()

        def go(env):
            yield from rt.fetch(module)
            instance = yield from rt.instantiate(module, 25000)
            yield from rt.terminate(instance)
            return instance

        proc = env.process(go(env))
        instance = env.run(until=proc)
        assert not instance.running
        assert not node.port_is_open(25000)
        assert rt.instances_of(module.name) == []

    def test_module_validation(self):
        with pytest.raises(ValueError):
            WasmModule("bad.wasm", size_bytes=0, native_handle_s=0.001)
        with pytest.raises(ValueError):
            WasmModule("bad.wasm", size_bytes=1, native_handle_s=-1)
        with pytest.raises(ValueError):
            WasmRuntimeProfile(slowdown=0.5)


class TestServerlessCluster:
    def _cluster(self):
        tb = C3Testbed(TestbedConfig(cluster_types=()))
        cluster = tb.add_serverless()
        svc = tb.register_template(NGINX)
        return tb, cluster, svc

    def test_full_phase_lifecycle(self):
        tb, cluster, svc = self._cluster()

        def go(env):
            yield from cluster.pull(svc.plan)
            assert cluster.image_cached(svc.plan)
            yield from cluster.create(svc.plan)
            assert cluster.is_created(svc.plan)
            assert not cluster.is_running(svc.plan)
            yield from cluster.scale_up(svc.plan)
            assert cluster.is_running(svc.plan)
            yield from cluster.scale_down(svc.plan)
            assert not cluster.is_running(svc.plan)
            yield from cluster.remove(svc.plan)
            assert not cluster.is_created(svc.plan)
            freed = yield from cluster.delete_images(svc.plan)
            return freed

        proc = tb.env.process(go(tb.env))
        freed = tb.env.run(until=proc)
        assert freed > 0

    def test_create_requires_fetch(self):
        tb, cluster, svc = self._cluster()

        def go(env):
            yield from cluster.create(svc.plan)

        proc = tb.env.process(go(tb.env))
        with pytest.raises(DeployError, match="not fetched"):
            tb.env.run(until=proc)

    def test_unknown_image_rejected(self):
        tb = C3Testbed(TestbedConfig(cluster_types=()))
        env = tb.env
        runtime = WasmRuntime(env, tb.egs)
        cluster = ServerlessCluster(
            env, "wasm-empty", tb.egs, runtime, module_map={}
        )
        svc = tb.register_template(NGINX)  # nothing mapped in this cluster
        with pytest.raises(DeployError, match="no wasm build"):
            cluster.image_cached(svc.plan)

    def test_transparent_request_through_controller(self):
        """The same SDN controller deploys wasm on demand."""
        tb, cluster, svc = self._cluster()
        tb.prepare_created(cluster, svc)
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        # Wasm first request: far below Docker's ~0.4 s.
        assert result.time_total < 0.05
        assert cluster.is_running(svc.plan)

    def test_wasm_resnet_warm_slower_than_container(self):
        """Execution slowdown shows on compute-bound services."""
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        wasm = tb.add_serverless()
        svc = tb.register_template(RESNET)
        tb.prepare_created(wasm, svc)
        # NearestScheduler tie at distance 0 prefers 'docker' by name
        # order only after caching; wasm is cached, docker is not, so
        # wasm wins the tie-break and serves the request.
        result = tb.run_request(tb.clients[0], svc, RESNET.request)
        warm = tb.run_request(tb.clients[0], svc, RESNET.request)
        assert warm.time_total > 0.15  # native would be ~0.12

    def test_catalog_modules_well_formed(self):
        assert len(WASM_SERVICES) == 3
        mapping = default_module_map()
        for template in WASM_SERVICES:
            assert mapping[template.replaces_image] is template.module
        # The classify module is far bigger than the static one.
        sizes = {t.key: t.module.size_bytes for t in WASM_SERVICES}
        assert sizes["resnet_wasm"] > 50 * sizes["nginx_wasm"]
