"""Tests for images, registries, the image store, containerd, Docker."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers import (
    Containerd,
    ContainerSpec,
    ContainerState,
    DockerEngine,
    ImageNotFound,
    ImageSpec,
    ImageStore,
    Layer,
    Registry,
    RegistryProfile,
    RuntimeProfile,
)
from repro.containers.image import MIB
from repro.containers.registry import PRIVATE_PROFILE, PUBLIC_PROFILE
from repro.sim import Environment

from tests.nethelpers import EchoApp, MiniNet


def _registry(env, profile=None):
    return Registry(env, "test-registry", profile or PRIVATE_PROFILE)


def _image(name="app:1", size=10 * MIB, layers=3, shared=()):
    return ImageSpec.synthesize(name, size, layers, shared_layers=shared)


def _node(env):
    net = MiniNet(env)
    return net.host("node")


class TestImageSpec:
    def test_synthesize_exact_totals(self):
        image = _image(size=100 * MIB, layers=5)
        assert image.total_bytes == 100 * MIB
        assert image.layer_count == 5

    def test_layers_top_heavy(self):
        image = _image(size=64 * MIB, layers=4)
        sizes = [l.size_bytes for l in image.layers]
        assert sizes == sorted(sizes, reverse=True)

    def test_single_layer(self):
        image = _image(size=6333, layers=1)
        assert image.layers[0].size_bytes == 6333

    def test_shared_layers_prepended(self):
        base = _image("base:1", 50 * MIB, 2)
        derived = ImageSpec.synthesize(
            "derived:1", 80 * MIB, 4, shared_layers=base.layers
        )
        assert derived.layers[:2] == base.layers
        assert derived.total_bytes == 80 * MIB

    def test_shared_exceeding_total_rejected(self):
        base = _image("base:1", 50 * MIB, 2)
        with pytest.raises(ValueError):
            ImageSpec.synthesize("bad:1", 10 * MIB, 3, shared_layers=base.layers)

    def test_duplicate_digests_rejected(self):
        layer = Layer.synthesize("x", 100)
        with pytest.raises(ValueError):
            ImageSpec("dup:1", (layer, layer))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ImageSpec("empty:1", ())

    @settings(max_examples=50, deadline=None)
    @given(
        size=st.integers(min_value=1024, max_value=500 * MIB),
        layers=st.integers(min_value=1, max_value=12),
    )
    def test_synthesize_property(self, size, layers):
        image = ImageSpec.synthesize("p:1", size, layers)
        assert image.total_bytes == size
        assert image.layer_count == layers
        assert all(l.size_bytes >= 0 for l in image.layers)


class TestImageStore:
    def test_missing_then_cached(self):
        store = ImageStore()
        image = _image()
        assert not store.has_image(image.reference)
        assert len(store.missing_layers(image)) == 3
        for layer in image.layers:
            store.add_layer(layer)
        store.commit_image(image)
        assert store.has_image(image.reference)
        assert store.missing_layers(image) == []

    def test_commit_without_layers_rejected(self):
        store = ImageStore()
        with pytest.raises(ValueError):
            store.commit_image(_image())

    def test_shared_layer_survives_delete(self):
        store = ImageStore()
        base = _image("base:1", 50 * MIB, 2)
        derived = ImageSpec.synthesize("derived:1", 80 * MIB, 4, shared_layers=base.layers)
        for img in (base, derived):
            for layer in img.layers:
                store.add_layer(layer)
            store.commit_image(img)
        freed = store.delete_image("derived:1")
        # Only derived's own 30 MiB freed; base layers survive.
        assert freed == 30 * MIB
        assert store.has_image("base:1")
        assert not store.has_image("derived:1")

    def test_delete_last_reference_frees_all(self):
        store = ImageStore()
        image = _image(size=12 * MIB)
        for layer in image.layers:
            store.add_layer(layer)
        store.commit_image(image)
        assert store.delete_image(image.reference) == 12 * MIB
        assert store.disk_bytes == 0

    def test_delete_unknown_is_noop(self):
        assert ImageStore().delete_image("ghost:1") == 0

    def test_disk_bytes_deduplicates(self):
        store = ImageStore()
        base = _image("base:1", 50 * MIB, 2)
        derived = ImageSpec.synthesize("derived:1", 80 * MIB, 4, shared_layers=base.layers)
        for img in (base, derived):
            for layer in img.layers:
                store.add_layer(layer)
            store.commit_image(img)
        assert store.disk_bytes == 80 * MIB  # 50 shared + 30 own


class TestRegistry:
    def test_manifest_unknown_image(self):
        env = Environment()
        reg = _registry(env)

        def go(env):
            yield from reg.manifest("nope:1")

        proc = env.process(go(env))
        with pytest.raises(ImageNotFound):
            env.run(until=proc)

    def test_pull_time_scales_with_size(self):
        env = Environment()
        reg = _registry(env, PUBLIC_PROFILE)
        small, large = _image("s:1", 5 * MIB, 1), _image("l:1", 200 * MIB, 1)
        reg.publish(small)
        reg.publish(large)
        node = _node(env)
        rt = Containerd(env, node)

        def pull_both(env):
            t0 = env.now
            yield from rt.pull(small, reg)
            t_small = env.now - t0
            t0 = env.now
            yield from rt.pull(large, reg)
            return t_small, env.now - t0

        proc = env.process(pull_both(env))
        t_small, t_large = env.run(until=proc)
        assert t_large > t_small * 5

    def test_private_faster_than_public(self):
        """Fig. 13's shape: same image, private registry is faster."""
        image = _image("web:1", 135 * MIB, 6)

        def pull_with(profile):
            env = Environment()
            reg = Registry(env, "r", profile)
            reg.publish(image)
            rt = Containerd(env, _node(env))
            proc = env.process(rt.pull(image, reg))
            result = env.run(until=proc)
            return result.duration_s

        assert pull_with(PUBLIC_PROFILE) > pull_with(PRIVATE_PROFILE) + 1.0

    def test_concurrent_download_limit(self):
        env = Environment()
        profile = RegistryProfile(
            rtt_s=0.0,
            bandwidth_bps=8 * MIB,  # 1 MiB/s
            per_layer_overhead_s=0.0,
            max_concurrent_downloads=2,
        )
        reg = Registry(env, "r", profile)
        # 4 layers x 1 MiB at 1 MiB/s with 2 slots => ~2s, not ~1s.
        image = ImageSpec(
            "par:1",
            tuple(Layer.synthesize(f"par{i}", 1 * MIB) for i in range(4)),
        )
        reg.publish(image)
        rt = Containerd(env, _node(env))
        proc = env.process(rt.pull(image, reg))
        result = env.run(until=proc)
        assert result.duration_s == pytest.approx(2.0, rel=0.05)

    def test_cached_pull_is_free(self):
        env = Environment()
        reg = _registry(env)
        image = _image()
        reg.publish(image)
        rt = Containerd(env, _node(env))

        def pull_twice(env):
            first = yield from rt.pull(image, reg)
            second = yield from rt.pull(image, reg)
            return first, second

        proc = env.process(pull_twice(env))
        first, second = env.run(until=proc)
        assert not first.cache_hit and second.cache_hit
        assert second.duration_s == 0.0
        assert second.bytes_pulled == 0

    def test_shared_base_layers_skipped(self):
        """Fig. 13 note: shared base layers need not be re-pulled."""
        env = Environment()
        reg = _registry(env)
        base = _image("base:1", 50 * MIB, 2)
        derived = ImageSpec.synthesize("derived:1", 80 * MIB, 4, shared_layers=base.layers)
        reg.publish(base)
        reg.publish(derived)
        rt = Containerd(env, _node(env))

        def go(env):
            yield from rt.pull(base, reg)
            result = yield from rt.pull(derived, reg)
            return result

        proc = env.process(go(env))
        result = env.run(until=proc)
        assert result.layers_pulled == 2  # only derived's own layers
        assert result.bytes_pulled == 30 * MIB


class TestContainerd:
    def _ready_containerd(self, env, boot_time=0.0, host_port=8080):
        node = _node(env)
        rt = Containerd(env, node)
        reg = _registry(env)
        image = _image()
        reg.publish(image)
        spec = ContainerSpec(
            name="svc",
            image=image,
            boot_time_s=boot_time,
            container_port=80,
            host_port=host_port,
            app_factory=lambda e: EchoApp(e),
            labels={"edge.service": "svc"},
        )
        return node, rt, reg, image, spec

    def test_create_requires_image(self):
        env = Environment()
        node, rt, reg, image, spec = self._ready_containerd(env)

        def go(env):
            yield from rt.create(spec)

        proc = env.process(go(env))
        with pytest.raises(RuntimeError, match="not present"):
            env.run(until=proc)

    def test_full_lifecycle_opens_and_closes_port(self):
        env = Environment()
        node, rt, reg, image, spec = self._ready_containerd(env, boot_time=0.1)

        def go(env):
            yield from rt.pull(image, reg)
            container = yield from rt.create(spec)
            assert container.state is ContainerState.CREATED
            yield from rt.start(container)
            assert container.state is ContainerState.RUNNING
            assert not node.port_is_open(8080)  # app still booting
            yield container.ready
            assert node.port_is_open(8080)
            yield from rt.stop(container)
            assert container.state is ContainerState.EXITED
            assert not node.port_is_open(8080)
            yield from rt.remove(container)
            assert container.state is ContainerState.REMOVED
            return True

        proc = env.process(go(env))
        assert env.run(until=proc) is True

    def test_start_cost_matches_profile(self):
        env = Environment()
        node, rt, reg, image, spec = self._ready_containerd(env, boot_time=0.0)
        profile = rt.profile

        def go(env):
            yield from rt.pull(image, reg)
            container = yield from rt.create(spec)
            t0 = env.now
            yield from rt.start(container)
            return env.now - t0

        proc = env.process(go(env))
        elapsed = env.run(until=proc)
        assert elapsed == pytest.approx(
            profile.namespace_setup_s + profile.runtime_spawn_s, rel=1e-6
        )

    def test_boot_time_delays_readiness_not_start(self):
        env = Environment()
        node, rt, reg, image, spec = self._ready_containerd(env, boot_time=2.0)

        def go(env):
            yield from rt.pull(image, reg)
            container = yield from rt.create(spec)
            yield from rt.start(container)
            t_started = env.now
            ready_at = yield container.ready
            return ready_at - t_started

        proc = env.process(go(env))
        boot_wait = env.run(until=proc)
        assert boot_wait == pytest.approx(2.0, rel=1e-6)

    def test_a_zero_boot_starts_behind_what_its_caller_pushes_next(self):
        """A zero boot starts cold: its ``timeout(0.0)``, pushed at the
        start entry's pop, stands behind what the caller of ``start``
        pushes due now in its own step.  Started hot, in the caller's
        step, it would go first, and the container would be ready when
        the caller's entry pops."""
        env = Environment()
        node, rt, reg, image, spec = self._ready_containerd(env, boot_time=0.0)
        seen = []

        def go(env):
            yield from rt.pull(image, reg)
            container = yield from rt.create(spec)
            yield from rt.start(container)
            env.call_later(0.0, lambda: seen.append(container.ready.triggered))
            yield container.ready

        env.run(until=env.process(go(env)))
        assert seen == [False]

    def test_start_concurrency_limited(self):
        env = Environment()
        node = _node(env)
        profile = RuntimeProfile(
            snapshot_create_s=0.0,
            namespace_setup_s=1.0,
            runtime_spawn_s=0.0,
            start_concurrency=2,
        )
        rt = Containerd(env, node, profile=profile)
        reg = _registry(env)
        image = _image()
        reg.publish(image)

        def start_n(env, n):
            yield from rt.pull(image, reg)
            containers = []
            for i in range(n):
                spec = ContainerSpec(name=f"c{i}", image=image)
                containers.append((yield from rt.create(spec)))
            t0 = env.now
            procs = [env.process(rt.start(c)) for c in containers]
            from repro.sim import AllOf

            yield AllOf(env, procs)
            return env.now - t0

        proc = env.process(start_n(env, 4))
        elapsed = env.run(until=proc)
        # 4 starts, 2 at a time, 1s each => 2s.
        assert elapsed == pytest.approx(2.0, rel=0.01)

    def test_double_start_rejected(self):
        env = Environment()
        node, rt, reg, image, spec = self._ready_containerd(env)

        def go(env):
            yield from rt.pull(image, reg)
            container = yield from rt.create(spec)
            yield from rt.start(container)
            yield from rt.start(container)

        proc = env.process(go(env))
        with pytest.raises(RuntimeError, match="cannot start"):
            env.run(until=proc)

    def test_stop_during_boot_never_opens_port(self):
        env = Environment()
        node, rt, reg, image, spec = self._ready_containerd(env, boot_time=5.0)

        def go(env):
            yield from rt.pull(image, reg)
            container = yield from rt.create(spec)
            yield from rt.start(container)
            yield from rt.stop(container)  # stop before boot finishes
            yield env.timeout(10.0)
            return node.port_is_open(8080)

        proc = env.process(go(env))
        assert env.run(until=proc) is False

    def test_label_listing(self):
        env = Environment()
        node, rt, reg, image, spec = self._ready_containerd(env)

        def go(env):
            yield from rt.pull(image, reg)
            yield from rt.create(spec)
            other = ContainerSpec(name="other", image=image, labels={"x": "y"})
            yield from rt.create(other)
            return (
                len(rt.list_containers()),
                len(rt.list_containers({"edge.service": "svc"})),
                len(rt.list_containers({"edge.service": "nope"})),
            )

        proc = env.process(go(env))
        assert env.run(until=proc) == (2, 1, 0)


class TestDockerEngine:
    def test_run_and_query(self):
        env = Environment()
        node = _node(env)
        rt = Containerd(env, node)
        docker = DockerEngine(env, rt)
        reg = _registry(env)
        image = _image()
        reg.publish(image)
        spec = ContainerSpec(
            name="svc",
            image=image,
            boot_time_s=0.05,
            container_port=80,
            host_port=8080,
            app_factory=lambda e: EchoApp(e),
            labels={"edge.service": "svc"},
        )

        def go(env):
            yield from docker.pull(image, reg)
            container = yield from docker.create_container(spec)
            yield from docker.start_container(container)
            yield container.ready
            running = docker.containers({"edge.service": "svc"})
            yield from docker.stop_container(container)
            after = docker.containers({"edge.service": "svc"})
            return len(running), len(after)

        proc = env.process(go(env))
        assert env.run(until=proc) == (1, 0)

    def test_api_latency_applied(self):
        env = Environment()
        rt = Containerd(env, _node(env))
        docker = DockerEngine(env, rt, api_latency_s=0.5)
        reg = _registry(env)
        image = _image()
        reg.publish(image)

        def go(env):
            t0 = env.now
            yield from docker.pull(image, reg)
            return env.now - t0

        proc = env.process(go(env))
        # 0.5 api + pull time (>= manifest rtt)
        assert env.run(until=proc) > 0.5

    def test_remove_image_frees_space(self):
        env = Environment()
        rt = Containerd(env, _node(env))
        docker = DockerEngine(env, rt)
        reg = _registry(env)
        image = _image(size=30 * MIB)
        reg.publish(image)

        def go(env):
            yield from docker.pull(image, reg)
            assert docker.image_cached(image.reference)
            freed = yield from docker.remove_image(image.reference)
            return freed, docker.image_cached(image.reference)

        proc = env.process(go(env))
        freed, cached = env.run(until=proc)
        assert freed == 30 * MIB and not cached
