"""Tests for the image garbage collector (fig. 4's Delete phase)."""

from __future__ import annotations

from repro.containers import Containerd, ContainerSpec, ImageSpec, Registry
from repro.containers.image import MIB
from repro.containers.registry import PRIVATE_PROFILE
from repro.sim import Environment

from tests.nethelpers import MiniNet


def _setup(disk_limit=None):
    env = Environment()
    net = MiniNet(env)
    node = net.host("node")
    runtime = Containerd(env, node, disk_limit_bytes=disk_limit)
    registry = Registry(env, "reg", PRIVATE_PROFILE)
    return env, node, runtime, registry


def _publish(registry, name, size):
    image = ImageSpec.synthesize(name, size, 2)
    registry.publish(image)
    return image


class TestImageGC:
    def test_no_limit_never_collects(self):
        env, node, runtime, registry = _setup(disk_limit=None)
        images = [_publish(registry, f"img{i}:1", 50 * MIB) for i in range(4)]

        def go(env):
            for image in images:
                yield from runtime.pull(image, registry)

        env.run(until=env.process(go(env)))
        assert runtime.gc_stats["runs"] == 0
        assert len(runtime.images.images()) == 4

    def test_lru_eviction_under_pressure(self):
        env, node, runtime, registry = _setup(disk_limit=120 * MIB)
        images = [_publish(registry, f"img{i}:1", 50 * MIB) for i in range(4)]

        def go(env):
            for image in images:
                yield from runtime.pull(image, registry)
                yield env.timeout(1.0)

        env.run(until=env.process(go(env)))
        # Only the most recent images fit under the 120 MiB limit.
        assert runtime.images.disk_bytes <= 120 * MIB
        remaining = runtime.images.images()
        assert "img0:1" not in remaining  # oldest evicted first
        assert "img3:1" in remaining
        assert runtime.gc_stats["images_deleted"] >= 2

    def test_in_use_images_never_evicted(self):
        env, node, runtime, registry = _setup(disk_limit=120 * MIB)
        first = _publish(registry, "in-use:1", 50 * MIB)
        others = [_publish(registry, f"img{i}:1", 50 * MIB) for i in range(3)]

        def go(env):
            yield from runtime.pull(first, registry)
            container = yield from runtime.create(
                ContainerSpec(name="c", image=first)
            )
            for image in others:
                yield env.timeout(1.0)
                yield from runtime.pull(image, registry)
            return container

        env.run(until=env.process(go(env)))
        assert "in-use:1" in runtime.images.images()
        assert runtime.images_in_use() == {"in-use:1"}

    def test_repull_after_eviction_works(self):
        env, node, runtime, registry = _setup(disk_limit=80 * MIB)
        a = _publish(registry, "a:1", 50 * MIB)
        b = _publish(registry, "b:1", 50 * MIB)

        def go(env):
            yield from runtime.pull(a, registry)
            yield env.timeout(1.0)
            yield from runtime.pull(b, registry)  # evicts a
            assert not runtime.images.has_image("a:1")
            yield env.timeout(1.0)
            result = yield from runtime.pull(a, registry)  # evicts b
            return result

        result = env.run(until=env.process(go(env)))
        assert not result.cache_hit
        assert runtime.images.has_image("a:1")

    def test_shared_layers_survive_partial_eviction(self):
        env, node, runtime, registry = _setup(disk_limit=95 * MIB)
        base = ImageSpec.synthesize("base:1", 60 * MIB, 2)
        derived = ImageSpec.synthesize(
            "derived:1", 90 * MIB, 4, shared_layers=base.layers
        )
        registry.publish(base)
        registry.publish(derived)

        def go(env):
            yield from runtime.pull(base, registry)
            yield env.timeout(1.0)
            # Pulling derived (90 total, 30 own) -> 90 on disk; fits.
            yield from runtime.pull(derived, registry)

        env.run(until=env.process(go(env)))
        # Deduplicated store: 90 MiB total, under the limit; base may
        # have been evicted as an *image*, but derived keeps the layers.
        assert runtime.images.has_image("derived:1")
        assert runtime.images.disk_bytes <= 95 * MIB
