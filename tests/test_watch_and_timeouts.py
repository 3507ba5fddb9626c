"""Remaining lifecycle paths: watch cancellation, hard timeouts,
switch-driven expiry end to end."""

from __future__ import annotations

from repro.k8s import APIServer, Deployment, DeploymentSpec, ObjectMeta
from repro.net.openflow import Drop, FlowEntry, FlowMatch
from repro.sim import Environment

from tests.flowtable_oracle import touch
from tests.k8shelpers import subscribe_channel
from tests.nethelpers import MiniNet


class TestWatchCancellation:
    """Cancellation belongs to the watch twin's channel
    (``tests/k8shelpers.Watch``; nothing under ``src/`` unsubscribes):
    a cancelled channel drops whatever is delivered after the cancel."""

    def test_cancelled_watch_receives_nothing(self):
        env = Environment()
        api = APIServer(env)
        watch = subscribe_channel(api, "Deployment")
        watch.cancel()

        def actor(env):
            dep = Deployment(
                metadata=ObjectMeta(name="web"), spec=DeploymentSpec()
            )
            yield from api.create(dep)

        env.process(actor(env))
        env.run(until=1.0)
        assert len(watch.events.items) == 0

    def test_cancel_after_delivery_keeps_existing(self):
        env = Environment()
        api = APIServer(env)
        watch = subscribe_channel(api, "Deployment")

        def actor(env):
            dep = Deployment(
                metadata=ObjectMeta(name="web"), spec=DeploymentSpec()
            )
            yield from api.create(dep)
            yield env.timeout(1.0)
            watch.cancel()
            dep.spec.replicas = 1
            yield from api.update(dep)

        env.process(actor(env))
        env.run(until=3.0)
        # One ADDED delivered before the cancel; the MODIFIED dropped.
        assert len(watch.events.items) == 1


class TestSwitchHardTimeout:
    def test_hard_timeout_expires_active_flow(self):
        """A hard timeout removes even a constantly used entry (the
        mechanism that forces periodic re-validation)."""
        env = Environment()
        net = MiniNet(env)
        sw = net.switch()
        entry = FlowEntry(
            FlowMatch(tcp_dst=80),
            [Drop()],
            hard_timeout=2.0,
            cookie="hard",
        )
        sw.table.install(entry, env.now)

        def keep_touching(env):
            while len(sw.table):
                touch(entry, env.now)
                yield env.timeout(0.1)

        env.process(keep_touching(env))
        env.run(until=5.0)
        assert len(sw.table) == 0

    def test_idle_vs_hard_ordering(self):
        env = Environment()
        net = MiniNet(env)
        sw = net.switch()
        idle_entry = FlowEntry(FlowMatch(tcp_dst=1), [Drop()], idle_timeout=1.0)
        hard_entry = FlowEntry(FlowMatch(tcp_dst=2), [Drop()], hard_timeout=3.0)
        sw.table.install(idle_entry, env.now)
        sw.table.install(hard_entry, env.now)
        env.run(until=2.0)
        assert len(sw.table) == 1  # idle gone, hard remains
        env.run(until=4.0)
        assert len(sw.table) == 0


class TestControllerEndToEndExpiry:
    def test_switch_expiry_then_memory_expiry_sequence(self):
        """The two-stage timeout design of §V end to end: switch entry
        expires first (low timeout), memory later (idle scale-down)."""
        import dataclasses

        from repro.services import DEFAULT_CALIBRATION
        from repro.services.catalog import NGINX
        from repro.testbed import C3Testbed, TestbedConfig

        calibration = dataclasses.replace(
            DEFAULT_CALIBRATION,
            switch_idle_timeout_s=3.0,
            memory_idle_timeout_s=12.0,
        )
        tb = C3Testbed(
            TestbedConfig(cluster_types=("docker",), auto_scale_down=True),
            calibration=calibration,
        )
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)

        def redirect_entries():
            return [
                e
                for e in tb.switch.table
                if str(e.cookie or "").startswith("redirect:")
            ]

        assert len(redirect_entries()) == 2
        # Stage 1: switch entries expire; memory + instance survive.
        tb.env.run(until=tb.env.now + 5.0)
        assert redirect_entries() == []
        assert tb.controller.flow_memory.lookup(tb.clients[0].ip, svc)
        assert tb.docker_cluster.is_running(svc.plan)
        # Stage 2: memory expires; instance is scaled down.
        tb.env.run(until=tb.env.now + 12.0)
        assert tb.controller.flow_memory.lookup(tb.clients[0].ip, svc) is None
        assert not tb.docker_cluster.is_running(svc.plan)
