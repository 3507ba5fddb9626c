"""Remaining lifecycle paths: watch cancellation, switch-driven expiry
end to end."""

from __future__ import annotations

from repro.k8s import APIServer, Deployment, DeploymentSpec, ObjectMeta
from repro.sim import Environment

from tests.k8shelpers import subscribe_channel


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
