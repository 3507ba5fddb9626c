"""The fault-injection subsystem (PR 4): plans, breaker, injector,
and the hardened Dispatcher (retries, circuit breaker, degradation).
"""

from __future__ import annotations

import pytest

from repro.cluster.plan import ServiceEndpoint
from repro.containers import Containerd, ImageSpec, Registry
from repro.containers.containerd import NodeDown, PullError, RuntimeProfile
from repro.containers.image import MIB
from repro.containers.registry import (
    PRIVATE_PROFILE,
    ImageNotFound,
    RegistryUnavailable,
)
from repro.core import dispatcher as dispatcher_module
from repro.core.dispatcher import Dispatcher
from repro.core.schedulers.base import ClientInfo, Decision
from repro.core import Annotator, FlowMemory, ServiceRegistry
from repro.faults import (
    APIStall,
    BreakerState,
    CircuitBreaker,
    FaultPlan,
    Injector,
    LinkPartition,
    NodeCrash,
    PodKill,
    RegistryOutage,
)
from repro.metrics import MetricsRecorder
from repro.net.addressing import IPv4Address
from repro.observe import tap
from repro.services import build_catalog
from repro.services.catalog import NGINX
from repro.sim import Environment
from repro.testbed import C3Testbed, TestbedConfig

from tests.nethelpers import MiniNet
from tests.test_dispatcher_unit import FakeCluster, ScriptedScheduler


# ---------------------------------------------------------------------------
# FaultPlan


class TestFaultPlan:
    def test_builders_chain_in_order(self):
        plan = (
            FaultPlan(seed=9)
            .registry_outage(1.0, "docker-hub", 10.0, rate=0.5)
            .node_crash(2.0, "egs", duration_s=5.0)
            .partition(3.0, "rpi00", "ovs", 1.0)
            .kill_pod(4.0, "docker", "nginx")
            .api_stall(5.0, "k8s", 2.0)
        )
        assert len(plan) == 5
        assert plan.seed == 9
        kinds = [type(f) for f in plan]
        assert kinds == [RegistryOutage, NodeCrash, LinkPartition, PodKill, APIStall]
        assert [f.at_s for f in plan] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_faults_are_frozen_and_hashable(self):
        fault = RegistryOutage(1.0, "r", 2.0)
        assert fault == RegistryOutage(1.0, "r", 2.0)
        assert hash(fault) == hash(RegistryOutage(1.0, "r", 2.0))
        with pytest.raises(Exception):
            fault.rate = 0.5  # frozen

    def test_empty_plan_arms_nothing(self):
        env = Environment()

        class Bed:
            pass

        bed = Bed()
        bed.env = env
        injector = Injector(bed, FaultPlan()).arm()
        assert injector.arm() is injector  # idempotent + chainable
        assert injector.log == []


# ---------------------------------------------------------------------------
# CircuitBreaker state machine


class TestCircuitBreaker:
    def _breaker(self, **kw):
        env = Environment()
        recorder = MetricsRecorder()
        return env, CircuitBreaker(env, "c", recorder=recorder, **kw), recorder

    def test_opens_after_threshold_consecutive_failures(self):
        _, breaker, _ = self._breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.blocked(0.0)

    def test_success_resets_the_count(self):
        _, breaker, _ = self._breaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_admits_exactly_one_probe(self):
        _, breaker, _ = self._breaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure()
        assert breaker.blocked(5.0)
        # The query after the cooldown flips to HALF_OPEN and admits
        # the caller as the probe.
        assert not breaker.blocked(10.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.stats["probes"] == 1

    def test_probe_failure_reopens(self):
        _, breaker, _ = self._breaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure()
        breaker.blocked(10.0)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.stats["opens"] == 2

    def test_probe_success_closes(self):
        _, breaker, recorder = self._breaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure()
        breaker.blocked(10.0)
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.stats["closes"] == 1
        # Transitions landed in the recorder (series + counters).
        assert recorder.counter("breaker/c/open") == 1
        assert recorder.counter("breaker/c/half_open") == 1
        assert recorder.counter("breaker/c/closed") == 1
        assert len(recorder.series("breaker/c")) == 3

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            CircuitBreaker(env, "c", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(env, "c", cooldown_s=0.0)


# ---------------------------------------------------------------------------
# Registry manifest faults (satellite: outages fail pulls at the first
# round trip, surfaced via stats["manifest_failures"])


def _image(name="app:1", size=12 * MIB, layers=4):
    return ImageSpec.synthesize(name, size, layers)


class TestManifestFaults:
    def _node(self):
        env = Environment()
        net = MiniNet(env)
        return env, net.host("node")

    def test_full_outage_fails_pull_at_first_round_trip(self):
        env, node = self._node()
        registry = Registry(env, "down", PRIVATE_PROFILE)
        image = _image()
        registry.publish(image)
        registry.set_fault_rate(1.0)
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
        # Every attempt died resolving the manifest: no layer was ever
        # requested, let alone transferred.
        assert registry.stats["manifest_failures"] == 3  # 1 + 2 retries
        assert registry.stats["manifests"] == 0
        assert registry.stats["layers"] == 0
        assert registry.stats["bytes"] == 0
        # Each attempt costs just the manifest round trips plus the
        # runtime's backoff — nothing close to a layer transfer.
        rtt_cost = 3 * 2 * PRIVATE_PROFILE.rtt_s
        backoff_cost = 0.2 + 0.4
        assert env.now == pytest.approx(rtt_cost + backoff_cost)

    def test_outage_lifts_when_rate_restored(self):
        env, node = self._node()
        registry = Registry(env, "r", PRIVATE_PROFILE)
        image = _image()
        registry.publish(image)
        registry.set_fault_rate(1.0)
        registry.set_fault_rate(0.0)
        runtime = Containerd(env, node)
        proc = env.process(runtime.pull(image, registry))
        env.run(until=proc)
        assert runtime.images.has_image("app:1")
        assert registry.stats["manifest_failures"] == 0

    def test_set_fault_rate_validation(self):
        env = Environment()
        registry = Registry(env, "r", PRIVATE_PROFILE)
        registry.set_fault_rate(1.0)  # full outage is allowed at runtime
        with pytest.raises(ValueError):
            registry.set_fault_rate(-0.1)
        with pytest.raises(ValueError):
            registry.set_fault_rate(1.5)

    def test_reseed_reproduces_the_error_pattern(self):
        def pattern(n=20):
            env = Environment()
            registry = Registry(env, "r", PRIVATE_PROFILE)
            registry.publish(_image())
            registry.reseed_faults(13)
            registry.set_fault_rate(0.5)
            outcomes = []

            def go(env):
                for _ in range(n):
                    try:
                        yield from registry.manifest("app:1")
                        outcomes.append(True)
                    except RegistryUnavailable:
                        outcomes.append(False)

            proc = env.process(go(env))
            env.run(until=proc)
            return outcomes

        first, second = pattern(), pattern()
        assert first == second
        assert True in first and False in first


# ---------------------------------------------------------------------------
# Dispatcher hardening: bounded retries, fault classification, breaker


class FlakyCluster(FakeCluster):
    """FakeCluster whose phases raise scripted exceptions (then heal)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_script: dict[str, list[Exception]] = {}

    def _maybe_fail(self, phase: str) -> None:
        queue = self.fail_script.get(phase)
        if queue:
            raise queue.pop(0)

    def pull(self, plan):
        yield self.env.timeout(self.pull_s)
        self._maybe_fail("pull")
        self.cached.add(plan.service_name)

    def _create_instance(self, plan, port):
        yield self.env.timeout(self.create_s)
        self._maybe_fail("create")
        self.created.add(plan.service_name)

    def _start_instance(self, plan):
        yield self.env.timeout(self.scale_s)
        self._maybe_fail("scale_up")
        self.ready_at[plan.service_name] = self.env.now + self.ready_after_s


def _rig(**dispatcher_kwargs):
    env = Environment()
    net = MiniNet(env)
    host = net.host("edge-host")
    cluster = FlakyCluster(env, "fake", host)
    images, behaviors = build_catalog()
    registry = ServiceRegistry(Annotator(images, behaviors))
    service = registry.register(
        NGINX.definition_yaml, IPv4Address.parse("203.0.113.5"), 80
    )
    memory = FlowMemory(env, idle_timeout_s=100.0)
    scheduler = ScriptedScheduler(lambda s: Decision(fast=s[0].cluster))
    dispatcher = Dispatcher(
        env, [cluster], scheduler, memory, **dispatcher_kwargs
    )
    # The memory half of the controller's repoint_service_flows.
    dispatcher.on_endpoint_ready = lambda service, name, endpoint: [
        memory.remember(flow.client_ip, service, name, endpoint)
        for flow in memory.flows_for_service(service)
    ]
    client = ClientInfo(
        ip=IPv4Address.parse("10.0.0.9"), datapath_id=1, in_port=1, last_seen=0.0
    )
    return env, cluster, dispatcher, service, client


class TestDispatcherRetries:
    def test_transient_faults_are_retried_with_backoff(self, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "RETRY_BACKOFF_S", 0.5)
        env, cluster, dispatcher, svc, _ = _rig(max_phase_retries=2)
        cluster.fail_script["pull"] = [
            RegistryUnavailable("hiccup"),
            RegistryUnavailable("hiccup"),
        ]
        proc = env.process(dispatcher.ensure_deployed(svc, cluster))
        outcome = env.run(until=proc)
        assert outcome.ready
        assert outcome.attempts == 1  # last phase (scale_up) needed one
        assert dispatcher.recorder.counter("deploy_retries/fake") == 2
        # Three pull attempts plus two exponential backoffs (0.5, 1.0,
        # stretched by bounded jitter) are in the clock.
        assert env.now >= 3 * cluster.pull_s + 0.5 + 1.0
        assert env.now <= 3 * cluster.pull_s + (0.5 + 1.0) * 1.1 + 0.7
        # The deployment ultimately succeeded: no breaker was created.
        assert dispatcher.breakers == {}

    def test_retries_exhausted_marks_phase_and_feeds_breaker(self):
        env, cluster, dispatcher, svc, _ = _rig(max_phase_retries=1)
        cluster.fail_script["pull"] = [
            RegistryUnavailable("down"),
            RegistryUnavailable("down"),
        ]
        proc = env.process(dispatcher.ensure_deployed(svc, cluster))
        outcome = env.run(until=proc)
        assert not outcome.ready
        assert outcome.failed_phase == "pull"
        assert outcome.attempts == 2
        assert "RegistryUnavailable" in outcome.error
        assert dispatcher.recorder.counter("deploy_failures/fake") == 1
        assert dispatcher.breakers["fake"].consecutive_failures == 1

    def test_fatal_faults_are_not_retried(self):
        env, cluster, dispatcher, svc, _ = _rig(max_phase_retries=5)
        cluster.fail_script["pull"] = [ImageNotFound("nginx:none")]
        proc = env.process(dispatcher.ensure_deployed(svc, cluster))
        outcome = env.run(until=proc)
        assert not outcome.ready
        assert outcome.failed_phase == "pull"
        assert outcome.attempts == 1
        assert "ImageNotFound" in outcome.error
        assert dispatcher.recorder.counter("deploy_retries/fake") == 0

    def test_node_down_mid_pipeline_is_retryable(self):
        env, cluster, dispatcher, svc, _ = _rig(max_phase_retries=2)
        cluster.fail_script["scale_up"] = [NodeDown("kubelet restarting")]
        proc = env.process(dispatcher.ensure_deployed(svc, cluster))
        outcome = env.run(until=proc)
        assert outcome.ready
        assert outcome.pulled and outcome.created and outcome.scaled
        assert outcome.attempts == 2
        assert dispatcher.recorder.counter("deploy_retries/fake") == 1

    def test_retry_jitter_is_seeded(self):
        def total_time():
            env, cluster, dispatcher, svc, _ = _rig(max_phase_retries=3)
            cluster.fail_script["pull"] = [
                RegistryUnavailable("x") for _ in range(3)
            ]
            proc = env.process(dispatcher.ensure_deployed(svc, cluster))
            env.run(until=proc)
            return env.now

        assert total_time() == total_time()  # reproducible

    def test_ready_timeout_records_failed_outcome(self, monkeypatch):
        """Satellite: a deployment whose instance never answers on its
        port is a *failure* with phase "wait_ready", not a silent
        half-install — and it feeds the circuit breaker."""
        monkeypatch.setattr(dispatcher_module, "READY_TIMEOUT_S", 1.0)
        env, cluster, dispatcher, svc, _ = _rig()
        cluster.ready_after_s = 50.0  # never within the timeout
        proc = env.process(dispatcher.ensure_deployed(svc, cluster))
        outcome = env.run(until=proc)
        assert not outcome.ready
        assert outcome.scaled  # the pipeline itself completed...
        assert outcome.failed_phase == "wait_ready"  # ...readiness did not
        assert "not open within 1.0s" in outcome.error
        assert outcome.total_s >= 1.0
        assert dispatcher.recorder.counter("deploy_failures/fake") == 1
        assert dispatcher.breakers["fake"].consecutive_failures == 1

    def test_breaker_disabled_records_no_breaker(self):
        env, cluster, dispatcher, svc, _ = _rig(
            breaker_enabled=False, max_phase_retries=0
        )
        cluster.fail_script["pull"] = [RegistryUnavailable("down")]
        proc = env.process(dispatcher.ensure_deployed(svc, cluster))
        outcome = env.run(until=proc)
        assert not outcome.ready
        assert dispatcher.breakers == {}

    def test_open_breaker_blocks_cluster_in_gathered_state(self, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "BREAKER_THRESHOLD", 2)
        env, cluster, dispatcher, svc, _ = _rig(
            max_phase_retries=0, breaker_cooldown_s=10.0
        )
        cluster.fail_script["pull"] = [
            RegistryUnavailable("down"),
            RegistryUnavailable("down"),
        ]
        for _ in range(2):
            proc = env.process(dispatcher.ensure_deployed(svc, cluster))
            env.run(until=proc)
        (state,) = dispatcher.gather_states(svc)
        assert state.blocked
        assert not state.eligible
        # After the cooldown the same query admits the half-open probe.
        proc = env.process(_sleep(env, 10.0))
        env.run(until=proc)
        (state,) = dispatcher.gather_states(svc)
        assert not state.blocked
        assert state.degraded
        assert dispatcher.breakers["fake"].state is BreakerState.HALF_OPEN


def _sleep(env, duration):
    yield env.timeout(duration)


# ---------------------------------------------------------------------------
# Graceful degradation end-to-end (testbed): failed BEST → next FAST,
# breaker opens, flows tagged degraded, probe closes, flows repoint.


class TestGracefulDegradation:
    def _testbed(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",), n_clients=8))
        far = tb.add_far_edge()
        svc = tb.register_template(NGINX)
        # Warm the far cluster to running: the degradation target.
        tb.prepare_created(far, svc)
        proc = tb.env.process(far.scale_up(svc.plan))
        tb.env.run(until=proc)
        proc = tb.env.process(
            far.wait_ready(svc.plan, poll_interval_s=0.02, timeout_s=30.0)
        )
        assert tb.env.run(until=proc)
        return tb, far, svc

    def test_breaker_lifecycle_under_registry_outage(self):
        tb, far, svc = self._testbed()
        dispatcher = tb.controller.dispatcher
        dispatcher.max_phase_retries = 0
        dispatcher.breaker_cooldown_s = 5.0
        tb.active_registry.set_fault_rate(1.0)

        # Three clients each trip a failing with-waiting deployment to
        # the near cluster and get silently degraded to the far one.
        for i in range(3):
            result = tb.run_request(tb.clients[i], svc, NGINX.request)
            assert result.response.status == 200
        flow = tb.controller.flow_memory.lookup(tb.clients[0].ip, svc)
        assert flow.cluster_name == "far-docker"
        assert flow.degraded_from == "docker"
        assert flow.degraded
        breaker = dispatcher.breakers["docker"]
        assert breaker.state is BreakerState.OPEN
        failures = tb.recorder.counter("deploy_failures/docker")
        assert failures == 3

        # Breaker open: a fresh client skips the near cluster entirely
        # (no new deployment attempt) but its flow is still tagged.
        result = tb.run_request(tb.clients[3], svc, NGINX.request)
        assert result.response.status == 200
        assert tb.recorder.counter("deploy_failures/docker") == failures
        flow3 = tb.controller.flow_memory.lookup(tb.clients[3].ip, svc)
        assert flow3.cluster_name == "far-docker"
        assert flow3.degraded_from == "docker"

        # Heal the registry, wait out the cooldown: the next dispatch
        # sends the half-open probe, which succeeds and closes.
        tb.active_registry.set_fault_rate(0.0)
        tb.settle(dispatcher.breaker_cooldown_s + 0.1)
        result = tb.run_request(tb.clients[4], svc, NGINX.request)
        assert result.response.status == 200
        assert breaker.state is BreakerState.CLOSED
        assert breaker.stats["probes"] == 1
        assert breaker.stats["closes"] == 1
        assert tb.docker_cluster.is_running(svc.plan)
        flow4 = tb.controller.flow_memory.lookup(tb.clients[4].ip, svc)
        assert flow4.cluster_name == "docker"
        assert not flow4.degraded

        # Degraded flows bypass the memory fast path once the breaker
        # stops blocking: the next punt re-resolves to the recovered
        # near cluster.
        tb.settle(tb.controller.calibration.switch_idle_timeout_s + 1.0)
        dispatched = tb.controller.stats["dispatched"]
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        assert tb.controller.stats["dispatched"] == dispatched + 1
        flow = tb.controller.flow_memory.lookup(tb.clients[0].ip, svc)
        assert flow.cluster_name == "docker"
        assert not flow.degraded

    def test_without_breaker_degraded_flows_redeploy_every_punt(self):
        """The no-breaker contrast: every punt of a degraded flow goes
        back through a failing deployment instead of the memory path."""
        tb, far, svc = self._testbed()
        dispatcher = tb.controller.dispatcher
        dispatcher.breaker_enabled = False
        dispatcher.max_phase_retries = 0
        tb.active_registry.set_fault_rate(1.0)

        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        first_failures = tb.recorder.counter("deploy_failures/docker")
        assert first_failures == 1
        assert dispatcher.breakers == {}

        tb.settle(tb.controller.calibration.switch_idle_timeout_s + 1.0)
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        # Re-resolved (no memory hit), re-failed.
        assert tb.recorder.counter("deploy_failures/docker") == 2
        assert tb.controller.stats["memory_hits"] == 0


# ---------------------------------------------------------------------------
# Injector: applying and reverting faults against the real testbed


class TestInjector:
    def test_registry_outage_window(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",), n_clients=1))
        plan = FaultPlan(seed=3).registry_outage(1.0, "docker-hub", 2.0, rate=1.0)
        injector = Injector(tb, plan).arm()
        tb.settle(1.5)
        assert tb.public_registry.failure_rate == 1.0
        tb.settle(2.0)
        assert tb.public_registry.failure_rate == 0.0
        assert [entry for _, entry in injector.log] == [
            "registry-outage docker-hub rate=1.0",
            "registry-restore docker-hub",
        ]
        assert tb.recorder.counter("faults/registry-outage") == 1
        assert tb.recorder.counter("faults/registry-restore") == 1

    def test_unknown_target_raises(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",), n_clients=1))
        Injector(tb, FaultPlan().registry_outage(0.1, "nope", 1.0)).arm()
        # The fail-fast kernel surfaces the injector's ValueError.
        from repro.sim.environment import SimulationError

        with pytest.raises(SimulationError, match="no registry named 'nope'"):
            tb.settle(0.2)

    def test_host_crash_and_restore(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",), n_clients=1))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        assert tb.docker_cluster.is_running(svc.plan)

        start = tb.env.now
        plan = FaultPlan().node_crash(0.5, "egs", duration_s=2.0)
        Injector(tb, plan).arm()
        tb.env.run(until=start + 1.0)
        # Crashed: runtime refuses work, containers were killed, the
        # host's link is down.
        assert tb.containerd.down
        assert not tb.docker_cluster.is_running(svc.plan)
        assert tb.egs.iface.endpoint.link.down
        with pytest.raises(NodeDown):
            raise_after = tb.env.process(
                tb.containerd.pull(next(iter(tb.images.values())), tb.public_registry)
            )
            tb.env.run(until=raise_after)

        tb.env.run(until=start + 3.0)
        assert not tb.containerd.down
        assert not tb.egs.iface.endpoint.link.down

        # After the stale redirect idles out, service recovers on-demand.
        tb.settle(tb.controller.calibration.switch_idle_timeout_s + 1.0)
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        assert tb.docker_cluster.is_running(svc.plan)

    def test_pod_kill_stops_the_service(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",), n_clients=1))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)
        assert tb.docker_cluster.is_running(svc.plan)

        injector = Injector(
            tb, FaultPlan().kill_pod(0.5, "docker", svc.name)
        ).arm()
        tb.settle(1.0)
        assert not tb.docker_cluster.is_running(svc.plan)
        assert any("pod-kill" in entry for _, entry in injector.log)
        assert "killed=0" not in injector.log[-1][1]

    def test_partition_heals(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",), n_clients=1))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        client = tb.clients[0]
        link = client.iface.endpoint.link
        Injector(
            tb, FaultPlan().partition(0.5, client.name, "ovs", 1.0)
        ).arm()
        tb.settle(1.0)
        assert link.down
        tb.settle(1.0)
        assert not link.down
        result = tb.run_request(client, svc, NGINX.request)
        assert result.response.status == 200

    def test_api_stall_delays_requests(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("k8s",), n_clients=1))
        Injector(tb, FaultPlan().api_stall(0.5, "k8s", 2.0)).arm()
        tb.settle(1.0)  # mid-stall: 1.5s of it remains
        t0 = tb.env.now
        proc = tb.env.process(tb.kubernetes.api.try_get("Pod", "any"))
        tb.env.run(until=proc)
        elapsed = tb.env.now - t0
        assert elapsed >= 1.5
        assert elapsed < 1.6

    def test_same_plan_same_log(self):
        def run():
            tb = C3Testbed(TestbedConfig(cluster_types=("docker",), n_clients=1))
            svc = tb.register_template(NGINX)
            tb.prepare_created(tb.docker_cluster, svc)
            plan = (
                FaultPlan(seed=11)
                .registry_outage(0.5, "docker-hub", 1.0, rate=1.0)
                .node_crash(1.0, "egs", duration_s=1.0)
            )
            injector = Injector(tb, plan).arm()
            tb.settle(3.0)
            return injector.log

        assert run() == run()


# ---------------------------------------------------------------------------
# A mid-path switch crash under a live conversation: the table comes
# back empty, so the flow re-resolves through the controller.


class TestSwitchCrashMidConversation:
    def test_switch_crash_forces_controller_reresolution(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",), n_clients=1))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        first = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert first.response.status == 200

        client = tb.clients[0]
        env = tb.env
        # Crash the switch 2.5s into the conversation, restore 1s later.
        Injector(tb, FaultPlan().node_crash(2.5, "ovs", duration_s=1.0)).arm()
        observed: dict[str, object] = {}

        def driver():
            conn = yield from client.connect(svc.cloud_ip, svc.port, timeout=5.0)
            for _ in range(3):  # rounds at ~0, ~1, ~2: all data plane
                conn.send_payload(NGINX.request, NGINX.request.total_bytes)
                yield from conn.recv(timeout=5.0)
                yield env.timeout(1.0)
            observed["punts_before"] = tb.switch.stats["punt"]
            observed["hits_before"] = tb.controller.stats["memory_hits"]
            # Sit out the crash (2.5..3.5) plus reinstall latency.
            yield env.timeout(2.0)
            for _ in range(2):  # post-crash rounds must still answer
                conn.send_payload(NGINX.request, NGINX.request.total_bytes)
                yield from conn.recv(timeout=10.0)
                yield env.timeout(0.1)
            conn.close()

        proc = env.process(driver())
        env.run(until=proc)

        # The first post-crash packet punted (empty table after the
        # power cycle) and the controller re-resolved from FlowMemory.
        assert tb.switch.stats["punt"] > observed["punts_before"]
        assert tb.controller.stats["memory_hits"] > observed["hits_before"]

    def test_a_power_cycle_starts_the_clock_of_the_flows_it_held(self):
        """A power cycle empties the table and no FlowRemoved says so.
        On the switch's rejoin each flow its redirects held starts its
        clock, so the idle service still leaves ``memory_idle_timeout_s``
        later instead of being held for ever; and each redirect forgets
        the connections a repoint drained, so no later ``retire`` sends a
        ``drain:`` delete that finds nothing."""
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",), auto_scale_down=True))
        far = tb.add_far_edge()
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        client = tb.clients[0]
        assert tb.run_request(client, svc, NGINX.request).response.status == 200
        flow = tb.controller.flow_memory.lookup(client.ip, svc)
        tb.controller.conntrack = lambda *_: (40000,)
        far_endpoint = ServiceEndpoint(far.ingress_host.ip, 30081)
        assert tb.controller.repoint_service_flows(svc, far.name, far_endpoint) == 1
        redirect = tb.controller._redirects[client.ip][(tb.datapath.id, svc.name)]
        assert list(redirect.drained) == [40000]
        assert flow.deadline is None  # held by its redirect
        base = tb.env.now
        Injector(tb, FaultPlan().node_crash(1.0, "ovs", duration_s=1.0)).arm()
        tb.settle(2.5)
        assert (redirect.installed, redirect.drained) == (False, {})
        sent = []
        tap(tb.datapath.channel, "send_to_switch", sent.append)
        redirect.retire()
        assert sent == []
        idle_s = tb.controller.calibration.memory_idle_timeout_s
        assert flow.deadline == (base + 1.0) + 1.0 + idle_s
        tb.settle(idle_s)
        assert tb.controller.stats["scale_downs"] == 1
        assert not tb.docker_cluster.is_running(svc.plan)
