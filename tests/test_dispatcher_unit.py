"""Unit tests for the Dispatcher with scripted fake clusters."""

from __future__ import annotations

from repro.cluster.base import EdgeCluster, ServiceEndpoint
from repro.core import Annotator, FlowMemory, ServiceRegistry
from repro.core.dispatcher import Dispatcher
from repro.core.schedulers.base import (
    ClientInfo,
    Decision,
    GlobalScheduler,
)
from repro.net.addressing import IPv4Address
from repro.services import build_catalog
from repro.services.catalog import NGINX
from repro.sim import Environment


class FakeCluster(EdgeCluster):
    """Scripted cluster: phases advance state after configured delays."""

    PORT_BASE = 12345

    def __init__(self, env, name, host, distance=0, capacity=None,
                 pull_s=1.0, create_s=0.1, scale_s=0.2, ready_after_s=0.3):
        super().__init__(env, name, host, distance, capacity)
        self.pull_s = pull_s
        self.create_s = create_s
        self.scale_s = scale_s
        self.ready_after_s = ready_after_s
        self.cached: set[str] = set()
        self.created: set[str] = set()
        self.ready_at: dict[str, float] = {}
        self.calls: list[str] = []

    def pull(self, plan):
        self.calls.append(f"pull:{plan.service_name}")
        yield self.env.timeout(self.pull_s)
        self.cached.add(plan.service_name)

    def _create_instance(self, plan, port):
        self.calls.append(f"create:{plan.service_name}")
        yield self.env.timeout(self.create_s)
        self.created.add(plan.service_name)

    def _start_instance(self, plan):
        self.calls.append(f"scale_up:{plan.service_name}")
        yield self.env.timeout(self.scale_s)
        self.ready_at[plan.service_name] = self.env.now + self.ready_after_s

    def scale_down(self, plan):
        self.calls.append(f"scale_down:{plan.service_name}")
        yield self.env.timeout(0.01)
        self.ready_at.pop(plan.service_name, None)

    def _remove_instance(self, plan):
        yield self.env.timeout(0.01)
        self.created.discard(plan.service_name)

    def delete_images(self, plan):
        yield self.env.timeout(0.0)
        self.cached.discard(plan.service_name)
        return 0

    def image_cached(self, plan):
        return plan.service_name in self.cached

    def is_created(self, plan):
        return plan.service_name in self.created

    def is_running(self, plan):
        at = self.ready_at.get(plan.service_name)
        return at is not None and self.env.now >= at

    def running_services(self):
        return {name for name, at in self.ready_at.items() if self.env.now >= at}


class ScriptedScheduler(GlobalScheduler):
    def __init__(self, decide):
        self.decide = decide

    def choose(self, service, states, client):
        return self.decide(states)


def _setup(decide, **cluster_kwargs):
    env = Environment()
    from tests.nethelpers import MiniNet

    net = MiniNet(env)
    host = net.host("edge-host")
    cluster = FakeCluster(env, "fake", host, **cluster_kwargs)
    images, behaviors = build_catalog()
    registry = ServiceRegistry(Annotator(images, behaviors))
    service = registry.register(
        NGINX.definition_yaml, IPv4Address.parse("203.0.113.5"), 80
    )
    memory = FlowMemory(env, idle_timeout_s=100.0)
    dispatcher = Dispatcher(
        env, [cluster], ScriptedScheduler(decide), memory
    )
    # The memory half of the controller's repoint_service_flows.
    dispatcher.on_endpoint_ready = lambda service, name, endpoint: [
        memory.remember(flow.client_ip, service, name, endpoint)
        for flow in memory.flows_for_service(service)
    ]
    client = ClientInfo(
        ip=IPv4Address.parse("10.0.0.9"), datapath_id=1, in_port=1, last_seen=0.0
    )
    return env, cluster, dispatcher, service, client, memory


class TestEnsureDeployed:
    def test_runs_all_phases_cold(self):
        env, cluster, dispatcher, svc, client, _ = _setup(
            lambda s: Decision(fast=s[0].cluster)
        )
        proc = env.process(dispatcher.ensure_deployed(svc, cluster))
        outcome = env.run(until=proc)
        assert outcome.pulled and outcome.created and outcome.scaled
        assert outcome.ready
        assert outcome.total_s >= 1.0 + 0.1 + 0.2 + 0.3
        assert cluster.calls == [
            f"pull:{svc.name}",
            f"create:{svc.name}",
            f"scale_up:{svc.name}",
        ]

    def test_skips_completed_phases(self):
        env, cluster, dispatcher, svc, client, _ = _setup(
            lambda s: Decision(fast=s[0].cluster)
        )
        cluster.cached.add(svc.name)
        cluster.created.add(svc.name)
        proc = env.process(dispatcher.ensure_deployed(svc, cluster))
        outcome = env.run(until=proc)
        assert not outcome.pulled and not outcome.created and outcome.scaled

    def test_noop_when_already_running(self):
        env, cluster, dispatcher, svc, client, _ = _setup(
            lambda s: Decision(fast=s[0].cluster)
        )
        cluster.cached.add(svc.name)
        cluster.created.add(svc.name)
        cluster.ready_at[svc.name] = 0.0
        proc = env.process(dispatcher.ensure_deployed(svc, cluster))
        outcome = env.run(until=proc)
        assert not outcome.scaled and outcome.total_s == 0.0
        assert cluster.calls == []

    def test_concurrent_callers_share_pipeline(self):
        env, cluster, dispatcher, svc, client, _ = _setup(
            lambda s: Decision(fast=s[0].cluster)
        )
        outcomes = []

        def caller(env):
            outcome = yield from dispatcher.ensure_deployed(svc, cluster)
            outcomes.append(outcome)

        for _ in range(4):
            env.process(caller(env))
        env.run(until=20.0)
        assert len(outcomes) == 4
        assert all(o is outcomes[0] for o in outcomes)
        assert cluster.calls.count(f"scale_up:{svc.name}") == 1

    def test_records_phase_samples(self):
        env, cluster, dispatcher, svc, client, _ = _setup(
            lambda s: Decision(fast=s[0].cluster)
        )
        proc = env.process(dispatcher.ensure_deployed(svc, cluster))
        env.run(until=proc)
        rec = dispatcher.recorder
        assert len(rec.samples(f"pull/fake/{svc.name}")) == 1
        assert len(rec.samples(f"deploy_total/fake/{svc.name}")) == 1
        assert len(rec.series("deployments")) == 1


class TestResolve:
    def test_cloud_when_no_fast(self):
        env, cluster, dispatcher, svc, client, _ = _setup(
            lambda s: Decision(fast=None, best=None)
        )
        proc = env.process(dispatcher.resolve(svc, client))
        resolution = env.run(until=proc)
        assert resolution.endpoint is None
        assert resolution.cluster_name == "cloud"

    def test_cloud_with_background_best(self):
        env, cluster, dispatcher, svc, client, memory = _setup(
            lambda s: Decision(fast=None, best=s[0].cluster)
        )
        proc = env.process(dispatcher.resolve(svc, client))
        resolution = env.run(until=proc)
        assert resolution.endpoint is None
        # The background deployment still completes.
        env.run(until=env.now + 10.0)
        assert cluster.is_running(svc.plan)

    def test_with_waiting_blocks_until_ready(self):
        env, cluster, dispatcher, svc, client, _ = _setup(
            lambda s: Decision(fast=s[0].cluster, best=None)
        )
        proc = env.process(dispatcher.resolve(svc, client))
        resolution = env.run(until=proc)
        assert resolution.endpoint is not None
        assert env.now >= 1.6  # waited for pull+create+scale+ready
        assert cluster.is_running(svc.plan)

    def test_background_updates_memory_endpoint(self):
        env, cluster, dispatcher, svc, client, memory = _setup(
            lambda s: Decision(fast=None, best=s[0].cluster)
        )
        cloud_ep = ServiceEndpoint(IPv4Address.parse("198.51.100.1"), 80)
        memory.remember(client.ip, svc, "cloud", cloud_ep)
        proc = env.process(dispatcher.resolve(svc, client))
        env.run(until=proc)
        env.run(until=env.now + 10.0)
        flow = memory.lookup(client.ip, svc)
        assert flow.cluster_name == "fake"
        assert flow.endpoint.port == 12345

    def test_inflight_deployments_count_toward_capacity(self):
        """While one service is mid-deployment, a capacity-1 cluster
        reports no room for a second one."""
        env, cluster, dispatcher, svc, client, _ = _setup(
            lambda s: Decision(fast=s[0].cluster)
        )
        cluster.capacity = 1
        images, behaviors = build_catalog()
        registry2 = ServiceRegistry(Annotator(images, behaviors))
        svc2 = registry2.register(
            NGINX.definition_yaml, IPv4Address.parse("203.0.113.6"), 80
        )
        checked = {}

        def deploy_first(env):
            yield from dispatcher.ensure_deployed(svc, cluster)

        def check_mid_flight(env):
            yield env.timeout(0.5)  # first deployment still pulling
            checked["room_for_second"] = dispatcher._has_room(svc2, cluster)
            checked["room_for_same"] = dispatcher._has_room(svc, cluster)

        env.process(deploy_first(env))
        env.process(check_mid_flight(env))
        env.run(until=10.0)
        assert checked["room_for_second"] is False
        assert checked["room_for_same"] is True  # its own deployment

    def test_client_tracking(self):
        env, cluster, dispatcher, svc, client, _ = _setup(
            lambda s: Decision(fast=None)
        )
        info = dispatcher.note_client(client.ip, 7, 3)
        assert dispatcher.client_locations[client.ip] is info
        assert info.datapath_id == 7 and info.in_port == 3
