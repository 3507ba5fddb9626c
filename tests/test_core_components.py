"""Unit tests for annotator, registry, FlowMemory, and schedulers."""

from __future__ import annotations

import pytest

from repro import yamlite
from repro.cluster.base import ServiceEndpoint
from repro.cluster.plan import DeploymentPlan, PlannedContainer
from repro.core import (
    AnnotationError,
    Annotator,
    ClusterState,
    FlowMemory,
    HybridDockerK8sScheduler,
    LowLatencyScheduler,
    NearestScheduler,
    ServiceRegistry,
    load_scheduler,
)
from repro.core.annotator import unique_service_name
from repro.core.schedulers import CloudOnlyScheduler, SchedulerLoadError
from repro.core.schedulers.base import ClientInfo
from repro.net.addressing import IPv4Address
from repro.services import build_catalog
from repro.services.catalog import ASM, NGINX, NGINX_PY
from repro.sim import Environment


IP = IPv4Address.parse("203.0.113.10")
CLIENT = ClientInfo(
    ip=IPv4Address.parse("10.0.0.99"), datapath_id=1, in_port=3, last_seen=0.0
)


@pytest.fixture()
def annotator():
    images, behaviors = build_catalog()
    return Annotator(images, behaviors)


class TestAnnotator:
    def test_unique_name_from_address(self):
        assert unique_service_name(IP, 80) == "edge-203-0-113-10-80"
        assert unique_service_name(IP, 81) != unique_service_name(IP, 80)

    def test_nginx_plan(self, annotator):
        plan, annotated = annotator.annotate(NGINX.definition_yaml, IP, 80)
        assert plan.service_name == "edge-203-0-113-10-80"
        assert plan.labels["edge.service"] == plan.service_name
        assert plan.target_port == 80
        assert len(plan.containers) == 1
        assert plan.containers[0].image.reference == "nginx:1.23.2"
        assert plan.containers[0].boot_time_s > 0

    def test_multi_container_plan(self, annotator):
        plan, _ = annotator.annotate(NGINX_PY.definition_yaml, IP, 80)
        assert len(plan.containers) == 2
        names = [c.name for c in plan.containers]
        assert names == ["web", "env-writer"]
        # env and volume mounts parsed.
        writer = plan.containers[1]
        assert writer.env == {"WRITE_INTERVAL": "1"}
        assert writer.volume_mounts == {"content": "/content"}
        # Only nginx serves HTTP.
        assert plan.serving_container.name == "web"

    def test_annotated_yaml_shape(self, annotator):
        _, annotated = annotator.annotate(NGINX.definition_yaml, IP, 80)
        docs = yamlite.load_all(annotated)
        assert len(docs) == 2
        dep, svc = docs
        assert dep["kind"] == "Deployment"
        assert dep["spec"]["replicas"] == 0  # scale-to-zero default
        labels = dep["metadata"]["labels"]
        assert labels["edge.service"] == "edge-203-0-113-10-80"
        assert dep["spec"]["selector"]["matchLabels"] == labels
        assert svc["kind"] == "Service"
        assert svc["spec"]["ports"][0]["port"] == 80
        assert svc["spec"]["ports"][0]["targetPort"] == 80
        assert svc["spec"]["ports"][0]["protocol"] == "TCP"

    def test_scheduler_name_annotation(self):
        images, behaviors = build_catalog()
        annotator = Annotator(images, behaviors, scheduler_name="edge-sched")
        plan, annotated = annotator.annotate(NGINX.definition_yaml, IP, 80)
        assert plan.scheduler_name == "edge-sched"
        dep = yamlite.load_all(annotated)[0]
        assert dep["spec"]["template"]["spec"]["schedulerName"] == "edge-sched"

    def test_mandatory_image_enforced(self, annotator):
        bad = """
spec:
  template:
    spec:
      containers:
      - name: web
"""
        with pytest.raises(AnnotationError, match="image"):
            annotator.annotate(bad, IP, 80)

    def test_unknown_image_rejected(self, annotator):
        bad = """
spec:
  template:
    spec:
      containers:
      - name: web
        image: no-such-image:1
"""
        with pytest.raises(AnnotationError, match="unknown"):
            annotator.annotate(bad, IP, 80)

    def test_empty_definition_rejected(self, annotator):
        with pytest.raises(AnnotationError):
            annotator.annotate("", IP, 80)
        with pytest.raises(AnnotationError):
            annotator.annotate("kind: ConfigMap\n", IP, 80)

    def test_developer_service_doc_respected(self, annotator):
        text = NGINX.definition_yaml + (
            "---\n"
            "kind: Service\n"
            "spec:\n"
            "  ports:\n"
            "  - port: 8080\n"
            "    targetPort: 80\n"
        )
        plan, annotated = annotator.annotate(text, IP, 8080)
        assert plan.target_port == 80
        svc = yamlite.load_all(annotated)[1]
        # Developer's Service kept, name/labels annotated.
        assert svc["spec"]["ports"][0]["port"] == 8080
        assert svc["metadata"]["name"] == plan.service_name

    def test_no_port_anywhere_rejected(self, annotator):
        text = """
spec:
  template:
    spec:
      containers:
      - name: job
        image: josefhammer/env-writer-py
"""
        with pytest.raises(AnnotationError, match="containerPort"):
            annotator.annotate(text, IP, 80)


class TestServiceRegistry:
    def test_register_and_lookup(self, annotator):
        registry = ServiceRegistry(annotator)
        svc = registry.register(NGINX.definition_yaml, IP, 80, template_key="nginx")
        assert registry.lookup(IP, 80) is svc
        assert registry.lookup(IP, 81) is None
        assert registry.all() == [svc]
        assert svc.template_key == "nginx"

    def test_duplicate_address_rejected(self, annotator):
        registry = ServiceRegistry(annotator)
        registry.register(NGINX.definition_yaml, IP, 80)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(ASM.definition_yaml, IP, 80)

    def test_unregister(self, annotator):
        registry = ServiceRegistry(annotator)
        svc = registry.register(NGINX.definition_yaml, IP, 80)
        registry.unregister(svc)
        assert registry.lookup(IP, 80) is None
        assert registry.all() == []

    def test_all_sorted_by_name(self, annotator):
        registry = ServiceRegistry(annotator)
        ips = [IPv4Address.parse(f"203.0.113.{i}") for i in (30, 10, 20)]
        for ip in ips:
            registry.register(NGINX.definition_yaml, ip, 80)
        names = [s.name for s in registry.all()]
        assert names == sorted(names)


def _service(annotator, ip=IP, port=80):
    registry = ServiceRegistry(annotator)
    return registry.register(NGINX.definition_yaml, ip, port)


class TestFlowMemory:
    def test_remember_lookup_touch(self, annotator):
        env = Environment()
        memory = FlowMemory(env, idle_timeout_s=10.0)
        svc = _service(annotator)
        ep = ServiceEndpoint(IPv4Address.parse("10.0.0.1"), 20000)
        flow = memory.remember(CLIENT.ip, svc, "docker", ep)
        assert memory.lookup(CLIENT.ip, svc) is flow
        assert memory.service_in_use(svc)
        assert len(memory) == 1

    def test_remember_refreshes_existing(self, annotator):
        env = Environment()
        memory = FlowMemory(env, idle_timeout_s=10.0)
        svc = _service(annotator)
        ep1 = ServiceEndpoint(IPv4Address.parse("10.0.0.1"), 20000)
        ep2 = ServiceEndpoint(IPv4Address.parse("10.0.0.2"), 30000)
        memory.remember(CLIENT.ip, svc, "docker", ep1)
        flow = memory.remember(CLIENT.ip, svc, "k8s", ep2)
        assert len(memory) == 1
        assert flow.endpoint == ep2 and flow.cluster_name == "k8s"

    def test_idle_expiry_fires_callback(self, annotator):
        """A released flow expires exactly ``idle_timeout_s`` after the
        instant its clock started, which may lie in the past."""
        env = Environment()
        expired = []
        memory = FlowMemory(
            env, idle_timeout_s=5.0, on_expire=lambda flow: expired.append(env.now)
        )
        svc = _service(annotator)
        ep = ServiceEndpoint(IPv4Address.parse("10.0.0.1"), 20000)
        flow = memory.remember(CLIENT.ip, svc, "docker", ep)
        env.run(until=2.0)
        memory.release(flow, since=1.0)
        assert flow.deadline == 6.0
        env.run()
        assert expired == [6.0]
        assert len(memory) == 0
        assert not memory.service_in_use(svc)

    def test_a_held_flow_never_expires(self, annotator):
        """Released, then held again before its deadline: the wake armed
        for it fires and finds nothing to expire."""
        env = Environment()
        memory = FlowMemory(env, idle_timeout_s=5.0)
        svc = _service(annotator)
        ep = ServiceEndpoint(IPv4Address.parse("10.0.0.1"), 20000)
        flow = memory.remember(CLIENT.ip, svc, "docker", ep)
        memory.release(flow, since=0.0)
        env.run(until=4.0)
        memory.hold(flow)
        env.run()
        assert memory.lookup(CLIENT.ip, svc) is flow and flow.deadline is None
        assert env.now == 5.0  # the one wake, spent

    def test_the_clock_starts_at_a_release_never_at_remember(self, annotator):
        """Remembering holds: nothing pending, so no wake is armed."""
        env = Environment()
        memory = FlowMemory(env, idle_timeout_s=5.0)
        svc = _service(annotator)
        ep = ServiceEndpoint(IPv4Address.parse("10.0.0.1"), 20000)
        for i in range(3):
            flow = memory.remember(IPv4Address.parse(f"10.0.9.{i}"), svc, "docker", ep)
            assert flow.deadline is None
        assert len(env) == 0
        env.run(until=1000.0)
        assert len(memory) == 3

    def test_one_wake_at_the_earliest_deadline(self, annotator):
        """A later release arms nothing while an earlier wake is armed;
        an earlier one arms its own, and each wake re-arms at the next
        deadline."""
        env = Environment()
        expired = []
        memory = FlowMemory(
            env, idle_timeout_s=5.0, on_expire=lambda flow: expired.append((flow.key[0], env.now))
        )
        svc = _service(annotator)
        ep = ServiceEndpoint(IPv4Address.parse("10.0.0.1"), 20000)
        a, b, c = (
            memory.remember(IPv4Address.parse(f"10.0.9.{i}"), svc, "docker", ep)
            for i in range(3)
        )
        memory.release(a, since=2.0)
        memory.release(b, since=3.0)
        assert len(env) == 1
        memory.release(c, since=1.0)
        assert len(env) == 2
        env.run()
        assert expired == [(c.client_ip, 6.0), (a.client_ip, 7.0), (b.client_ip, 8.0)]


class _FakeCluster:
    """Minimal stand-in for scheduler unit tests."""

    def __init__(self, name, distance):
        self.name = name
        self.distance = distance


def _state(name, distance, running=False, created=False, cached=False):
    return ClusterState(
        cluster=_FakeCluster(name, distance),
        running=running,
        created=created,
        cached=cached,
    )


class TestSchedulers:
    def test_nearest_always_nearest(self, annotator):
        svc = _service(annotator)
        sched = NearestScheduler()
        states = [_state("far", 2, running=True), _state("near", 0)]
        decision = sched.choose(svc, states, CLIENT)
        assert decision.fast.name == "near"
        assert decision.best is None

    def test_nearest_empty_states_goes_cloud(self, annotator):
        svc = _service(annotator)
        decision = NearestScheduler().choose(svc, [], CLIENT)
        assert decision.fast is None and decision.best is None

    def test_nearest_prefers_cached_on_tie(self, annotator):
        svc = _service(annotator)
        states = [_state("a", 0, cached=False), _state("b", 0, cached=True)]
        decision = NearestScheduler().choose(svc, states, CLIENT)
        assert decision.fast.name == "b"

    def test_lowlatency_running_nearest_wins(self, annotator):
        svc = _service(annotator)
        states = [_state("near", 0, running=True), _state("far", 1, running=True)]
        decision = LowLatencyScheduler().choose(svc, states, CLIENT)
        assert decision.fast.name == "near" and decision.best is None

    def test_lowlatency_redirects_to_running_while_deploying(self, annotator):
        svc = _service(annotator)
        states = [_state("near", 0), _state("far", 1, running=True)]
        decision = LowLatencyScheduler().choose(svc, states, CLIENT)
        assert decision.fast.name == "far"
        assert decision.best.name == "near"

    def test_lowlatency_cloud_fallback_still_deploys(self, annotator):
        svc = _service(annotator)
        states = [_state("near", 0), _state("far", 1)]
        decision = LowLatencyScheduler().choose(svc, states, CLIENT)
        assert decision.fast is None
        assert decision.best.name == "near"

    def test_hybrid_prefers_running_k8s(self, annotator):
        svc = _service(annotator)
        states = [_state("docker", 0), _state("k8s", 0, running=True)]
        sched = HybridDockerK8sScheduler("docker", "k8s")
        decision = sched.choose(svc, states, CLIENT)
        assert decision.fast.name == "k8s" and decision.best is None

    def test_hybrid_cold_start_via_docker(self, annotator):
        svc = _service(annotator)
        states = [_state("docker", 0), _state("k8s", 0)]
        sched = HybridDockerK8sScheduler("docker", "k8s")
        decision = sched.choose(svc, states, CLIENT)
        assert decision.fast.name == "docker"
        assert decision.best.name == "k8s"

    def test_cloud_only(self, annotator):
        svc = _service(annotator)
        decision = CloudOnlyScheduler().choose(
            svc, [_state("near", 0, running=True)], CLIENT
        )
        assert decision.fast is None and decision.best is None


class TestSchedulerLoader:
    def test_load_by_bare_name(self):
        sched = load_scheduler("NearestScheduler")
        assert isinstance(sched, NearestScheduler)

    def test_load_by_full_path_with_params(self):
        sched = load_scheduler(
            "repro.core.schedulers.builtin:HybridDockerK8sScheduler",
            docker_cluster="d",
            k8s_cluster="k",
        )
        assert isinstance(sched, HybridDockerK8sScheduler)
        assert sched.docker_cluster == "d"

    def test_unknown_module(self):
        with pytest.raises(SchedulerLoadError, match="cannot import"):
            load_scheduler("no.such.module:Thing")

    def test_unknown_class(self):
        with pytest.raises(SchedulerLoadError, match="no attribute"):
            load_scheduler("NoSuchScheduler")

    def test_non_scheduler_class_rejected(self):
        with pytest.raises(SchedulerLoadError, match="not a GlobalScheduler"):
            load_scheduler("repro.core.flow_memory:FlowMemory")

    def test_bad_params_rejected(self):
        with pytest.raises(SchedulerLoadError, match="instantiate"):
            load_scheduler("NearestScheduler", bogus=1)

    def test_not_a_class_rejected(self):
        with pytest.raises(SchedulerLoadError, match="not a GlobalScheduler"):
            load_scheduler("repro.core.schedulers.loader:load_scheduler")


class TestDeploymentPlanValidation:
    def test_requires_edge_service_label(self):
        from repro.containers.image import ImageSpec

        image = ImageSpec.synthesize("x:1", 1024, 1)
        with pytest.raises(ValueError, match="edge.service"):
            DeploymentPlan(
                service_name="s",
                labels={"app": "s"},
                containers=(PlannedContainer("c", image, container_port=80),),
                target_port=80,
            )

    def test_requires_serving_container(self):
        from repro.containers.image import ImageSpec

        image = ImageSpec.synthesize("x:1", 1024, 1)
        with pytest.raises(ValueError, match="target port"):
            DeploymentPlan(
                service_name="s",
                labels={"edge.service": "s"},
                containers=(PlannedContainer("c", image, container_port=8080),),
                target_port=80,
            )
