"""Tests for the Kubernetes substrate (API server through kube-proxy)."""

from __future__ import annotations

import pytest

from repro.containers import Containerd, ImageSpec, Registry
from repro.containers.image import MIB
from repro.containers.registry import PRIVATE_PROFILE
from repro.k8s import (
    APIServer,
    Conflict,
    ContainerDef,
    Deployment,
    DeploymentSpec,
    KubernetesClient,
    KubernetesCluster,
    NotFound,
    ObjectMeta,
    Pod,
    PodSpec,
    PodTemplateSpec,
    Service,
    ServicePort,
    ServiceSpec,
    matches_selector,
)
from repro.k8s.profile import K8sProfile
from repro.k8s.scheduler import NodeInfo, least_pods_policy
from repro.sim import Environment

from tests.nethelpers import EchoApp, MiniNet


def _image(name="nginx:test", size=10 * MIB, layers=3):
    return ImageSpec.synthesize(name, size, layers)


def _cluster(env, node_count=1, profile=None):
    net = MiniNet(env)
    registry = Registry(env, "registry", PRIVATE_PROFILE)
    cluster = KubernetesCluster(env, "k8s", registry, profile=profile)
    nodes = []
    for i in range(node_count):
        host = net.host(f"node{i}")
        runtime = Containerd(env, host)
        cluster.add_node(f"node{i}", host, runtime)
        nodes.append((host, runtime))
    return cluster, registry, nodes


def _deployment(name, image, labels=None, replicas=0, containers=None, scheduler="default-scheduler"):
    labels = labels or {"edge.service": name}
    containers = containers or [
        ContainerDef(
            name="main",
            image=image,
            container_port=80,
            boot_time_s=0.05,
            app_factory=lambda e: EchoApp(e),
        )
    ]
    return Deployment(
        metadata=ObjectMeta(name=name, labels=dict(labels)),
        spec=DeploymentSpec(
            replicas=replicas,
            selector=dict(labels),
            template=PodTemplateSpec(
                labels=dict(labels),
                spec=PodSpec(containers=containers, scheduler_name=scheduler),
            ),
        ),
    )


def _service(name, labels, node_port=30080, target_port=80):
    return Service(
        metadata=ObjectMeta(name=name, labels=dict(labels)),
        spec=ServiceSpec(
            selector=dict(labels),
            ports=[ServicePort(port=80, target_port=target_port, node_port=node_port)],
        ),
    )


class TestSelectors:
    def test_matches_selector(self):
        assert matches_selector({"a": "1", "b": "2"}, {"a": "1"})
        assert not matches_selector({"a": "1"}, {"a": "2"})
        assert matches_selector({"a": "1"}, {})


def _first_read_lands(stall_at: float, duration_s: float) -> float:
    """The instant the deployment controller's first read of a new
    Deployment returns — when its next read is made — with the API
    server stalled from ``stall_at`` for ``duration_s``."""
    from repro.k8s.controllers import DeploymentController
    from repro.observe import tap

    env = Environment()
    api = APIServer(env)
    DeploymentController(env, api)
    reads = []
    untap = tap(APIServer, "try_get", lambda api, kind, *_, **__: reads.append((kind, env.now)))
    try:
        env.process(api.create(_deployment("web", _image())))
        env.call_at(stall_at, api.stall_for, duration_s)
        env.run(until=1.0)
    finally:
        untap()
    return next(at for kind, at in reads if kind == "ReplicaSet")


#: Created at 0, the Deployment's ADDED is delivered at ``api + watch``
#: (30 ms), the controller's read is issued a sync delay later (90 ms)
#: and lands at 102 ms.  Stalls set before the sync delay, inside it,
#: and after the read was issued.
_STALLS = {"before": (0.02, 0.1), "inside": (0.05, 0.1), "after": (0.095, 0.1)}


@pytest.mark.parametrize("when", sorted(_STALLS))
def test_a_stall_delays_a_read_issued_after_a_lead_as_of_its_issue(when):
    """A controller's sync delay and its first read are one heap entry,
    so the read learns of a stall only when that entry pops, after the
    request was issued: it must read the stall as of the issue instant.
    It lands when the chain of the sync's ``Timeout``, the stall's and
    the latency's would have landed it (``tests/k8shelpers.delays_on_the_heap``),
    and a stall set after the issue does not delay it."""
    from tests.k8shelpers import delays_on_the_heap

    profile = K8sProfile()
    with delays_on_the_heap():
        chained = _first_read_lands(*_STALLS[when])
    assert _first_read_lands(*_STALLS[when]) == chained
    issued = (profile.api_latency_s + profile.watch_latency_s) + profile.deployment_sync_s
    if when == "after":
        assert chained == issued + profile.api_latency_s
    else:
        assert chained > issued + profile.api_latency_s


class TestAPIServer:
    def test_create_get_update_delete(self):
        env = Environment()
        api = APIServer(env)
        dep = _deployment("web", _image())

        def go(env):
            yield from api.create(dep)
            fetched = yield from api.get("Deployment", "web")
            assert fetched is dep
            dep.spec.replicas = 3
            yield from api.update(dep)
            yield from api.delete("Deployment", "web")
            missing = yield from api.try_get("Deployment", "web")
            return missing

        proc = env.process(go(env))
        assert env.run(until=proc) is None

    def test_create_conflict(self):
        env = Environment()
        api = APIServer(env)

        def go(env):
            yield from api.create(_deployment("web", _image()))
            yield from api.create(_deployment("web", _image()))

        proc = env.process(go(env))
        with pytest.raises(Conflict):
            env.run(until=proc)

    def test_get_not_found(self):
        env = Environment()
        api = APIServer(env)

        def go(env):
            yield from api.get("Deployment", "ghost")

        proc = env.process(go(env))
        with pytest.raises(NotFound):
            env.run(until=proc)

    def test_list_with_selector(self):
        env = Environment()
        api = APIServer(env)

        def go(env):
            yield from api.create(_deployment("a", _image("a:1"), labels={"tier": "web"}))
            yield from api.create(_deployment("b", _image("b:1"), labels={"tier": "db"}))
            web = api.list_nowait("Deployment", selector={"tier": "web"})
            return len(web), len(api.list_nowait("Deployment"))

        proc = env.process(go(env))
        assert env.run(until=proc) == (1, 2)

    def test_watch_sees_lifecycle(self):
        env = Environment()
        api = APIServer(env)
        seen = []
        api.subscribe(
            "Deployment", lambda event: seen.append((env.now, event.type))
        )

        def actor(env):
            yield env.timeout(0.1)
            dep = _deployment("web", _image())
            yield from api.create(dep)
            yield from api.update(dep)
            yield from api.delete("Deployment", "web")

        env.process(actor(env))
        env.run(until=5.0)
        profile = api.profile
        # Each event reaches the handler one watch latency after its write.
        assert seen == [
            (pytest.approx(0.1 + n * profile.api_latency_s + profile.watch_latency_s), kind)
            for n, kind in ((1, "ADDED"), (2, "MODIFIED"), (3, "DELETED"))
        ]

    def test_watch_replays_existing(self):
        env = Environment()
        api = APIServer(env)
        seen = []

        def actor(env):
            yield from api.create(_deployment("pre", _image()))
            api.subscribe(
                "Deployment",
                lambda event: seen.append((event.type, event.obj.metadata.name)),
            )

        env.process(actor(env))
        env.run(until=1.0)
        assert seen == [("ADDED", "pre")]
        assert api.stats["events"] == 1

    def test_subscribe_refuses_an_unknown_kind(self):
        with pytest.raises(ValueError):
            APIServer(Environment()).subscribe("Gadget", print)

    def test_resource_version_monotonic(self):
        env = Environment()
        api = APIServer(env)
        dep = _deployment("web", _image())

        def go(env):
            yield from api.create(dep)
            v1 = dep.metadata.resource_version
            yield from api.update(dep)
            return v1, dep.metadata.resource_version

        proc = env.process(go(env))
        v1, v2 = env.run(until=proc)
        assert v2 > v1

    def test_api_latency_charged(self):
        env = Environment()
        api = APIServer(env, K8sProfile(api_latency_s=0.5))

        def go(env):
            t0 = env.now
            yield from api.create(_deployment("web", _image()))
            return env.now - t0

        proc = env.process(go(env))
        assert env.run(until=proc) == pytest.approx(0.5)


class TestControlPlane:
    def test_deployment_creates_replicaset_and_pods(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=2))

        env.process(go(env))
        env.run(until=15.0)
        rs = cluster.api.list_nowait("ReplicaSet")
        pods = cluster.api.list_nowait("Pod")
        assert len(rs) == 1 and rs[0].spec.replicas == 2
        assert len(pods) == 2
        assert all(p.status.ready for p in pods)

    def test_zero_replica_deployment_creates_no_pods(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=0))

        env.process(go(env))
        env.run(until=5.0)
        assert len(cluster.api.list_nowait("ReplicaSet")) == 1
        assert cluster.api.list_nowait("Pod") == []

    def test_scale_up_opens_node_port(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        host, runtime = nodes[0]
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)
        labels = {"edge.service": "web"}

        def go(env):
            yield from client.create_deployment(
                _deployment("web", image, labels=labels, replicas=0)
            )
            yield from client.create_service(_service("web", labels))
            yield env.timeout(2.0)  # let create settle
            t0 = env.now
            yield from client.scale_deployment("web", 1)
            while not host.port_is_open(30080):
                yield env.timeout(0.01)
            return env.now - t0

        proc = env.process(go(env))
        elapsed = env.run(until=proc)
        # The paper's fig. 11 K8s band: seconds, not sub-second.
        assert 1.5 < elapsed < 5.0

    def test_scale_down_closes_node_port(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        host, runtime = nodes[0]
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)
        labels = {"edge.service": "web"}

        def go(env):
            yield from client.create_deployment(
                _deployment("web", image, labels=labels, replicas=1)
            )
            yield from client.create_service(_service("web", labels))
            while not host.port_is_open(30080):
                yield env.timeout(0.05)
            yield from client.scale_deployment("web", 0)
            while host.port_is_open(30080):
                yield env.timeout(0.05)
            return True

        proc = env.process(go(env))
        assert env.run(until=proc) is True
        assert cluster.api.list_nowait("Pod") == []

    def test_delete_deployment_cascades(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=1))
            yield env.timeout(8.0)
            yield from client.delete_deployment("web")

        env.process(go(env))
        env.run(until=20.0)
        assert cluster.api.list_nowait("Deployment") == []
        assert cluster.api.list_nowait("ReplicaSet") == []
        assert cluster.api.list_nowait("Pod") == []

    def test_replicaset_deleted_under_the_controllers_update(self):
        """A ReplicaSet that disappears while the Deployment
        controller's ``update(rs)`` pays its API latency must not kill
        the worker (``NotFound`` used to escape ``env.run``).  The
        Deployment's own delete cannot open that window — its cascade
        queues behind the reconcile on the one worker — so the
        ReplicaSet is deleted the way the cascade (or ``kubectl delete
        rs``) does it, through the API."""
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)
        profile = cluster.api.profile
        # scale -> watch event -> work-queue dwell -> two try_gets; the
        # delete is sent half an API latency before update(rs) starts
        # and so lands in the middle of it.
        into_update = (
            profile.watch_latency_s
            + profile.deployment_sync_s
            + 1.5 * profile.api_latency_s
        )

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=1))
            yield env.timeout(8.0)
            yield from client.scale_deployment("web", 2)
            yield env.timeout(into_update)
            yield from cluster.api.delete("ReplicaSet", "web-rs")
            yield from client.delete_deployment("web")
            yield env.timeout(8.0)
            # The worker is still there: a new Deployment gets its pods.
            yield from client.create_deployment(_deployment("web", image, replicas=1))

        env.process(go(env))
        env.run(until=30.0)
        (rs,) = cluster.api.list_nowait("ReplicaSet")
        assert rs.spec.replicas == 1
        assert [p.status.ready for p in cluster.api.list_nowait("Pod")] == [True]

    def test_kubelet_pulls_missing_image(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        host, runtime = nodes[0]
        image = _image("uncached:1", size=40 * MIB, layers=4)
        registry.publish(image)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=1))

        env.process(go(env))
        env.run(until=20.0)
        assert runtime.images.has_image("uncached:1")
        pods = cluster.api.list_nowait("Pod")
        assert pods and pods[0].status.ready

    def test_multi_container_pod_ready_when_all_boot(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        image_a = _image("a:1")
        image_b = _image("b:1")
        for img in (image_a, image_b):
            registry.publish(img)
        containers = [
            ContainerDef(
                name="web",
                image=image_a,
                container_port=80,
                boot_time_s=0.05,
                app_factory=lambda e: EchoApp(e),
            ),
            ContainerDef(name="sidecar", image=image_b, boot_time_s=2.0),
        ]
        client = KubernetesClient(cluster.api)

        def go(env):
            dep = _deployment("multi", image_a, replicas=1, containers=containers)
            yield from client.create_deployment(dep)

        env.process(go(env))
        env.run(until=3.0)
        pods = cluster.api.list_nowait("Pod")
        assert pods and not pods[0].status.ready  # sidecar still booting
        env.run(until=10.0)
        assert pods[0].status.ready

    def test_scheduler_spreads_pods(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env, node_count=3)
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=3))

        env.process(go(env))
        env.run(until=15.0)
        pods = cluster.api.list_nowait("Pod")
        assert sorted(p.spec.node_name for p in pods) == ["node0", "node1", "node2"]

    def test_custom_scheduler_binds_only_its_pods(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env, node_count=2)
        image = _image()
        registry.publish(image)
        chosen = []

        def pin_to_node1(pod, infos):
            chosen.append(pod.metadata.name)
            return "node1"

        cluster.add_scheduler("edge-scheduler", pin_to_node1)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(
                _deployment("pinned", image, replicas=2, scheduler="edge-scheduler")
            )

        env.process(go(env))
        env.run(until=15.0)
        pods = cluster.api.list_nowait("Pod")
        assert len(pods) == 2
        assert all(p.spec.node_name == "node1" for p in pods)
        assert len(chosen) == 2

    def test_least_pods_policy(self):
        nodes = [NodeInfo("a", 3), NodeInfo("b", 1), NodeInfo("c", 1)]
        pod = Pod(metadata=ObjectMeta(name="p"), spec=PodSpec())
        assert least_pods_policy(pod, nodes) == "b"
        assert least_pods_policy(pod, []) is None

    def test_client_scale_validation(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        client = KubernetesClient(cluster.api)
        with pytest.raises(ValueError):
            # Generator raises immediately on construction-time check.
            list(client.scale_deployment("web", -1))
