"""Tests for kube-proxy round-robin balancing over ready pods."""

from __future__ import annotations

from repro.k8s import (
    APIServer,
    KubernetesClient,
    ObjectMeta,
    Pod,
    PodSpec,
    Service,
    ServicePort,
    ServiceSpec,
)
from repro.k8s.kubeproxy import KubeProxy, RoundRobinBalancer
from repro.sim import Environment
from repro.net.packet import HTTPRequest, HTTPResponse

from tests.kubeproxy_oracle import Backend, RecordingNode, serve
from tests.test_k8s import _cluster, _deployment, _image, _service


class _TaggedApp:
    """Handler that tags responses with its identity via body size."""

    def __init__(self, env, tag: int):
        self.env = env
        self.tag = tag
        self.hits = 0

    def handle(self, request):
        yield self.env.timeout(0.0)
        self.hits += 1
        return HTTPResponse(status=200, body_bytes=self.tag)


class TestRoundRobinBalancer:
    def test_rotates_over_backends(self):
        env = Environment()
        apps = [_TaggedApp(env, i) for i in range(3)]
        balancer = RoundRobinBalancer()
        balancer.set_backends(apps)
        seen = []

        def go(env):
            for _ in range(6):
                response = yield from balancer.handle(HTTPRequest("GET", "/"))
                seen.append(response.body_bytes)

        env.run(until=env.process(go(env)))
        assert seen == [0, 1, 2, 0, 1, 2]
        assert all(app.hits == 2 for app in apps)

    def test_backend_swap_resets_cleanly(self):
        env = Environment()
        balancer = RoundRobinBalancer()
        balancer.set_backends([_TaggedApp(env, i) for i in range(5)])
        balancer._next = 4
        balancer.set_backends([_TaggedApp(env, 9)])
        assert balancer._next == 0


class TestMultiReplicaService:
    def test_requests_spread_over_replicas(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        host, runtime = nodes[0]
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)
        labels = {"edge.service": "web"}

        # Two replicas behind one NodePort.
        import tests.test_k8s as tk
        from repro.k8s.objects import ContainerDef

        apps = []

        def app_factory(e):
            app = _TaggedApp(e, len(apps))
            apps.append(app)
            return app

        containers = [
            ContainerDef(
                name="main",
                image=image,
                container_port=80,
                boot_time_s=0.01,
                app_factory=app_factory,
            )
        ]

        def go(env):
            yield from client.create_deployment(
                tk._deployment("web", image, labels=labels, replicas=2,
                               containers=containers)
            )
            yield from client.create_service(tk._service("web", labels))

        env.process(go(env))
        env.run(until=15.0)
        assert host.port_is_open(30080)
        assert len(apps) == 2

        # Drive requests through the node port's balancer.
        listener_app = host._listeners[30080].app

        def requests(env):
            for _ in range(8):
                yield from listener_app.handle(HTTPRequest("GET", "/"))

        env.process(requests(env))
        env.run(until=20.0)
        assert apps[0].hits == 4 and apps[1].hits == 4

    def test_scale_down_to_one_replica_keeps_port(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        host, runtime = nodes[0]
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)
        labels = {"edge.service": "web"}

        def go(env):
            yield from client.create_deployment(
                _deployment("web", image, labels=labels, replicas=2)
            )
            yield from client.create_service(_service("web", labels))

        env.process(go(env))
        env.run(until=15.0)
        assert host.port_is_open(30080)

        def scale(env):
            yield from client.scale_deployment("web", 1)

        env.process(scale(env))
        env.run(until=25.0)
        pods = cluster.api.list_nowait("Pod")
        assert len(pods) == 1
        assert host.port_is_open(30080)  # one backend left, still bound


class _StandInCluster:
    """kube-proxy alone, on one node that logs what it programs."""

    def __init__(self):
        self.env = Environment()
        self.api = APIServer(self.env)
        self.calls: list = []
        self.node = RecordingNode("n0", self.calls)
        self.proxy = KubeProxy(self.env, self.api, {"n0": self.node})

    def write(self, *requests):
        """Land these API requests, then let kube-proxy resync once."""
        for request in requests:
            self.env.run(until=self.env.process(request))
        self.env.run(until=self.env.now + 1.0)  # watch + endpoints + kube-proxy

    def ready_pod(self, name, labels):
        """A ready pod on the node (not yet created) and its app."""
        pod = Pod(ObjectMeta(name, labels=dict(labels)), PodSpec(node_name="n0"))
        pod.status.ready = True
        app = self.node.apps[pod.metadata.uid, 80] = Backend()
        return pod, app


def _node_port_service(name, selector, node_port):
    ports = [ServicePort(80, 80, node_port=node_port)]
    return Service(ObjectMeta(name), ServiceSpec(selector=dict(selector), ports=ports))


class TestResyncOnStandInNode:
    def test_node_port_change_moves_the_binding(self):
        """A Service whose node port changes under the same uid stops
        answering on the old port and starts on the new one in the same
        resync, close before open (the old code kept 30001 forever)."""
        world = _StandInCluster()
        pod, _ = world.ready_pod("p", {"app": "x"})
        service = _node_port_service("web", {"app": "x"}, 30001)
        world.write(world.api.create(pod), world.api.create(service))
        assert world.calls == [("n0", "open", 30001)]
        service.spec.ports = [ServicePort(80, 80, node_port=30002)]
        world.write(world.api.update(service))
        assert world.calls[1:] == [("n0", "close", 30001), ("n0", "open", 30002)]
        assert list(world.node.ports) == [30002]

    def test_every_resync_restarts_a_spent_rotation(self):
        """``_next >= len(backends)`` -> 0 is applied to every balancer by
        every resync, also one that reprograms nothing; a balancer whose
        backends change is wrapped against the *new* list only — both
        exactly what ``set_backends`` did on every full resync."""
        world = _StandInCluster()
        api = world.api
        pod, app = world.ready_pod("p0", {"app": "x"})
        world.write(api.create(pod), api.create(_node_port_service("web", {"app": "x"}, 30001)))
        balancer = world.node.ports[30001]
        assert serve(balancer) is app and balancer._next == 1
        # Two more replicas by the next resync: 1 < 3, so the rotation
        # goes on where it was (no full resync ever saw 1 >= 1).
        (second, app2), (third, app3) = (
            world.ready_pod(name, {"app": "x"}) for name in ("p1", "p2")
        )
        world.write(api.create(second), api.create(third))
        assert balancer.backends == [app, app2, app3] and balancer._next == 1
        assert [serve(balancer), serve(balancer)] == [app2, app3]
        assert balancer._next == 3
        # An unrelated service: a resync with nothing to reprogram here.
        world.write(api.create(_node_port_service("other", {"app": "z"}, 30009)))
        assert balancer._next == 0 and serve(balancer) is app
