"""Kubernetes self-healing and lifecycle edge cases."""

from __future__ import annotations

from repro.k8s import KubernetesClient
from repro.sim import Environment

from tests.test_k8s import _cluster, _deployment, _image


class TestSelfHealing:
    def test_deleted_pod_is_recreated(self):
        """The ReplicaSet controller replaces a manually deleted pod."""
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=1))

        env.process(go(env))
        env.run(until=10.0)
        pods = cluster.api.list_nowait("Pod")
        assert len(pods) == 1
        victim = pods[0]

        def kill(env):
            yield from cluster.api.delete("Pod", victim.metadata.name)

        env.process(kill(env))
        env.run(until=25.0)
        pods = cluster.api.list_nowait("Pod")
        assert len(pods) == 1
        assert pods[0].metadata.name != victim.metadata.name
        assert pods[0].status.ready

    def test_scale_up_beyond_one(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=1))
            yield env.timeout(10.0)
            yield from client.scale_deployment("web", 3)

        env.process(go(env))
        env.run(until=30.0)
        pods = cluster.api.list_nowait("Pod")
        assert len(pods) == 3
        assert all(p.status.ready for p in pods)

    def test_scale_down_prefers_not_ready_pods(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=2))
            yield env.timeout(10.0)
            # Add a third replica and scale back down almost at once:
            # the still-pending pod should be the eviction victim.
            yield from client.scale_deployment("web", 3)
            yield env.timeout(0.4)
            yield from client.scale_deployment("web", 2)

        env.process(go(env))
        env.run(until=30.0)
        pods = cluster.api.list_nowait("Pod")
        assert len(pods) == 2
        assert all(p.status.ready for p in pods)

    def test_unschedulable_without_nodes(self):
        env = Environment()
        cluster, registry, nodes = _cluster(env, node_count=0)
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=1))

        env.process(go(env))
        env.run(until=10.0)
        pods = cluster.api.list_nowait("Pod")
        assert len(pods) == 1
        assert pods[0].spec.node_name is None
        assert pods[0].status.phase == "Pending"

    def test_unschedulable_pod_binds_when_node_joins(self):
        """The scheduler retries with backoff: a pod stuck Pending gets
        bound once a node joins the cluster."""
        from repro.containers import Containerd
        from tests.nethelpers import MiniNet

        env = Environment()
        cluster, registry, nodes = _cluster(env, node_count=0)
        image = _image()
        registry.publish(image)
        client = KubernetesClient(cluster.api)

        def go(env):
            yield from client.create_deployment(_deployment("web", image, replicas=1))

        env.process(go(env))
        env.run(until=8.0)
        assert cluster.api.list_nowait("Pod")[0].spec.node_name is None

        net = MiniNet(env)
        host = net.host("late-node")
        cluster.add_node("late-node", host, Containerd(env, host))
        env.run(until=30.0)
        pod = cluster.api.list_nowait("Pod")[0]
        assert pod.spec.node_name == "late-node"
        assert pod.status.ready

    def test_housekeeping_recovers_missed_pod(self):
        """Even if the binding watch event were lost, the kubelet's
        sync loop finds the pod within a loop period."""
        env = Environment()
        cluster, registry, nodes = _cluster(env)
        host, runtime = nodes[0]
        image = _image()
        registry.publish(image)
        # Inject a pod pre-bound to the node: stored and indexed, but
        # with no watch notification — only the housekeeping loop can
        # find it.
        from repro.k8s.objects import ContainerDef, ObjectMeta, Pod, PodSpec

        pod = Pod(
            metadata=ObjectMeta(name="orphan"),
            spec=PodSpec(
                containers=[
                    ContainerDef(name="c", image=image, container_port=80)
                ],
                node_name="node0",
            ),
        )
        # Inject silently (no watch notification).
        cluster.api.inject(pod)
        env.run(until=10.0)
        assert pod.status.phase == "Running"
