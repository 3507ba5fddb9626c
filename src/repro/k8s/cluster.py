"""Cluster assembly: control plane plus nodes."""

from __future__ import annotations

import typing as _t

from repro.containers.containerd import Containerd
from repro.containers.registry import Registry
from repro.k8s.apiserver import APIServer
from repro.k8s.controllers import DeploymentController, ReplicaSetController
from repro.k8s.kubelet import Kubelet
from repro.k8s.kubeproxy import KubeProxy
from repro.k8s.profile import K8sProfile
from repro.k8s.scheduler import KubeScheduler, SchedulingPolicy, least_pods_policy
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Host


class KubernetesCluster:
    """A complete (simulated) Kubernetes cluster.

    The paper's testbed runs a single-node cluster on the EGS; this
    class supports multiple nodes but every experiment uses one.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        image_registry: Registry,
        profile: K8sProfile | None = None,
    ) -> None:
        self.env = env
        self.name = name
        self.image_registry = image_registry
        self.api = APIServer(env, profile or K8sProfile())
        self.kubelets: dict[str, Kubelet] = {}
        self.deployment_controller = DeploymentController(env, self.api)
        self.replicaset_controller = ReplicaSetController(env, self.api)
        self.default_scheduler = KubeScheduler(env, self.api, [])
        self.extra_schedulers: dict[str, KubeScheduler] = {}
        self.kube_proxy = KubeProxy(env, self.api, self.kubelets)

    def add_node(self, node_name: str, host: "Host", runtime: Containerd) -> Kubelet:
        """Join a node (host + container runtime) to the cluster."""
        if node_name in self.kubelets:
            raise ValueError(f"node {node_name!r} already registered")
        kubelet = Kubelet(
            self.env,
            self.api,
            node_name,
            host,
            runtime,
            self.image_registry,
        )
        self.kubelets[node_name] = kubelet
        self.default_scheduler.register_node(node_name)
        for scheduler in self.extra_schedulers.values():
            scheduler.register_node(node_name)
        return kubelet

    def add_scheduler(
        self, name: str, policy: SchedulingPolicy = least_pods_policy
    ) -> KubeScheduler:
        """Register a custom (Local) scheduler under ``name``.

        Pods whose ``spec.scheduler_name`` equals ``name`` are bound by
        this scheduler instead of the default one — the paper's hook
        for cluster-specific Local Schedulers (§V).
        """
        if name in self.extra_schedulers or name == self.default_scheduler.name:
            raise ValueError(f"scheduler {name!r} already exists")
        scheduler = KubeScheduler(
            self.env, self.api, list(self.kubelets), name=name, policy=policy
        )
        self.extra_schedulers[name] = scheduler
        return scheduler

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KubernetesCluster {self.name!r} nodes={list(self.kubelets)}>"
