"""Uniform edge-cluster adapters over Docker and Kubernetes.

The paper's controller "is independent of the cluster type": the same
service definition deploys to a Docker engine or a Kubernetes cluster
(§V).  :class:`EdgeCluster` is the one driver of the deployment phases
of fig. 4 — Pull, Create, Scale Up, Scale Down, Remove, Delete — and of
the state queries the Dispatcher needs: it owns the phase order, the
per-service port table and readiness, and each cluster type (Docker,
Kubernetes, the serverless runtime) implements only its runtime's
steps.
"""

from repro.cluster.plan import DeploymentPlan, PlannedContainer
from repro.cluster.base import DeployError, EdgeCluster, ServiceEndpoint
from repro.cluster.docker_cluster import DockerCluster
from repro.cluster.k8s_cluster import K8sEdgeCluster

__all__ = [
    "DeployError",
    "DeploymentPlan",
    "DockerCluster",
    "EdgeCluster",
    "K8sEdgeCluster",
    "PlannedContainer",
    "ServiceEndpoint",
]
