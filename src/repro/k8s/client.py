"""A kubernetes-python-client-like API used by the SDN controller.

The paper: "For communicating with Docker and the Kubernetes cluster,
we use the respective Python client libraries."  This mirrors the
handful of operations the controller needs: create/patch/delete
Deployments and Services, and scale.
"""

from __future__ import annotations

from repro.k8s.apiserver import APIServer, NotFound
from repro.k8s.objects import Deployment, Service

#: The namespace every object the controller manages lives in.
NAMESPACE = "default"


class KubernetesClient:
    """Typed convenience wrapper over the API server.

    All methods are generators (they pay API latency); callers drive
    them with ``yield from``.
    """

    def __init__(self, api: APIServer) -> None:
        self.api = api

    # -- deployments -------------------------------------------------------

    def create_deployment(self, deployment: Deployment):
        deployment.metadata.namespace = NAMESPACE
        result = yield from self.api.create(deployment)
        return result

    def scale_deployment(self, name: str, replicas: int):
        """Equivalent of ``patch_namespaced_deployment_scale``."""
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        deployment = yield from self.api.get("Deployment", name, NAMESPACE)
        if deployment.spec.replicas != replicas:
            deployment.spec.replicas = replicas
            yield from self.api.update(deployment)
        return deployment

    def delete_deployment(self, name: str):
        try:
            result = yield from self.api.delete("Deployment", name, NAMESPACE)
        except NotFound:
            return None
        return result

    # -- services -------------------------------------------------------------

    def create_service(self, service: Service):
        service.metadata.namespace = NAMESPACE
        result = yield from self.api.create(service)
        return result

    def delete_service(self, name: str):
        try:
            result = yield from self.api.delete("Service", name, NAMESPACE)
        except NotFound:
            return None
        return result
