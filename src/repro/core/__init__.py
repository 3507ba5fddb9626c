"""The paper's contribution: the on-demand-deployment SDN controller.

Components (fig. 6/7):

* :class:`ServiceRegistry` — services registered by their unique
  (cloud IP, port) combination;
* :class:`Annotator` — turns a developer's minimal Kubernetes-style
  YAML into an annotated, cluster-neutral deployment plan (§V);
* :class:`FlowMemory` — memorized redirection flows with idle
  timeouts, enabling low switch timeouts and idle scale-down;
* Global schedulers (:mod:`repro.core.schedulers`) — pluggable,
  dynamically loadable FAST/BEST policies;
* :class:`Dispatcher` — gathers instance state, feeds the scheduler,
  triggers and deduplicates deployments, tracks client locations;
* :class:`EdgeController` — the Ryu-style SDN app tying it together:
  transparent interception, packet holding, deployment phases, flow
  installation, and automatic scale-down.
"""

from repro.core.service_registry import EdgeService, ServiceRegistry
from repro.core.annotator import AnnotationError, Annotator
from repro.core.state import ControlPlaneState, InstanceRecord
from repro.core.flow_memory import FlowMemory, MemorizedFlow
from repro.core.schedulers import (
    ClusterState,
    Decision,
    GlobalScheduler,
    HybridDockerK8sScheduler,
    LowLatencyScheduler,
    NearestScheduler,
    load_scheduler,
)
from repro.core.dispatcher import DeploymentOutcome, Dispatcher
from repro.core.controller import EdgeController, ForwardingApp, SwitchTopology

__all__ = [
    "AnnotationError",
    "Annotator",
    "ClusterState",
    "ControlPlaneState",
    "InstanceRecord",
    "Decision",
    "DeploymentOutcome",
    "Dispatcher",
    "EdgeController",
    "EdgeService",
    "FlowMemory",
    "ForwardingApp",
    "GlobalScheduler",
    "HybridDockerK8sScheduler",
    "LowLatencyScheduler",
    "MemorizedFlow",
    "NearestScheduler",
    "ServiceRegistry",
    "SwitchTopology",
    "load_scheduler",
]
