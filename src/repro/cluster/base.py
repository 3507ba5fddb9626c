"""The abstract edge-cluster interface (deployment phases of fig. 4).

:class:`DeployError` and :class:`ServiceEndpoint` live in
:mod:`repro.cluster.plan` (alongside the shared phase driver) and are
re-exported here for compatibility.
"""

from __future__ import annotations

import abc
import typing as _t

from repro.cluster.plan import DeployError, DeploymentPlan, ServiceEndpoint
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Host

__all__ = ["DeployError", "EdgeCluster", "ServiceEndpoint"]


class EdgeCluster(abc.ABC):
    """One edge cluster the SDN controller can deploy to.

    ``distance`` is the cluster's latency tier as seen from the
    clients: 0 for the nearest edge, growing toward the cloud.  The
    Global Scheduler uses it to rank FAST/BEST choices (§IV-A: clusters
    "in close vicinity of the users tend to be smaller, with cluster
    size and performance growing when further away").
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        ingress_host: "Host",
        distance: int = 0,
        capacity: int | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unlimited)")
        self.env = env
        self.name = name
        self.ingress_host = ingress_host
        self.distance = distance
        #: Maximum concurrently running service instances (None: ∞).
        #: Edge clusters near the users "tend to be smaller" (§IV-A).
        self.capacity = capacity

    # -- deployment phases (generators) -----------------------------------

    @abc.abstractmethod
    def pull(self, plan: DeploymentPlan):
        """Pull all images of the plan (skipping cached layers)."""

    @abc.abstractmethod
    def create(self, plan: DeploymentPlan):
        """Create the service (containers / Deployment+Service, 0 replicas)."""

    @abc.abstractmethod
    def scale_up(self, plan: DeploymentPlan):
        """Start one instance; returns when the orchestrator accepted
        the operation (NOT when the service is ready — poll with
        :meth:`wait_ready`)."""

    @abc.abstractmethod
    def scale_down(self, plan: DeploymentPlan):
        """Stop the running instance(s), keeping the created service."""

    @abc.abstractmethod
    def remove(self, plan: DeploymentPlan):
        """Remove the created service entirely."""

    @abc.abstractmethod
    def delete_images(self, plan: DeploymentPlan):
        """Delete the plan's images from the cluster's cache
        (generator returning bytes freed)."""

    # -- state queries (synchronous; informer-cache semantics) ---------------

    @abc.abstractmethod
    def image_cached(self, plan: DeploymentPlan) -> bool:
        """All images of the plan fully present in the local store?"""

    @abc.abstractmethod
    def is_created(self, plan: DeploymentPlan) -> bool:
        """Has Create already happened (containers/Deployment exist)?"""

    @abc.abstractmethod
    def endpoint(self, plan: DeploymentPlan) -> ServiceEndpoint | None:
        """Where the service will answer once running (None before
        Create assigned a port)."""

    def is_running(self, plan: DeploymentPlan) -> bool:
        """Is an instance up and its port answering?"""
        ep = self.endpoint(plan)
        return ep is not None and self.ingress_host.port_is_open(ep.port)

    @abc.abstractmethod
    def running_services(self) -> set[str]:
        """Names of the services currently running here."""

    # -- readiness ---------------------------------------------------------------

    def wait_ready(
        self,
        plan: DeploymentPlan,
        poll_interval_s: float = 0.02,
        timeout_s: float | None = None,
    ):
        """Wait until the service port answers (generator returning bool).

        Models the paper's §VI behaviour: "before setting up the flows,
        the controller continuously tests if the respective port is
        open" — but event-driven rather than polled.  The wait
        subscribes to the ingress host's port-open notification
        (:meth:`~repro.net.host.Host.port_open_event`) and, once the
        port opens, wakes at the first *poll-grid* tick at or after the
        open — the exact simulated instant the old fixed-interval poll
        loop would have observed readiness.  Readiness times stay
        byte-identical to the polling implementation while the
        simulator processes O(1) events per wait instead of
        O(duration / poll interval).

        A deadline wakes the wait too, and the same walk takes it to
        the first tick at or after the deadline: whether the port opens
        before the deadline, between it and that tick, or never, the
        wait returns at the poll loop's instant with its answer.

        The plain poll loop remains only as a documented fallback: for
        the window before Create has assigned an endpoint (no port to
        subscribe to yet), and for subclasses that override
        :meth:`is_running` with a notion of readiness that is not
        observable as a port-open event on the ingress host.  No
        cluster under ``src/`` does; the twin stays because it lets a
        test substitute a fake cluster that opens no port
        (``tests/test_dispatcher_unit.py::FakeCluster``).
        """
        deadline = None if timeout_s is None else self.env.now + timeout_s
        if type(self).is_running is not EdgeCluster.is_running:
            # Custom readiness: fall back to the literal §VI poll loop.
            while True:
                if self.is_running(plan):
                    return True
                if deadline is not None and self.env.now >= deadline:
                    return False
                yield self.env.timeout(poll_interval_s)
        # The poll grid: call time plus repeated float addition of the
        # interval, mirroring the old loop's timeout accumulation.
        tick = self.env.now
        while True:
            if self.is_running(plan):
                return True
            if deadline is not None and self.env.now >= deadline:
                return False
            endpoint = self.endpoint(plan)
            if endpoint is None:
                # Fallback: nothing to subscribe to before Create.
                tick += poll_interval_s
                yield self.env.timeout_at(tick)
                continue
            open_ev = self.ingress_host.port_open_event(endpoint.port)
            if open_ev.triggered:
                # Port already open yet is_running said no (the
                # endpoint moved between the checks): degrade to a
                # plain poll tick rather than spinning.
                tick += poll_interval_s
                yield self.env.timeout_at(tick)
                continue
            if deadline is None:
                yield open_ev
            else:
                yield open_ev | self.env.timeout_at(deadline)
                if not open_ev.triggered:
                    self.ingress_host.abandon_port_waiter(
                        endpoint.port, open_ev
                    )
            # Resume sampling on the poll grid: advance to the first
            # tick at or after the wake and re-check there — exactly
            # where the poll loop would have seen the port open.
            while tick < self.env.now:
                tick += poll_interval_s
            if tick > self.env.now:
                yield self.env.timeout_at(tick)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} d={self.distance}>"
