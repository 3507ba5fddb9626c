"""The edge-cluster contract and its fig. 4 phase driver.

:class:`EdgeCluster` runs the phase order once for every cluster type:
the per-service port table, the Create precondition and idempotence,
the Scale Up guard, the endpoint and readiness live here; an adapter
implements only its runtime's steps.  :class:`DeployError` and
:class:`ServiceEndpoint` live in :mod:`repro.cluster.plan` and are
re-exported here.
"""

from __future__ import annotations

import abc
import itertools
import typing as _t

from repro.cluster.plan import DeployError, DeploymentPlan, ServiceEndpoint
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.containers.containerd import Containerd
    from repro.net.host import Host

__all__ = ["DeployError", "EdgeCluster", "ServiceEndpoint"]


class EdgeCluster(abc.ABC):
    """One edge cluster the SDN controller can deploy to.

    ``distance`` is the cluster's latency tier as seen from the
    clients: 0 for the nearest edge, growing toward the cloud.  The
    Global Scheduler uses it to rank FAST/BEST choices (§IV-A: clusters
    "in close vicinity of the users tend to be smaller, with cluster
    size and performance growing when further away").

    The phases are generators.  Phase timings are exactly those of the
    adapter's steps — the driver adds no simulated time of its own.
    """

    #: First ingress port (host port, NodePort, function port) handed
    #: out; each adapter sets its own.
    PORT_BASE: _t.ClassVar[int]

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
        #: Per-service ingress port, assigned at Create and stable
        #: until Remove.
        self._ports: dict[str, int] = {}
        self._port_counter = itertools.count(self.PORT_BASE)

    # -- deployment phases --------------------------------------------------

    @abc.abstractmethod
    def pull(self, plan: DeploymentPlan):
        """Pull all images of the plan (skipping cached layers)."""

    def create(self, plan: DeploymentPlan):
        """Create the service (containers / Deployment+Service, 0
        replicas); a no-op once created."""
        if self.is_created(plan):
            return
        self._check_create(plan)
        port = self._ports.setdefault(
            plan.service_name, next(self._port_counter)
        )
        yield from self._create_instance(plan, port)

    def scale_up(self, plan: DeploymentPlan):
        """Start one instance; returns when the orchestrator accepted
        the operation (NOT when the service is ready — wait with
        :meth:`wait_ready`)."""
        if not self.is_created(plan):
            raise DeployError(
                f"{self.name}: {plan.service_name!r} not created yet"
            )
        yield from self._start_instance(plan)

    @abc.abstractmethod
    def scale_down(self, plan: DeploymentPlan):
        """Stop the running instance(s), keeping the created service."""

    def remove(self, plan: DeploymentPlan):
        """Remove the created service entirely and free its port."""
        yield from self._remove_instance(plan)
        self._ports.pop(plan.service_name, None)

    @abc.abstractmethod
    def delete_images(self, plan: DeploymentPlan):
        """Delete the plan's images from the cluster's cache
        (generator returning bytes freed)."""

    # -- the adapter's runtime steps ------------------------------------------

    def _check_create(self, plan: DeploymentPlan) -> None:
        """Precondition for Create (raise DeployError to veto)."""

    @abc.abstractmethod
    def _create_instance(self, plan: DeploymentPlan, port: int):
        """Create the (zero-replica) instance served on ``port``."""

    @abc.abstractmethod
    def _start_instance(self, plan: DeploymentPlan):
        """Scale the created instance up to one replica."""

    @abc.abstractmethod
    def _remove_instance(self, plan: DeploymentPlan):
        """Delete the created instance entirely."""

    # -- state queries (synchronous; informer-cache semantics) ---------------

    @abc.abstractmethod
    def image_cached(self, plan: DeploymentPlan) -> bool:
        """All images of the plan fully present in the local store?"""

    @abc.abstractmethod
    def is_created(self, plan: DeploymentPlan) -> bool:
        """Has Create already happened (containers/Deployment exist)?"""

    def endpoint(self, plan: DeploymentPlan) -> ServiceEndpoint | None:
        """Where the service will answer once running (None before
        Create assigned a port)."""
        port = self._ports.get(plan.service_name)
        if port is None:
            return None
        return ServiceEndpoint(ip=self.ingress_host.ip, port=port)

    def is_running(self, plan: DeploymentPlan) -> bool:
        """Is an instance up and its port answering?"""
        ep = self.endpoint(plan)
        return ep is not None and self.ingress_host.port_is_open(ep.port)

    @abc.abstractmethod
    def running_services(self) -> set[str]:
        """Names of the services currently running here."""

    @property
    def runtimes(self) -> tuple["Containerd", ...]:
        """The container runtimes behind this cluster (what a pod kill
        or a node crash reaches); none by default."""
        return ()

    # -- readiness ---------------------------------------------------------------

    def wait_ready(
        self,
        plan: DeploymentPlan,
        timeout_s: float,
        poll_interval_s: float = 0.02,
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
        O(duration / poll interval).  It runs after Scale Up, so Create
        has assigned the port it subscribes to.

        A deadline wakes the wait too, and the same walk takes it to
        the first tick at or after the deadline: whether the port opens
        before the deadline, between it and that tick, or never, the
        wait returns at the poll loop's instant with its answer.

        The wait yields the port-open event itself.  The deadline is a
        expiry-heap guard (:meth:`~repro.sim.environment.Environment.deadline`)
        armed when the wait starts, so it is due at ``deadline`` to the
        bit; when it fires first it drops the subscription and wakes the
        wait, and the wait cancels it when it returns — a wait that ends
        in time leaves no entry behind on the main heap.  Exactness
        boundary: an opening port resumes the wait at the event's own
        pop, one pop earlier in the same instant than an ``AnyOf`` of
        the event and a deadline timer would; a fired guard wakes it
        within the deadline's instant, from which it walks to the next
        tick.

        A subclass that overrides :meth:`is_running` with a readiness
        that is not a port opening on the ingress host gets the literal
        poll loop.  No cluster under ``src/`` does; the loop is the
        reference the port wait is held to, and the readiness of the
        scripted test cluster (``tests/test_dispatcher_unit.py``).
        """
        env = self.env
        deadline = env.now + timeout_s
        if type(self).is_running is not EdgeCluster.is_running:
            # Custom readiness: the literal §VI poll loop.
            while True:
                if self.is_running(plan):
                    return True
                if env.now >= deadline:
                    return False
                yield env.timeout(poll_interval_s)

        def wake(_guard) -> None:
            if not open_ev.triggered:
                self.ingress_host.abandon_port_waiter(port, open_ev)
                open_ev.succeed(None)

        # The poll grid: call time plus repeated float addition of the
        # interval, mirroring the old loop's timeout accumulation.
        tick = env.now
        guard = None
        try:
            while True:
                if self.is_running(plan):
                    return True
                if env.now >= deadline:
                    return False
                if guard is None:
                    # Armed at the call instant: due at ``deadline`` exactly.
                    guard = env.deadline(timeout_s)
                    _t.cast(list, guard.callbacks).append(wake)
                port = self._ports[plan.service_name]
                open_ev = self.ingress_host.port_open_event(port)
                yield open_ev
                # Resume sampling on the poll grid: advance to the first
                # tick at or after the wake and re-check there — exactly
                # where the poll loop would have seen the port open.
                while tick < env.now:
                    tick += poll_interval_s
                if tick > env.now:
                    yield env.timeout_at(tick)
        finally:
            if guard is not None:
                guard.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} d={self.distance}>"
