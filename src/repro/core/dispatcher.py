"""The Dispatcher component (fig. 6/7).

"Our system architecture includes a Dispatcher component, which feeds
the Scheduler with information about the current system state and is
responsible for checking and triggering the deployment of edge
services.  This component also tracks the clients' current location."

Responsibilities here:

* gather per-cluster :class:`ClusterState` for the scheduler,
* execute the FAST/BEST decision — *with waiting* (hold until the FAST
  instance is ready) or *without waiting* (background-deploy BEST),
* deduplicate concurrent deployments of the same service to the same
  cluster (several clients can hit a cold service simultaneously —
  fig. 10 shows up to 8 deployments/s),
* record per-phase timings (Pull / Create / Scale-Up / wait-ready) for
  the figure-11..15 harnesses,
* track client locations.
"""

from __future__ import annotations

import dataclasses
import random
import typing as _t

from repro.cluster.base import DeployError, EdgeCluster, ServiceEndpoint
from repro.containers.containerd import NodeDown, PullError
from repro.containers.registry import ImageNotFound, RegistryUnavailable
from repro.core.flow_memory import FlowMemory
from repro.core.schedulers.base import (
    ClientInfo,
    ClusterState,
    Decision,
    GlobalScheduler,
)
from repro.core.service_registry import EdgeService
from repro.core.state import ControlPlaneState, InstanceRecord
from repro.faults.breaker import BreakerState, CircuitBreaker
from repro.metrics import MetricsRecorder
from repro.services.calibration import Calibration, DEFAULT_CALIBRATION
from repro.sim import Environment, Process

#: Faults a retry can plausibly cure: transient registry errors,
#: exhausted in-runtime pull retries, a crashed (rebooting) node.
RETRYABLE_FAULTS = (RegistryUnavailable, PullError, NodeDown)

#: Faults that will fail identically on every attempt: unknown image
#: reference (bad manifest) or a structurally invalid deployment.
FATAL_FAULTS = (ImageNotFound, DeployError)


@dataclasses.dataclass
class DeploymentOutcome:
    """Timing breakdown of one on-demand deployment."""

    service_name: str
    cluster_name: str
    pulled: bool = False
    created: bool = False
    scaled: bool = False
    pull_s: float = 0.0
    create_s: float = 0.0
    scale_up_s: float = 0.0
    wait_ready_s: float = 0.0
    total_s: float = 0.0
    ready: bool = True
    #: Phase that failed ("pull" / "create" / "scale_up" /
    #: "wait_ready"), or None when the deployment succeeded.
    failed_phase: str | None = None
    #: Stringified cause of the failure (diagnostics).
    error: str | None = None
    #: Attempts spent on the last phase executed (1 = no retries).
    attempts: int = 1


@dataclasses.dataclass(frozen=True)
class Resolution:
    """Where the current request should go."""

    #: None → forward toward the cloud.
    endpoint: ServiceEndpoint | None
    cluster_name: str
    #: The decision that produced this resolution (diagnostics).
    decision: Decision | None = None
    #: Set when this resolution is a graceful-degradation fallback:
    #: the preferred cluster whose deployment failed or whose breaker
    #: is open.  Propagated into the memorized flow so it re-resolves
    #: once the cluster recovers.
    degraded_from: str | None = None


class Dispatcher:
    """Deployment orchestration for the SDN controller."""

    def __init__(
        self,
        env: Environment,
        clusters: _t.Sequence[EdgeCluster],
        scheduler: GlobalScheduler,
        flow_memory: FlowMemory,
        recorder: MetricsRecorder | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        ready_timeout_s: float = 120.0,
        max_phase_retries: int = 2,
        retry_backoff_s: float = 0.5,
        retry_jitter: float = 0.1,
        retry_seed: int = 0,
        breaker_enabled: bool = True,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 30.0,
        state: ControlPlaneState | None = None,
        on_instance_change: _t.Callable[[InstanceRecord], None] | None = None,
        site: str = "local",
    ) -> None:
        self.env = env
        self.clusters = list(clusters)
        self.scheduler = scheduler
        self.flow_memory = flow_memory
        #: All mutable dispatcher state lives here (breakers and client
        #: locations); the federated configuration hands every site
        #: component one shared replica.
        self.state = state if state is not None else ControlPlaneState()
        #: Publication hook for instance-state changes (None on the
        #: single-controller path: one ``is not None`` check per
        #: deployment is the whole cost).  The federated configuration
        #: uses it to announce running/stopped instances to peer sites.
        self.on_instance_change = on_instance_change
        #: Hook for "the BEST instance became ready after a no-waiting
        #: redirect": on its own a dispatcher repoints the memory.  The
        #: controller points this at ``repoint_service_flows`` so the
        #: *data plane* follows (drains + fresh redirect entries) instead
        #: of leaving switch entries aimed at the old endpoint until
        #: they idle out.
        self.on_endpoint_ready: _t.Callable[
            [EdgeService, str, ServiceEndpoint], int
        ] = flow_memory.update_endpoint
        #: Site identifier stamped into published instance records.
        self.site = site
        self.recorder = recorder if recorder is not None else MetricsRecorder()
        self.calibration = calibration
        self.ready_timeout_s = ready_timeout_s
        #: Retries per deployment phase after the first attempt.
        self.max_phase_retries = max_phase_retries
        #: Base backoff before a phase retry (doubles per attempt),
        #: stretched by up to ``retry_jitter`` from a dispatcher-owned
        #: seeded RNG — drawn only on failures, so fault-free runs stay
        #: byte-identical.
        self.retry_backoff_s = retry_backoff_s
        self.retry_jitter = retry_jitter
        self._retry_rng = random.Random(retry_seed)
        self.breaker_enabled = breaker_enabled
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        #: cluster name -> circuit breaker; created lazily on the first
        #: deployment failure, so the mapping stays empty (and state
        #: gathering pays nothing) on healthy runs.  Breakers are
        #: site-local state: bind the state's mapping once and use it
        #: directly.
        self.breakers = self.state.breakers
        #: (service name, cluster name) -> in-flight deployment process.
        self._inflight: dict[tuple[str, str], Process] = {}
        #: (service name, cluster name) pairs mid-eviction: a migration
        #: released the instance and is draining its last sessions, so
        #: fresh resolutions must not land on it even though its port is
        #: still open.  Empty (one truthiness check per gather) outside
        #: active migrations.
        self.evicting: set[tuple[str, str]] = set()

    @property
    def client_locations(self) -> _t.MutableMapping[_t.Any, ClientInfo]:
        """Last known client locations (view into the state layer)."""
        return self.state.client_map

    # -- client tracking -----------------------------------------------------

    def note_client(self, ip, datapath_id: int, in_port: int) -> ClientInfo:
        """Record a client observation; invalidate its memorized flows
        when it shows up behind a *different* switch.

        A moved client's memorized flows were resolved for its old
        location, so replaying them from memory would pin the client to
        a possibly far-away instance until idle expiry.  Forgetting
        exactly the moved client's flows (nobody else's) forces a fresh
        scheduler resolution on its next request.
        """
        previous = self.state.client(ip)
        info = ClientInfo(
            ip=ip, datapath_id=datapath_id, in_port=in_port, last_seen=self.env.now
        )
        self.state.put_client(info)
        if previous is not None and previous.datapath_id != datapath_id:
            self.flow_memory.forget_client(ip)
        return info

    # -- state gathering ----------------------------------------------------------

    def gather_states(self, service: EdgeService) -> list[ClusterState]:
        """Snapshot every cluster's state for this service.

        Breaker consultation is skipped entirely while no breaker
        exists (nothing ever failed): one dict truthiness check is the
        whole fault-layer cost on healthy runs.
        """
        plan = service.plan
        breakers = self.breakers if self.breaker_enabled else None
        evicting = self.evicting
        utilization = self._site_utilization()
        states = []
        for cluster in self.clusters:
            blocked = degraded = False
            if breakers:
                breaker = breakers.get(cluster.name)
                if breaker is not None:
                    blocked = breaker.blocked(self.env.now)
                    degraded = breaker.state is BreakerState.HALF_OPEN
            if evicting and (service.name, cluster.name) in evicting:
                # Mid-eviction: the instance only exists to drain its
                # last sessions; present it as gone-and-unusable so no
                # new flow is scheduled onto it.
                states.append(
                    ClusterState(
                        cluster=cluster,
                        running=False,
                        created=cluster.is_created(plan),
                        cached=cluster.image_cached(plan),
                        has_capacity=False,
                        blocked=True,
                        degraded=degraded,
                        utilization=utilization,
                    )
                )
                continue
            states.append(
                ClusterState(
                    cluster=cluster,
                    running=cluster.is_running(plan),
                    created=cluster.is_created(plan),
                    cached=cluster.image_cached(plan),
                    has_capacity=self._has_room(service, cluster),
                    blocked=blocked,
                    degraded=degraded,
                    utilization=utilization,
                )
            )
        return states

    def _site_utilization(self) -> float:
        """Worst observed link utilization at this site, from the
        replicated observability rows (0.0 without a collector — the
        read is one empty-list check on that path)."""
        stats = self.state.link_stats()
        if not stats:
            return 0.0
        return max(
            (r.utilization for r in stats if r.site == self.site),
            default=0.0,
        )

    def breaker_for(self, cluster_name: str) -> CircuitBreaker:
        """The cluster's circuit breaker, created on first use."""
        breaker = self.breakers.get(cluster_name)
        if breaker is None:
            breaker = self.breakers[cluster_name] = CircuitBreaker(
                self.env,
                cluster_name,
                failure_threshold=self.breaker_threshold,
                cooldown_s=self.breaker_cooldown_s,
                recorder=self.recorder,
            )
        return breaker

    def _has_room(self, service: EdgeService, cluster: EdgeCluster) -> bool:
        """Capacity check that also counts in-flight deployments —
        otherwise concurrent dispatches would all admit themselves
        against the same free slots."""
        if cluster.is_running(service.plan):
            return True
        if cluster.capacity is None:
            return True
        inflight = sum(
            1
            for (svc_name, cluster_name) in self._inflight
            if cluster_name == cluster.name and svc_name != service.name
        )
        return cluster.running_count() + inflight < cluster.capacity

    # -- the dispatch algorithm (fig. 7) ------------------------------------------------

    def resolve(self, service: EdgeService, client: ClientInfo):
        """Decide and (if needed) deploy; generator returning Resolution.

        Blocks (with-waiting) when the scheduler sends the current
        request to a cluster without a running instance; spawns a
        background deployment when a distinct BEST choice exists.

        Graceful degradation: when the awaited deployment fails, the
        dispatcher re-enters the paper's "without waiting" path over
        the remaining candidates — the client is redirected to the
        next FAST cluster, or ultimately the cloud, instead of seeing
        the failure.  The resulting flow is tagged with the failed
        cluster so it re-resolves once that cluster recovers.
        """
        attempted: set[str] = set()
        states = self.gather_states(service)
        decision = self.scheduler.choose(service, states, client)
        degraded_from = self._blocked_preference(states) if self.breakers else None

        while True:
            fast, best = decision.fast, decision.best

            if fast is None:
                # Current request to the cloud; optionally deploy BEST
                # for future requests (no-waiting with cloud fallback).
                if best is not None:
                    self.deploy_in_background(service, best)
                return Resolution(
                    endpoint=None,
                    cluster_name="cloud",
                    decision=decision,
                    degraded_from=degraded_from,
                )

            if best is None or best is fast or not fast.is_running(service.plan):
                # With-waiting (FAST == BEST), or the degenerate
                # no-waiting case where the scheduler picked a cold
                # FAST: the request holds until ready.
                outcome = yield from self.ensure_deployed(service, fast)
                if not outcome.ready:
                    attempted.add(fast.name)
                    if degraded_from is None:
                        degraded_from = fast.name
                    states = [
                        s
                        for s in self.gather_states(service)
                        if s.cluster.name not in attempted
                    ]
                    decision = self.scheduler.choose(service, states, client)
                    continue

            if best is not None and best is not fast:
                # Without-waiting: redirect now, deploy BEST in parallel.
                self.deploy_in_background(service, best)
            endpoint = fast.endpoint(service.plan)
            assert endpoint is not None
            return Resolution(
                endpoint=endpoint,
                cluster_name=fast.name,
                decision=decision,
                degraded_from=degraded_from,
            )

    def _blocked_preference(self, states: list[ClusterState]) -> str | None:
        """Nearest breaker-blocked cluster — the candidate the
        scheduler would likely have preferred were it healthy — so
        resolutions made while a breaker is open come out tagged
        degraded even without an in-band failure."""
        blocked = [s for s in states if s.blocked]
        if not blocked:
            return None
        return min(blocked, key=lambda s: (s.distance, s.cluster.name)).cluster.name

    # -- deployment pipeline -----------------------------------------------------------

    def ensure_deployed(self, service: EdgeService, cluster: EdgeCluster):
        """Run (or join) the deployment of ``service`` on ``cluster``.

        Generator returning :class:`DeploymentOutcome`.  Concurrent
        callers for the same (service, cluster) share one pipeline.

        **Nothing to deploy, no process.**  When the instance already
        answers and nothing else is due at this instant the outcome is
        returned here, without the ``_deploy`` process whose first
        segment would find the same and end.  The two heap entries that
        skips are the process's urgent start (pops next) and its
        completion (pushed at that pop, so it pops after everything
        else due now); with the heap's top later than now and that
        first segment pushing nothing, nobody acts between the two — so
        the caller going on at once is the caller going on then.  Exact
        when the calling process is the last callback of the entry being
        processed; the one place it is not — the waiters of a shared
        *failed* deployment re-resolving — has every sibling take this
        same branch in the same order.  The guard is traffic, not
        caution: a handler's timer (``processing_delay_s``, 800 µs) and
        a queued flow-mod's delivery (four 200 µs channel hops) land on
        one instant, float for float, on ~3 % of ``c3_churn``'s
        packet-ins, and those keep the process.  No bench digest sees
        the guard missing (4 of 4 tried stay equal: order at an instant
        moves, no latency does); the shortcut property in
        ``tests/test_properties.py`` does.  The in-flight join comes
        first, always: an open port is not a finished deployment (§VI —
        ``wait_ready`` may still be polling).
        """
        key = (service.name, cluster.name)
        inflight = self._inflight.get(key)
        if inflight is not None:
            outcome = yield inflight
            return outcome
        if cluster.is_running(service.plan) and self.env.quiet_now():
            return DeploymentOutcome(
                service_name=service.name, cluster_name=cluster.name
            )
        process = self.env.process(
            self._deploy(service, cluster), name=f"deploy:{key}"
        )
        self._inflight[key] = process
        try:
            outcome = yield process
        finally:
            self._inflight.pop(key, None)
        return outcome

    def _deploy(self, service: EdgeService, cluster: EdgeCluster):
        plan = service.plan
        tag = service.template_key or service.name
        outcome = DeploymentOutcome(
            service_name=service.name, cluster_name=cluster.name
        )
        started = self.env.now

        if cluster.is_running(plan):
            return outcome

        self.recorder.mark("deployments", started)

        if not cluster.image_cached(plan):
            t0 = self.env.now
            ok = yield from self._attempt_phase(
                outcome, "pull", lambda: cluster.pull(plan)
            )
            if not ok:
                return self._finish_failed(outcome, started, cluster)
            outcome.pulled = True
            outcome.pull_s = self.env.now - t0
            self.recorder.record(f"pull/{cluster.name}/{tag}", outcome.pull_s)

        if not cluster.is_created(plan):
            t0 = self.env.now
            ok = yield from self._attempt_phase(
                outcome, "create", lambda: cluster.create(plan)
            )
            if not ok:
                return self._finish_failed(outcome, started, cluster)
            outcome.created = True
            outcome.create_s = self.env.now - t0
            self.recorder.record(f"create/{cluster.name}/{tag}", outcome.create_s)

        t0 = self.env.now
        ok = yield from self._attempt_phase(
            outcome, "scale_up", lambda: cluster.scale_up(plan)
        )
        if not ok:
            return self._finish_failed(outcome, started, cluster)
        outcome.scaled = True
        outcome.scale_up_s = self.env.now - t0
        self.recorder.record(f"scale_up/{cluster.name}/{tag}", outcome.scale_up_s)

        # §VI: poll the service port until it answers.
        t0 = self.env.now
        ready = yield from cluster.wait_ready(
            plan,
            poll_interval_s=self.calibration.port_poll_interval_s,
            timeout_s=self.ready_timeout_s,
        )
        outcome.wait_ready_s = self.env.now - t0
        outcome.ready = ready
        self.recorder.record(
            f"wait_ready/{cluster.name}/{tag}", outcome.wait_ready_s
        )
        if not ready:
            # The instance never answered on its port: a deployment
            # failure like any other, not a silent half-install.
            outcome.failed_phase = "wait_ready"
            outcome.error = (
                f"service port not open within {self.ready_timeout_s}s"
            )
            return self._finish_failed(outcome, started, cluster)

        outcome.total_s = self.env.now - started
        self.recorder.record(f"deploy_total/{cluster.name}/{tag}", outcome.total_s)
        if self.breaker_enabled:
            breaker = self.breakers.get(cluster.name)
            if breaker is not None:
                breaker.record_success()
        if self.on_instance_change is not None:
            self._publish_instance(service, cluster, running=True)
        return outcome

    def _publish_instance(
        self, service: EdgeService, cluster: EdgeCluster, running: bool
    ) -> None:
        """Announce an instance transition through ``on_instance_change``
        (federated configuration only; never called when the hook is
        unset)."""
        assert self.on_instance_change is not None
        self.on_instance_change(
            InstanceRecord(
                service_name=service.name,
                cluster_name=cluster.name,
                site=self.site,
                running=running,
                endpoint=cluster.endpoint(service.plan) if running else None,
                distance=cluster.distance,
                observed_at=self.env.now,
            )
        )

    def _attempt_phase(self, outcome: DeploymentOutcome, phase: str, make_call):
        """Run one deployment phase with bounded, jittered retries
        (generator returning bool: did the phase complete?).

        Retryable faults back off exponentially (``retry_backoff_s * 2^n``,
        stretched by up to ``retry_jitter`` from the seeded RNG); fatal
        faults fail immediately.  On the happy path this adds no events
        and draws no random numbers.
        """
        attempt = 1
        while True:
            try:
                yield from make_call()
                outcome.attempts = attempt
                return True
            except FATAL_FAULTS as exc:
                outcome.failed_phase = phase
                outcome.error = f"{type(exc).__name__}: {exc}"
                outcome.attempts = attempt
                return False
            except RETRYABLE_FAULTS as exc:
                if attempt > self.max_phase_retries:
                    outcome.failed_phase = phase
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    outcome.attempts = attempt
                    return False
                backoff = self.retry_backoff_s * 2 ** (attempt - 1)
                backoff *= 1.0 + self.retry_jitter * self._retry_rng.random()
                self.recorder.count(f"deploy_retries/{outcome.cluster_name}")
                yield self.env.timeout(backoff)
                attempt += 1

    def _finish_failed(
        self,
        outcome: DeploymentOutcome,
        started: float,
        cluster: EdgeCluster,
    ) -> DeploymentOutcome:
        """Close out a failed deployment: stamp the outcome, count the
        failure, and feed the cluster's circuit breaker."""
        outcome.ready = False
        outcome.total_s = self.env.now - started
        self.recorder.count(f"deploy_failures/{cluster.name}")
        if self.breaker_enabled:
            self.breaker_for(cluster.name).record_failure()
        return outcome

    def deploy_in_background(
        self, service: EdgeService, cluster: EdgeCluster
    ) -> None:
        """Deploy without blocking the caller; when the instance is
        ready, repoint the service's memorized flows to it so future
        requests use the BEST location."""
        self.env.spawn(
            self._background(service, cluster),
            name=f"bg-deploy:{service.name}@{cluster.name}",
        )

    def _background(self, service: EdgeService, cluster: EdgeCluster):
        outcome = yield from self.ensure_deployed(service, cluster)
        if not outcome.ready:
            # BEST failed: clients stay where they are, but their flows
            # are tagged degraded so they re-resolve (instead of being
            # replayed from memory) once this cluster recovers.
            self.flow_memory.mark_service_degraded(service, cluster.name)
            return
        endpoint = cluster.endpoint(service.plan)
        if endpoint is not None:
            self.on_endpoint_ready(service, cluster.name, endpoint)

    # -- scale-down -------------------------------------------------------------------------

    def scale_down_idle(self, service: EdgeService) -> None:
        """Scale the service down on every cluster where it runs
        (called by the controller when the last memorized flow for the
        service expired)."""
        for cluster in self.clusters:
            if cluster.is_running(service.plan):
                self.env.spawn(
                    self._scale_down(service, cluster),
                    name=f"scaledown:{service.name}@{cluster.name}",
                )

    def _scale_down(self, service: EdgeService, cluster: EdgeCluster):
        yield from cluster.scale_down(service.plan)
        if self.on_instance_change is not None:
            self._publish_instance(service, cluster, running=False)
