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
  fig. 10 shows up to 8 deployments/s): one :class:`Deployment` owns
  each (service, cluster) while something happens to its instance,
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
from repro.net.host import ConnectionRefused, ConnectionReset, ConnectionTimeout
from repro.services.calibration import Calibration, DEFAULT_CALIBRATION
from repro.sim import Environment, Process

#: Faults a retry can plausibly cure: transient registry errors,
#: exhausted in-runtime pull retries, a crashed (rebooting) node.
RETRYABLE_FAULTS = (RegistryUnavailable, PullError, NodeDown)

#: Faults that will fail identically on every attempt: unknown image
#: reference (bad manifest) or a structurally invalid deployment.
FATAL_FAULTS = (ImageNotFound, DeployError)

#: Faults an instance's stop or a migration phase must survive: TCP
#: errors from crashed hosts and partitioned links, plus the registry
#: and runtime faults the deployment pipeline already classifies.
INFRA_FAULTS = (
    ConnectionRefused, ConnectionReset, ConnectionTimeout, *RETRYABLE_FAULTS, *FATAL_FAULTS
)

#: How long wait-ready polls a fresh instance's port before the
#: deployment counts as failed.
READY_TIMEOUT_S = 120.0
#: Base backoff before a phase retry: it doubles per attempt and is
#: stretched by up to ``RETRY_JITTER`` from the dispatcher's RNG,
#: seeded 0 and drawn only on failures, so fault-free runs stay
#: byte-identical.
RETRY_BACKOFF_S = 0.5
RETRY_JITTER = 0.1
#: Consecutive failures that open a breaker.
BREAKER_THRESHOLD = 3

#: The deployment phases in order: the cluster call, the outcome flag
#: it sets, and the cluster query that says it is done already.
_PHASES = (
    ("pull", "pulled", "image_cached"),
    ("create", "created", "is_created"),
    ("scale_up", "scaled", None),
)


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


class Deployment:
    """One service's instance on one cluster: the owner of what is in
    flight for it and of the only things that happen to it.

    The :class:`Dispatcher` keeps an owner in ``deployments`` exactly
    while it has state — a *deploy* in flight (``process``) or a leave
    under way (``evicting``); any other lookup hands out a fresh one.
    Each transition is written once (DESIGN.md §7, "A deployment's
    life"):

    * :meth:`deploy` — join the pipeline in flight, answer on the spot,
      or run Pull → Create → Scale Up → wait-ready;
    * :meth:`ready` — the background tail: deploy, then point the
      service's flows at the instance, or tag them degraded;
    * :meth:`evict` … :meth:`retire` — the one way out (idle scale-down,
      migration release, unregistration): hidden from ``gather_states``
      and published stopped, later scaled down and :meth:`drained`.

    Known defects living here: (c) an idle scale-down of a service whose
    client keeps its switch entries warm without a packet-in;
    (d) :meth:`ready` repoints under a request in flight; (e) the room
    rule (``Dispatcher._has_room``) counts a deploy in flight twice once
    its container runs.
    """

    __slots__ = ("dispatcher", "service", "cluster", "key", "process", "evicting")

    def __init__(
        self, dispatcher: "Dispatcher", service: EdgeService, cluster: EdgeCluster
    ) -> None:
        self.dispatcher = dispatcher
        self.service = service
        self.cluster = cluster
        self.key = (service.name, cluster.name)
        #: The deploy pipeline every waiter joins, while it runs.
        self.process: Process | None = None
        #: The instance is leaving (:meth:`evict` until :meth:`drained`):
        #: fresh resolutions must not land on it even though its port is
        #: still open.
        self.evicting = False

    def deploy(self):
        """*deploy*: generator returning :class:`DeploymentOutcome`.

        **The in-flight join comes first, always**: an open port is not
        a finished deployment (§VI — ``wait_ready`` may still be
        polling).  **Nothing to deploy, no process**: when the instance
        already answers and ``quiet_now()`` the outcome is returned
        here, without the pipeline process whose first segment would
        find the same and end — its urgent start and its completion, two
        heap entries between which nobody else would act.  Exact when
        the calling process is the last callback of the entry being
        processed; the one place it is not — the waiters of a shared
        *failed* deployment re-resolving — has every sibling take this
        same branch in the same order.  The guard is traffic, not
        caution (packet-ins sent in one instant are handled at one
        instant: 18 of ``c3_churn``'s 7 081 answers).  Without it the latency
        md5s of ``c3_replay``, ``c3_churn`` and ``fed_replay`` move at
        seed 42; the shortcut property in ``tests/test_properties.py``
        names the instant (contract in DESIGN.md §6).

        **The pipeline starts hot**: the owner is registered first, and
        the pipeline's first segment runs here, not at the pop of an
        ``_Initialize`` entry — the next pop, unless an entry ahead of
        ``NORMAL`` is due now (``Environment.urgent_now``: another
        process's urgent start, a ``run(until=…)`` stop), which would
        run first; then it starts cold.  Exactness boundary: the first
        segment (its reads of the cluster, its first push) now runs
        before, not after, whatever the rest of the entry being
        processed does; the order differs only for an entry that is due
        exactly at that push's instant and is pushed in between.
        """
        if self.process is not None:
            outcome = yield self.process
            return outcome
        env = self.dispatcher.env
        if self.cluster.is_running(self.service.plan) and env.quiet_now():
            return DeploymentOutcome(self.service.name, self.cluster.name)
        self.dispatcher.deployments[self.key] = self
        self.process = Process(
            env, self._pipeline(), name=f"deploy:{self.key}", hot=not env.urgent_now()
        )
        try:
            outcome = yield self.process
        finally:
            self.process = None
            self._forget_if_idle()
        return outcome

    def _pipeline(self):
        """Pull → Create → Scale Up → wait-ready.  A phase the cluster
        has done already is skipped; a retryable fault is retried up to
        ``max_phase_retries`` times after exponential backoff, a fatal
        one is not.  One failure path stamps the outcome, counts
        ``deploy_failures/<cluster>`` and feeds the cluster's breaker."""
        dispatcher, service, cluster = self.dispatcher, self.service, self.cluster
        env, recorder, plan = dispatcher.env, dispatcher.recorder, service.plan
        outcome = DeploymentOutcome(service.name, cluster.name)
        started = env.now
        if cluster.is_running(plan):
            return outcome
        recorder.mark("deployments", started)
        tag = service.template_key or service.name
        try:
            for phase, flag, done in _PHASES:
                if done is not None and getattr(cluster, done)(plan):
                    continue
                t0 = env.now
                outcome.attempts = 1
                while True:
                    try:
                        yield from getattr(cluster, phase)(plan)
                        break
                    except RETRYABLE_FAULTS:
                        if outcome.attempts > dispatcher.max_phase_retries:
                            raise
                    backoff = RETRY_BACKOFF_S * 2 ** (outcome.attempts - 1)
                    backoff *= 1.0 + RETRY_JITTER * dispatcher._retry_rng.random()
                    recorder.count(f"deploy_retries/{cluster.name}")
                    yield env.timeout(backoff)
                    outcome.attempts += 1
                elapsed = env.now - t0
                setattr(outcome, flag, True)
                setattr(outcome, f"{phase}_s", elapsed)
                recorder.record(f"{phase}/{cluster.name}/{tag}", elapsed)
        except FATAL_FAULTS + RETRYABLE_FAULTS as exc:
            error = f"{type(exc).__name__}: {exc}"
        else:
            # §VI: poll the service port until it answers.
            phase, t0 = "wait_ready", env.now
            outcome.ready = yield from cluster.wait_ready(
                plan,
                poll_interval_s=dispatcher.calibration.port_poll_interval_s,
                timeout_s=READY_TIMEOUT_S,
            )
            outcome.wait_ready_s = env.now - t0
            recorder.record(f"wait_ready/{cluster.name}/{tag}", outcome.wait_ready_s)
            if outcome.ready:
                outcome.total_s = env.now - started
                recorder.record(f"deploy_total/{cluster.name}/{tag}", outcome.total_s)
                dispatcher.feed_breaker(cluster.name, ok=True)
                self.publish(running=True)
                return outcome
            # Never answered on its port: a failure like any other, not
            # a silent half-install.
            error = f"service port not open within {READY_TIMEOUT_S}s"
        outcome.failed_phase, outcome.error, outcome.ready = phase, error, False
        outcome.total_s = env.now - started
        recorder.count(f"deploy_failures/{cluster.name}")
        dispatcher.feed_breaker(cluster.name, ok=False)
        return outcome

    def ready(self):
        """*ready*: the background tail (generator).  Deploy — through
        ``Dispatcher.ensure_deployed``, whose lookup runs when this
        process first resumes and joins whatever is in flight by then —
        and point the service's flows at the ready instance
        (``on_endpoint_ready``); when it failed, clients stay where they
        are, but their flows are tagged degraded so they re-resolve
        (instead of being replayed from memory) once this cluster
        recovers."""
        dispatcher, service, cluster = self.dispatcher, self.service, self.cluster
        outcome = yield from dispatcher.ensure_deployed(service, cluster)
        if not outcome.ready:
            dispatcher.flow_memory.mark_service_degraded(service, cluster.name)
            return
        endpoint = cluster.endpoint(service.plan)
        if endpoint is not None:
            dispatcher.on_endpoint_ready(service, cluster.name, endpoint)

    def evict(self) -> None:
        """*evict*: open the instance's leave.  From this instant fresh
        resolutions do not see it, and peers learn it is gone — for a
        migration source, after they learned that the destination exists
        (it published before releasing).  Its port stays open."""
        self.evicting = True
        self.dispatcher.deployments[self.key] = self
        self.publish(running=False)

    def retire(self):
        """*retire*: close the leave :meth:`evict` opened (generator):
        scale down — a fault of the stop is the injector's to clean up —
        then :meth:`drained` on whichever owner a lookup finds, so a
        second leave's end ends whatever eviction holds the instance."""
        try:
            yield from self.cluster.scale_down(self.service.plan)
        except INFRA_FAULTS:
            pass
        finally:
            self.dispatcher.deployment(self.service, self.cluster).drained()

    def drained(self) -> None:
        """The end of *evict*: the instance is stopped, or its stop
        faulted."""
        self.evicting = False
        self._forget_if_idle()

    def publish(self, running: bool) -> None:
        """Announce the instance running or stopped through the
        dispatcher's ``on_instance_change`` (the federated
        configuration's replica; nothing without one)."""
        dispatcher = self.dispatcher
        if dispatcher.on_instance_change is None:
            return
        cluster = self.cluster
        dispatcher.on_instance_change(
            InstanceRecord(
                service_name=self.service.name,
                cluster_name=cluster.name,
                site=dispatcher.site,
                running=running,
                endpoint=cluster.endpoint(self.service.plan) if running else None,
                distance=cluster.distance,
                observed_at=dispatcher.env.now,
            )
        )

    def _forget_if_idle(self) -> None:
        deployments = self.dispatcher.deployments
        if self.process is None and not self.evicting and deployments.get(self.key) is self:
            del deployments[self.key]


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
        max_phase_retries: int = 2,
        breaker_enabled: bool = True,
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
        #: redirect", set by the owner: the controller's
        #: ``repoint_service_flows`` moves the memory and the data plane
        #: (pins + fresh redirect entries) in one instant.
        self.on_endpoint_ready: _t.Callable[
            [EdgeService, str, ServiceEndpoint], int
        ] | None = None
        #: Site identifier stamped into published instance records.
        self.site = site
        self.recorder = recorder if recorder is not None else MetricsRecorder()
        self.calibration = calibration
        #: Retries per deployment phase after the first attempt.
        self.max_phase_retries = max_phase_retries
        self._retry_rng = random.Random(0)
        self.breaker_enabled = breaker_enabled
        self.breaker_cooldown_s = breaker_cooldown_s
        #: name -> circuit breaker; created lazily on the first failure,
        #: so the mapping stays empty (and state gathering pays nothing)
        #: on healthy runs.  Breakers are site-local state: bind the
        #: state's mapping once and use it directly.
        self.breakers = self.state.breakers
        #: (service name, cluster name) -> its owner, while a deploy is
        #: in flight or an eviction drains (insertion order).
        self.deployments: dict[tuple[str, str], Deployment] = {}

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
        deployments = self.deployments
        utilization = self._site_utilization()
        states = []
        for cluster in self.clusters:
            blocked = degraded = False
            if breakers:
                breaker = breakers.get(cluster.name)
                if breaker is not None:
                    blocked = breaker.blocked(self.env.now)
                    degraded = breaker.state is BreakerState.HALF_OPEN
            owner = deployments.get((service.name, cluster.name)) if deployments else None
            if owner is not None and owner.evicting:
                # Mid-eviction: the instance only exists to drain its
                # last sessions; present it as gone-and-unusable so no
                # new flow is scheduled onto it.
                running = room = False
                blocked = True
            else:
                running = cluster.is_running(plan)
                room = self._has_room(service, cluster)
            states.append(
                ClusterState(
                    cluster=cluster,
                    running=running,
                    created=cluster.is_created(plan),
                    cached=cluster.image_cached(plan),
                    has_capacity=room,
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

    def feed_breaker(self, name: str, ok: bool) -> None:
        """Tell circuit breaker ``name`` — a cluster's, or a migration
        source's ``migration:<site>`` — how an attempt ended, when
        breakers are enabled.  A failure creates the breaker on first
        use; a success only resets one that exists."""
        if not self.breaker_enabled:
            return
        breaker = self.breakers.get(name)
        if ok:
            if breaker is not None:
                breaker.record_success()
            return
        if breaker is None:
            breaker = self.breakers[name] = CircuitBreaker(
                self.env,
                name,
                failure_threshold=BREAKER_THRESHOLD,
                cooldown_s=self.breaker_cooldown_s,
                recorder=self.recorder,
            )
        breaker.record_failure()

    def _has_room(self, service: EdgeService, cluster: EdgeCluster) -> bool:
        """The room rule: capacity that also counts deploys in flight —
        otherwise concurrent dispatches would all admit themselves
        against the same free slots.  A service takes one slot whether
        it runs, is being deployed, or both (its container is up before
        its deploy ends), so the rule counts the union."""
        if cluster.is_running(service.plan):
            return True
        if cluster.capacity is None:
            return True
        inflight = {
            svc_name
            for (svc_name, cluster_name), owner in self.deployments.items()
            if owner.process is not None
            and cluster_name == cluster.name
            and svc_name != service.name
        }
        return len(cluster.running_services() | inflight) < cluster.capacity

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

    # -- deployments: a lookup plus one transition --------------------------------

    def deployment(self, service: EdgeService, cluster: EdgeCluster) -> Deployment:
        """The owner of ``service``'s instance on ``cluster``: the one
        with a deploy in flight or an eviction draining, else a fresh
        one."""
        owner = self.deployments.get((service.name, cluster.name))
        return owner if owner is not None else Deployment(self, service, cluster)

    def ensure_deployed(self, service: EdgeService, cluster: EdgeCluster):
        """Run (or join) the deployment of ``service`` on ``cluster``:
        generator returning :class:`DeploymentOutcome`
        (:meth:`Deployment.deploy`).  A generator function, so that the
        owner is looked up when the caller first resumes it."""
        outcome = yield from self.deployment(service, cluster).deploy()
        return outcome

    def deploy_in_background(
        self, service: EdgeService, cluster: EdgeCluster
    ) -> None:
        """Deploy without blocking the caller; when the instance is
        ready, repoint the service's memorized flows to it so future
        requests use the BEST location (:meth:`Deployment.ready`)."""
        self.env.spawn(
            self.deployment(service, cluster).ready(),
            name=f"bg-deploy:{service.name}@{cluster.name}",
        )

    def scale_down_idle(self, service: EdgeService) -> None:
        """Evict, then retire, the service on every cluster where it
        runs, once its last memorized flow expired: a request arriving
        during the stop goes elsewhere, not to a port about to close.
        No drain: no flow used it for ``memory_idle_timeout_s``, longer
        than a switch entry lives (DESIGN.md §7)."""
        for cluster in self.clusters:
            if cluster.is_running(service.plan):
                owner = self.deployment(service, cluster)
                owner.evict()
                self.env.spawn(
                    owner.retire(),
                    name=f"scaledown:{service.name}@{cluster.name}",
                )
