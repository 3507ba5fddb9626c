"""Live stateful service migration with make-before-break continuity.

The paper's transparent-access promise breaks under mobility: flows are
invalidated when a client moves, but instances never follow, so a
relocated session keeps detouring to its old cluster.  This module
moves the instance — checkpoint, transfer over the *real* simulated
backbone links, start at the destination, and only then flip flows
make-before-break (Fondo-Ferreiro et al., arXiv:2009.01716):

* **Checkpoint transfer** is destination-initiated over a plain HTTP
  daemon every site's EGS host serves on :data:`MIGRATION_PORT`.  Each
  chunk is a real request/response pair, so the bytes pay real
  serialization on every link of the path (EGS link, trunk, backbone)
  and contend with data traffic — and the transfer behaves identically
  under the serial and the partitioned parallel kernel, because it
  *is* data traffic.
* **Pre-copy vs. stop-and-copy** is selectable per service
  (:class:`MigrationPolicy`): pre-copy iterates dirty-rate rounds
  (``dirty_{i+1} = dirty_rate × T_i``) until the residue is small,
  then freezes and ships only the residue — trading extra bytes for a
  short freeze; stop-and-copy freezes first and ships the whole
  checkpoint inside the downtime window.
* **Make-before-break flip**: the destination instance is pulled,
  created, started, and port-ready *before* anything touches the
  source.  The flip itself runs in a single event-loop instant — a pin
  at :data:`~repro.core.controller.PRIORITY_DRAIN` of the connections
  the switch committed toward the source, and the redirect swap, are
  sent together — so those connections drain on the old path while
  new ones take the new one.
* **Abort safety**: every phase up to the flip runs under one abort
  path.  A fault (node crash, pod kill, link partition, registry
  outage), a protocol error, or a destination that stopped answering
  by the flip instant aborts to a consistent state — the destination
  half-install is rolled back, the source is thawed (belt: an explicit
  ``/abort``; braces: a local auto-thaw timer that fires even if the
  destination vanished) and the session continues on the source.  A
  :class:`MigrationOutcome` with ``failed_phase`` mirrors
  ``DeploymentOutcome``, and aborts feed a per-source-site circuit
  breaker.
* **Planning**: a :class:`MigrationPlanner` admits, batches, and
  orders concurrent migrations under per-backbone-link bandwidth
  budgets tracked by a :class:`BandwidthLedger` (He/Toosi/Buyya,
  arXiv:2111.08936): smallest-checkpoint-first ordering, all-or-nothing
  link reservations, and per-transfer pacing to the admitted rate.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.dispatcher import INFRA_FAULTS
from repro.net.packet import HTTPRequest, HTTPResponse
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.cluster.base import DeploymentPlan, EdgeCluster
    from repro.core.controller import EdgeController
    from repro.core.service_registry import EdgeService
    from repro.net.addressing import IPv4Address
    from repro.net.host import Application, Host, HTTPResult

__all__ = [
    "MIGRATION_PORT",
    "BandwidthLedger",
    "FreezeGate",
    "MigrationError",
    "MigrationManager",
    "MigrationOutcome",
    "MigrationPlanner",
    "MigrationPolicy",
    "policy_for",
]

#: Every EGS host serves the migration daemon here.
MIGRATION_PORT = 7077

#: Pre-copy stops iterating once the re-dirtied residue falls below
#: this, or after this many rounds (a service that dirties faster than
#: the link ships has its last residue shipped frozen).
STOP_THRESHOLD_BYTES = 256 << 10
MAX_ROUNDS = 5
#: How long the source keeps serving drained sessions after the flip
#: before scaling the old instance down.
DRAIN_S = 1.0
#: Destination readiness bound after scale-up.
READY_TIMEOUT_S = 30.0
#: The daemon's answer to a checkpoint read or a release that relies on
#: a freeze (``frozen=1``) which has lapsed: the source auto-thawed, and
#: what it wrote since is in no checkpoint.
FREEZE_LAPSED = 409


class MigrationError(Exception):
    """A migration phase failed in a way the protocol detected
    (unexpected daemon status, destination never became ready)."""


@dataclasses.dataclass(frozen=True)
class MigrationPolicy:
    """Per-service knobs of the checkpoint/transfer pipeline."""

    #: "precopy" (iterative dirty rounds, short freeze) or "stopcopy"
    #: (freeze first, one transfer inside the downtime window).
    mode: str = "precopy"
    #: Size of a full runtime checkpoint, drawn from the service spec.
    checkpoint_bytes: int = 8 << 20
    #: How fast the running instance dirties its state while a
    #: pre-copy round is in flight (bits/second).
    dirty_rate_bps: int = 64_000_000
    #: One HTTP transfer per chunk.
    chunk_bytes: int = 4 << 20
    #: Transfer rate the planner admits per migration (pacing target).
    rate_bps: int = 2_000_000_000
    #: Source-side auto-thaw: a frozen instance unfreezes on its own
    #: after this long, so a vanished destination can never strand it.
    freeze_timeout_s: float = 5.0
    #: Per-chunk transfer timeout (partition detection).
    transfer_timeout_s: float = 10.0

    def with_mode(self, mode: str | None) -> "MigrationPolicy":
        """This policy with ``mode`` overriding its own (None keeps it)."""
        if mode is None or mode == self.mode:
            return self
        return dataclasses.replace(self, mode=mode)


#: Spec-derived defaults per service template: checkpoint size scales
#: with the image footprint, dirty rate with how stateful the workload
#: is (static nginx barely dirties; the inference service churns).
DEFAULT_POLICIES: dict[str, MigrationPolicy] = {
    "asm": MigrationPolicy(checkpoint_bytes=256 << 10, dirty_rate_bps=8_000_000),
    "nginx": MigrationPolicy(checkpoint_bytes=24 << 20, dirty_rate_bps=16_000_000),
    "nginx-py": MigrationPolicy(
        checkpoint_bytes=32 << 20, dirty_rate_bps=64_000_000
    ),
    "resnet": MigrationPolicy(
        checkpoint_bytes=96 << 20, dirty_rate_bps=256_000_000
    ),
}


def policy_for(
    service: "EdgeService | None", mode: str | None = None
) -> MigrationPolicy:
    """The migration policy for a service (template defaults, with an
    optional pre-copy/stop-and-copy override)."""
    key = getattr(service, "template_key", None)
    return DEFAULT_POLICIES.get(key or "", MigrationPolicy()).with_mode(mode)


@dataclasses.dataclass
class MigrationOutcome:
    """Timing/byte breakdown of one migration (mirrors
    :class:`~repro.core.dispatcher.DeploymentOutcome`)."""

    service_name: str
    from_site: str
    to_site: str
    mode: str
    started_at: float = 0.0
    #: Pre-copy rounds executed (0 for stop-and-copy).
    rounds: int = 0
    #: Total checkpoint bytes shipped (all rounds + final).
    bytes_moved: int = 0
    #: Bytes shipped inside the freeze window.
    bytes_final: int = 0
    #: Source freeze -> source thaw confirmed (the continuity gap an
    #: active session can observe as added latency).
    downtime_s: float = 0.0
    total_s: float = 0.0
    completed: bool = False
    #: Phase that failed ("admission" / "prepare" / "activate" /
    #: "precopy" / "freeze" / "final_copy" / "flip"), or None when the
    #: migration completed.
    failed_phase: str | None = None
    #: Why it aborted; on a completed migration, a release the source
    #: never acknowledged ("… (release unacknowledged)").
    error: str | None = None
    #: True when the abort tore a half-installed destination back down.
    rolled_back: bool = False


class FreezeGate:
    """Wraps a migrating instance's application during the freeze.

    The listener (and its open port) stays up, so new connections
    complete their handshake and queue instead of being refused —
    frozen time shows up as added latency, never as an error.  ``thaw``
    releases every queued request to the inner application in FIFO
    order.  On a live instance ``inner`` is what ``Host.swap_app``
    handed back when the gate went in (None only until then).
    """

    def __init__(self, env: Environment, inner: "Application | None") -> None:
        self.env = env
        self.inner = inner
        self.frozen = False
        #: When the current freeze began — lets the auto-thaw timer
        #: tell "still my freeze" from "re-frozen since I was armed".
        self.frozen_at: float | None = None
        self._waiters: list[_t.Any] = []
        #: Diagnostics: most requests ever queued behind the gate.
        self.queued_peak = 0

    def freeze(self) -> None:
        self.frozen = True
        self.frozen_at = self.env.now

    def thaw(self) -> None:
        self.frozen = False
        self.frozen_at = None
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed(None)

    def handle(self, request: HTTPRequest):
        while self.frozen:
            event = self.env.event()
            self._waiters.append(event)
            if len(self._waiters) > self.queued_peak:
                self.queued_peak = len(self._waiters)
            yield event
        response = yield from self.inner.handle(request)
        return response


class BandwidthLedger:
    """Committed migration bandwidth per backbone link.

    The planner reserves ``rate_bps`` on every link a transfer crosses
    (all-or-nothing) and releases it on completion or abort.  Every link
    has the same budget, ``capacity_bps``.  Every reservation change
    appends to :attr:`trace`, so a run can prove after the fact that no
    link was ever committed past its budget.
    """

    def __init__(self, env: Environment, capacity_bps: int) -> None:
        self.env = env
        self.capacity_bps = int(capacity_bps)
        self._committed: dict[str, int] = {}
        #: (time, link, committed_bps_after_change) per change.
        self.trace: list[tuple[float, str, int]] = []

    def committed(self, link: str) -> int:
        return self._committed.get(link, 0)

    def available(self, link: str) -> int:
        return self.capacity_bps - self.committed(link)

    def reserve(self, links: _t.Sequence[str], rate_bps: int) -> bool:
        """Reserve ``rate_bps`` on every link, or nothing at all."""
        if any(self.available(link) < rate_bps for link in links):
            return False
        for link in links:
            self._committed[link] = self.committed(link) + rate_bps
            self.trace.append((self.env.now, link, self._committed[link]))
        return True

    def release(self, links: _t.Sequence[str], rate_bps: int) -> None:
        for link in links:
            self._committed[link] = max(0, self.committed(link) - rate_bps)
            self.trace.append((self.env.now, link, self._committed[link]))

    def oversubscriptions(self) -> list[tuple[float, str, int]]:
        """Trace entries that exceeded the link's budget (empty on a
        correctly admitted run)."""
        return [
            (t, link, committed)
            for (t, link, committed) in self.trace
            if committed > self.capacity_bps
        ]


@dataclasses.dataclass
class _MigrationRequest:
    """One queued migration (destination-side planner entry)."""

    service_name: str
    from_site: str
    policy: MigrationPolicy
    done: _t.Any  # event fired with the MigrationOutcome


@dataclasses.dataclass
class _Export:
    """Source-side state of one outbound migration."""

    service: "EdgeService"
    cluster: "EdgeCluster"
    port: int
    gate: FreezeGate | None = None
    released: bool = False


class MigrationPlanner:
    """Admission control for concurrent inbound migrations.

    Orders the queue smallest-checkpoint-first (shortest job first
    minimizes mean completion under a shared budget, per
    He/Toosi/Buyya), reserves the source and destination trunk budgets
    all-or-nothing, and starts every admissible transfer — batching
    falls out naturally: whatever fits the ledger runs concurrently,
    the rest waits for a release.
    """

    def __init__(self, manager: "MigrationManager", ledger: BandwidthLedger) -> None:
        self.manager = manager
        self.ledger = ledger
        self._queue: list[_MigrationRequest] = []
        self._pump_armed = False
        #: Diagnostics: how often a request had to wait for bandwidth.
        self.deferred = 0

    @staticmethod
    def link_for(site: str) -> str:
        """Ledger key of one site's backbone trunk."""
        return f"trunk:{site}"

    def links_for(self, request: _MigrationRequest) -> tuple[str, ...]:
        source = self.link_for(request.from_site)
        dest = self.link_for(self.manager.site)
        return (source,) if source == dest else (source, dest)

    def submit(self, request: _MigrationRequest) -> None:
        self._queue.append(request)
        self._arm()

    def _arm(self) -> None:
        if not self._pump_armed:
            self._pump_armed = True
            self.manager.env.call_later(0.0, self._pump)

    def _pump(self) -> None:
        self._pump_armed = False
        self._queue.sort(key=lambda r: (r.policy.checkpoint_bytes, r.service_name))
        still_waiting: list[_MigrationRequest] = []
        manager = self.manager
        for request in self._queue:
            links = self.links_for(request)
            if self.ledger.reserve(links, request.policy.rate_bps):
                manager.env.spawn(
                    manager._run_admitted(request, links),
                    name=f"migrate:{request.service_name}:"
                    f"{request.from_site}->{manager.site}",
                )
            else:
                self.deferred += 1
                still_waiting.append(request)
        self._queue = still_waiting

    def released(self) -> None:
        """A transfer finished: re-examine the queue."""
        if self._queue:
            self._arm()


class MigrationManager:
    """Per-site migration endpoint: source daemon + destination pipeline.

    One manager runs on every site.  As a *source* it is the migration
    daemon — the application on its EGS host's :data:`MIGRATION_PORT`
    (checkpoint reads, freeze/release/abort control) — and performs the
    source-side release: flip local flows to the remote destination,
    evict the instance (its dispatcher's ``Deployment.evict``), thaw,
    and scale down after the drain.
    As a *destination* it runs the admission-controlled pipeline:
    prepare → activate → (pre-copy) → freeze → final copy → flip →
    release.
    """

    def __init__(
        self,
        env: Environment,
        site: str,
        controller: "EdgeController",
        cluster: "EdgeCluster",
        host: "Host",
        peers: dict[str, "IPv4Address"],
        ledger: BandwidthLedger,
    ) -> None:
        self.env = env
        self.site = site
        self.controller = controller
        self.cluster = cluster
        self.host = host
        #: site name -> EGS address serving that site's daemon.
        self.peers = dict(peers)
        self.ledger = ledger
        self.planner = MigrationPlanner(self, ledger)
        self.recorder = controller.recorder
        #: Completed/aborted outcomes, in finish order (diagnostics).
        self.outcomes: list[MigrationOutcome] = []
        #: Source-side exports in progress, by service name.
        self._exports: dict[str, _Export] = {}
        #: Destination-side migrations in flight, by service name.
        self._inbound: dict[str, _t.Any] = {}
        host.open_port(MIGRATION_PORT, self)

    def inbound_count(self) -> int:
        """Destination-side migrations currently in flight."""
        return len(self._inbound)

    def export_count(self) -> int:
        """Source-side exports currently live (released ones linger
        only for the drain window)."""
        return len(self._exports)

    # -- destination side: submission --------------------------------------

    def request_migration(
        self,
        service_name: str,
        from_site: str,
        mode: str | None = None,
        policy: MigrationPolicy | None = None,
    ) -> _t.Any:
        """Queue a migration of ``service_name`` from ``from_site`` to
        this site.  Returns an event fired with the
        :class:`MigrationOutcome` (concurrent requests for the same
        service share one)."""
        pending = self._inbound.get(service_name)
        if pending is not None:
            return pending
        done = self.env.event()
        self._inbound[service_name] = done
        if policy is None:
            policy = policy_for(self.controller.state.service_named(service_name))
        self.planner.submit(
            _MigrationRequest(
                service_name=service_name,
                from_site=from_site,
                policy=policy.with_mode(mode),
                done=done,
            )
        )
        return done

    def _run_admitted(self, request: _MigrationRequest, links: tuple[str, ...]):
        try:
            outcome = yield from self._migrate(request)
        finally:
            self.ledger.release(links, request.policy.rate_bps)
            self._inbound.pop(request.service_name, None)
            self.planner.released()
        self.outcomes.append(outcome)
        request.done.succeed(outcome)

    # -- destination side: the pipeline -------------------------------------

    def _migrate(self, request: _MigrationRequest):
        policy = request.policy
        outcome = MigrationOutcome(
            service_name=request.service_name,
            from_site=request.from_site,
            to_site=self.site,
            mode=policy.mode,
            started_at=self.env.now,
        )
        self.recorder.count(f"migrations_started/{self.site}")
        self.recorder.mark("migrations", self.env.now)

        service = self.controller.state.service_named(request.service_name)
        src_ip = self.peers.get(request.from_site)
        if service is None or src_ip is None or request.from_site == self.site:
            outcome.failed_phase = "admission"
            outcome.error = (
                "unknown service"
                if service is None
                else "unknown peer site"
                if src_ip is None
                else "source == destination"
            )
            return self._finish_aborted(outcome)
        plan = service.plan
        cluster = self.cluster
        phase, scaled, froze_at = "prepare", False, None
        try:
            # Already running here (a concurrent deployment won the
            # race): nothing to copy; the flip and release still apply.
            if not cluster.is_running(plan):
                # prepare — pull + create at the destination before the
                # source is touched at all (make before break).
                if not cluster.image_cached(plan):
                    yield from cluster.pull(plan)
                if not cluster.is_created(plan):
                    yield from cluster.create(plan)

                # activate — warm-start the destination instance *now*,
                # before any state moves: container boot (the expensive
                # part) happens outside the freeze window; checkpoint
                # state is applied as it arrives (instantaneous in the
                # model — the transfer is what pays).  Nothing resolves
                # to the instance until the flip publishes it.
                phase = "activate"
                yield from cluster.scale_up(plan)
                scaled = True
                ready = yield from cluster.wait_ready(
                    plan, timeout_s=READY_TIMEOUT_S
                )
                if not ready:
                    raise MigrationError(
                        f"destination port not open within {READY_TIMEOUT_S}s"
                    )

                # precopy — iterative rounds against the live source.
                final_bytes = policy.checkpoint_bytes
                if policy.mode == "precopy":
                    phase, to_send = "precopy", policy.checkpoint_bytes
                    while True:
                        t0 = self.env.now
                        yield from self._transfer(src_ip, service, to_send, policy)
                        outcome.bytes_moved += to_send
                        outcome.rounds += 1
                        round_s = self.env.now - t0
                        final_bytes = min(
                            int(policy.dirty_rate_bps * round_s / 8.0), to_send
                        )
                        if (
                            final_bytes <= STOP_THRESHOLD_BYTES
                            or outcome.rounds >= MAX_ROUNDS
                        ):
                            break
                        to_send = final_bytes

                # freeze — the source stops mutating state; its port
                # stays open, so new requests queue rather than fail.
                phase = "freeze"
                yield from self._control(
                    src_ip,
                    f"/migrate/freeze/{service.name}"
                    f"?timeout={policy.freeze_timeout_s!r}",
                    policy,
                )
                froze_at = self.env.now

                # final_copy — the frozen residue (or, for stop-and-copy,
                # the whole checkpoint) ships inside the downtime window.
                phase = "final_copy"
                if final_bytes > 0:
                    yield from self._transfer(
                        src_ip, service, final_bytes, policy, frozen=True
                    )
                    outcome.bytes_moved += final_bytes
                    outcome.bytes_final = final_bytes

            # The flip guard, in the flip's own instant: a destination
            # that stopped answering since activate is not flipped to.
            phase = "flip"
            if not cluster.is_running(plan):
                raise MigrationError("destination stopped answering")
        except INFRA_FAULTS + (MigrationError,) as exc:
            yield from self._abort(
                outcome, phase, exc, src_ip, plan if scaled else None
            )
            return self._finish_aborted(outcome)

        # flip — one event-loop instant, no yields: pins in, redirects
        # swapped, memory repointed, instance published.
        endpoint = cluster.endpoint(plan)
        assert endpoint is not None
        self.controller.repoint_service_flows(service, cluster.name, endpoint)
        self.controller.dispatcher.deployment(service, cluster).publish(running=True)

        # release — the source flips its own flows to us, thaws, drains,
        # and scales down.  A flipped destination is a completed
        # migration: a source that never acknowledges cannot un-happen
        # it (its auto-thaw and the fault layer own the leftover
        # instance), so the missing acknowledgement is only recorded.
        try:
            yield from self._control(
                src_ip,
                f"/migrate/release/{service.name}"
                f"?site={self.site}&cluster={cluster.name}"
                f"&ip={endpoint.ip}&port={endpoint.port}"
                + ("&frozen=1" if froze_at is not None else ""),
                policy,
            )
        except INFRA_FAULTS + (MigrationError,) as exc:
            outcome.error = f"{type(exc).__name__}: {exc} (release unacknowledged)"
        if froze_at is not None:
            outcome.downtime_s = self.env.now - froze_at
        return self._finish_completed(outcome)

    # -- destination side: transport ----------------------------------------

    def _transfer(
        self,
        src_ip: "IPv4Address",
        service: "EdgeService",
        nbytes: int,
        policy: MigrationPolicy,
        frozen: bool = False,
    ):
        """Pull ``nbytes`` of checkpoint state over the real links,
        paced to the admitted rate (generator; raises on faults).
        ``frozen``: every read relies on the source's freeze."""
        sent = 0
        query = "&frozen=1" if frozen else ""
        while sent < nbytes:
            chunk = min(policy.chunk_bytes, nbytes - sent)
            t0 = self.env.now
            result: "HTTPResult" = yield from self.host.http_request(
                src_ip,
                MIGRATION_PORT,
                HTTPRequest(
                    "GET", f"/migrate/state/{service.name}?bytes={chunk}{query}"
                ),
                timeout=policy.transfer_timeout_s,
            )
            status = result.response.status
            if status == FREEZE_LAPSED:
                raise MigrationError("source freeze lapsed (auto-thawed) mid-copy")
            if status != 200:
                raise MigrationError(
                    f"source refused checkpoint read (status {status})"
                )
            sent += chunk
            if policy.rate_bps > 0:
                target_s = chunk * 8.0 / policy.rate_bps
                elapsed = self.env.now - t0
                if elapsed < target_s:
                    yield self.env.timeout(target_s - elapsed)

    def _control(
        self, src_ip: "IPv4Address", path: str, policy: MigrationPolicy
    ):
        """One control POST to the source daemon (generator; raises
        :class:`MigrationError` on a non-200 answer)."""
        result: "HTTPResult" = yield from self.host.http_request(
            src_ip,
            MIGRATION_PORT,
            HTTPRequest("POST", path),
            timeout=policy.transfer_timeout_s,
        )
        if result.response.status != 200:
            raise MigrationError(
                f"daemon rejected {path} (status {result.response.status})"
            )

    # -- destination side: abort/rollback ------------------------------------

    def _abort(
        self,
        outcome: MigrationOutcome,
        phase: str,
        exc: BaseException,
        src_ip: "IPv4Address",
        rollback: "DeploymentPlan | None",
    ):
        """Abort to a consistent state: stamp the outcome, tear down the
        half-started destination instance of ``rollback``, and
        best-effort thaw the source (its auto-thaw timer covers us if
        this cannot get through).  The session stays on the source."""
        outcome.failed_phase = phase
        outcome.error = f"{type(exc).__name__}: {exc}"
        if rollback is not None:
            try:
                yield from self.cluster.scale_down(rollback)
                outcome.rolled_back = True
                self.recorder.count(f"migrations_rolled_back/{self.site}")
            except INFRA_FAULTS:
                pass  # destination runtime is itself faulted; injector owns it
        try:
            yield from self.host.http_request(
                src_ip,
                MIGRATION_PORT,
                HTTPRequest("POST", f"/migrate/abort/{outcome.service_name}"),
                timeout=1.0,
            )
        except INFRA_FAULTS:
            pass  # source unreachable: its freeze auto-thaw handles it

    def _finish_aborted(self, outcome: MigrationOutcome) -> MigrationOutcome:
        outcome.total_s = self.env.now - outcome.started_at
        self.recorder.count(f"migrations_aborted/{self.site}")
        self.controller.dispatcher.feed_breaker(f"migration:{outcome.from_site}", ok=False)
        return outcome

    def _finish_completed(self, outcome: MigrationOutcome) -> MigrationOutcome:
        outcome.completed = True
        outcome.total_s = self.env.now - outcome.started_at
        self.recorder.count(f"migrations_completed/{self.site}")
        self.recorder.record("migration/bytes_moved", float(outcome.bytes_moved))
        self.recorder.record("migration/downtime_s", outcome.downtime_s)
        self.recorder.record("migration/total_s", outcome.total_s)
        self.controller.dispatcher.feed_breaker(f"migration:{outcome.from_site}", ok=True)
        return outcome

    # -- source side: daemon verbs -------------------------------------------

    def handle(self, request: HTTPRequest):
        """Serve one daemon verb: the manager is the application on
        :data:`MIGRATION_PORT` (a generator that never blocks — see the
        ``yield`` after the last ``return``)."""
        path, _, query = request.path.partition("?")
        parts = path.strip("/").split("/")
        if len(parts) != 3 or parts[0] != "migrate":
            return HTTPResponse(status=404)
        verb, service_name = parts[1], parts[2]
        params = dict(
            pair.split("=", 1) for pair in query.split("&") if "=" in pair
        )
        if verb == "state" and request.method == "GET":
            return self._serve_state(service_name, params)
        if verb == "freeze" and request.method == "POST":
            return self._serve_freeze(service_name, params)
        if verb == "release" and request.method == "POST":
            return self._serve_release(service_name, params)
        if verb == "abort" and request.method == "POST":
            return self._serve_abort(service_name)
        return HTTPResponse(status=404)
        yield  # pragma: no cover - generator protocol

    def _source_instance(self, service_name: str) -> _Export | None:
        """A fresh export of the locally running, answering instance of
        ``service_name``, or None."""
        service = self.controller.state.service_named(service_name)
        if service is None:
            return None
        for cluster in self.controller.clusters:
            endpoint = cluster.endpoint(service.plan)
            if endpoint is not None and cluster.ingress_host.port_is_open(
                endpoint.port
            ):
                return _Export(service, cluster, endpoint.port)
        return None

    def _export(self, service_name: str) -> _Export | None:
        """The export freeze and release share: the live one, or one
        begun now on the local instance (None if nothing runs here)."""
        export = self._exports.get(service_name)
        if export is None:
            export = self._source_instance(service_name)
            if export is not None:
                self._exports[service_name] = export
        return export

    def _freeze_lapsed(self, service_name: str, params: dict[str, str]) -> bool:
        """Whether a request relying on a freeze (``frozen=1``) finds no
        frozen export: the freeze auto-thawed (or was aborted) since."""
        if "frozen" not in params:
            return False
        export = self._exports.get(service_name)
        return export is None or export.gate is None or not export.gate.frozen

    def _serve_state(
        self, service_name: str, params: dict[str, str]
    ) -> HTTPResponse:
        try:
            nbytes = int(params.get("bytes", "0"))
        except ValueError:
            return HTTPResponse(status=400)
        if nbytes < 0:
            return HTTPResponse(status=400)
        if self._freeze_lapsed(service_name, params):
            return HTTPResponse(status=FREEZE_LAPSED)
        if (
            service_name not in self._exports
            and self._source_instance(service_name) is None
        ):
            return HTTPResponse(status=404)
        # The response body *is* the checkpoint chunk: its bytes pay
        # real serialization on every link back to the destination.
        return HTTPResponse(status=200, body_bytes=nbytes)

    def _serve_freeze(
        self, service_name: str, params: dict[str, str]
    ) -> HTTPResponse:
        export = self._export(service_name)
        if export is None:
            return HTTPResponse(status=404)
        if export.gate is None:
            gate = FreezeGate(self.env, None)
            # swap_app installs the gate and hands back the instance's
            # real application in one instant — no packet interleaves.
            gate.inner = export.cluster.ingress_host.swap_app(export.port, gate)
            export.gate = gate
        export.gate.freeze()
        # The destination drives the migration, so *its* policy owns
        # the freeze budget; the local template policy is only the
        # fallback for a request that did not carry one.
        try:
            timeout_s = float(params["timeout"])
        except (KeyError, ValueError):
            timeout_s = policy_for(export.service).freeze_timeout_s
        self.env.call_later(
            timeout_s, self._auto_thaw, service_name, self.env.now
        )
        self.recorder.count(f"migrations_frozen/{self.site}")
        return HTTPResponse(status=200)

    def _auto_thaw(self, service_name: str, frozen_at: float) -> None:
        """Safety valve: a destination that went silent past the freeze
        budget can never strand a frozen source — the freeze expires on
        its own, the export is dismantled, and the instance keeps
        serving locally."""
        export = self._exports.get(service_name)
        if export is None or export.released:
            return
        gate = export.gate
        if gate is None or not gate.frozen or gate.frozen_at != frozen_at:
            return  # released, aborted, or re-frozen since this timer
        self.recorder.count(f"migrations_auto_thawed/{self.site}")
        self._dismantle_export(service_name, export)

    def _dismantle_export(self, service_name: str, export: _Export) -> None:
        """Undo an un-released export: release queued requests, give the
        port back to the instance's own application where the gate
        still listens (the port may have closed under a crash, or
        reopened for a restarted instance), forget the export."""
        gate = export.gate
        if gate is not None:
            gate.thaw()
            ingress = export.cluster.ingress_host
            if ingress.app_on(export.port) is gate:
                ingress.swap_app(export.port, gate.inner)
        self._exports.pop(service_name, None)

    def _serve_release(
        self, service_name: str, params: dict[str, str]
    ) -> HTTPResponse:
        from repro.cluster.base import ServiceEndpoint
        from repro.net.addressing import IPv4Address

        try:
            remote_name = f"{params['site']}/{params['cluster']}"
            dest_ep = ServiceEndpoint(
                ip=IPv4Address.parse(params["ip"]), port=int(params["port"])
            )
        except (KeyError, ValueError):
            return HTTPResponse(status=400)
        if self._freeze_lapsed(service_name, params):
            return HTTPResponse(status=FREEZE_LAPSED)
        export = self._export(service_name)
        if export is None:
            return HTTPResponse(status=404)

        service, cluster = export.service, export.cluster
        # Make-before-break, source half (one instant): local flows
        # flip to the remote destination, the connections begun here
        # pinned, then the dying instance is evicted.
        self.controller.repoint_service_flows(service, remote_name, dest_ep)
        self.controller.dispatcher.deployment(service, cluster).evict()
        export.released = True
        if export.gate is not None:
            export.gate.thaw()
        self.env.spawn(
            self._drain_and_retire(service, cluster),
            name=f"migrate-drain:{service.name}@{self.site}",
        )
        self.recorder.count(f"migrations_released/{self.site}")
        return HTTPResponse(status=200)

    def _drain_and_retire(self, service: "EdgeService", cluster: "EdgeCluster"):
        """Keep the evicted instance alive for the drain window (queued
        and in-flight exchanges finish on it), then retire it."""
        yield self.env.timeout(DRAIN_S)
        yield from self.controller.dispatcher.deployment(service, cluster).retire()
        self._exports.pop(service.name, None)

    def _serve_abort(self, service_name: str) -> HTTPResponse:
        export = self._exports.get(service_name)
        if export is not None and not export.released:
            self._dismantle_export(service_name, export)
        self.recorder.count(f"migrations_source_aborts/{self.site}")
        return HTTPResponse(status=200)
