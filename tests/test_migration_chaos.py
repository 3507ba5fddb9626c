"""Chaos mid-migration: faults injected while state is on the wire.

The robustness acceptance for live migration (DESIGN.md §11): a crash
of either endpoint or a backbone partition during the transfer must
abort the migration to a *consistent* state — source keeps (or
recovers) the session, the destination instance is rolled back, the
bandwidth ledger drains to zero — and must never produce a
client-visible error beyond a bounded freeze stall.  All of it
byte-identical across two runs of the same seed.  Beyond the three
canned fault points, a generated property runs the same fault
vocabulary at every instant of a slow migration and requires one
consistent terminal state each time.

Run just these with ``pytest -m chaos``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dispatcher import Deployment
from repro.core.migration import DRAIN_S, FreezeGate, MigrationPolicy
from repro.faults import FaultPlan, Injector
from repro.net.host import ConnectionRefused, ConnectionReset, ConnectionTimeout
from repro.observe import tap
from repro.services.catalog import ASM
from repro.testbed import FederatedTestbed, FederationConfig

pytestmark = pytest.mark.chaos

CLIENT_ERRORS = (ConnectionRefused, ConnectionReset, ConnectionTimeout)

#: A deliberately slow transfer so faults reliably land mid-copy: a
#: 4 MiB checkpoint at 8 Mbit/s stays on the wire for ~4.2 s while
#: destination prepare+activate only takes ~0.4 s (image pre-cached).
SLOW = MigrationPolicy(
    mode="precopy",
    checkpoint_bytes=4 * 1024 * 1024,
    dirty_rate_bps=0,
    rate_bps=8_000_000,
    chunk_bytes=256 * 1024,
    transfer_timeout_s=1.0,
    freeze_timeout_s=1.5,
)


def _testbed():
    """Two federated sites, ASM running at site0, image warm at site1
    (so migration time is transfer-dominated and fault timing is
    predictable)."""
    tb = FederatedTestbed(FederationConfig(n_sites=2))
    svc = tb.register_template(ASM)
    site0, site1 = tb.sites
    tb.run_request(site0.clients[0], svc, ASM.request)
    tb.settle(12.0)
    tb.prepare_created(site1.cluster, svc)
    tb.settle_replication()
    assert site0.cluster.is_running(svc.plan)
    return tb, svc, site0, site1


def _consistent_terminal_state(tb, svc, site0, site1, outcome):
    """The invariants every migration leaves behind, completed or not,
    once it, its freeze timeout, its drain and any fault are over."""
    assert outcome.completed == (outcome.failed_phase is None)
    assert outcome.completed or outcome.error  # an abort names its cause
    # A completed migration copied a source that stayed frozen: its
    # freeze never lapsed (auto-thawed) under it.
    assert not (outcome.completed and tb.recorder.counters("migrations_auto_thawed"))
    # No bandwidth is left reserved and the budget was never exceeded.
    assert tb.ledger.oversubscriptions() == []
    assert tb.ledger.committed("trunk:site0") == 0
    assert tb.ledger.committed("trunk:site1") == 0
    # Neither manager strands in-flight state.
    for site in (site0, site1):
        assert site.manager.inbound_count() == site.manager.export_count() == 0
        assert not site.controller.dispatcher.deployments
    if not outcome.completed:
        # The session was never repointed: site0's client is still
        # pinned to the source instance.
        flow = site0.controller.flow_memory.lookup(site0.clients[0].ip, svc)
        assert flow is not None and flow.cluster_name == "site0-docker"


def _consistent_after_abort(tb, svc, site0, site1, outcome):
    """The invariants every aborted migration must leave behind."""
    assert not outcome.completed
    assert outcome.rolled_back
    _consistent_terminal_state(tb, svc, site0, site1, outcome)


class TestMidMigrationFaults:
    def test_source_crash_mid_transfer_aborts_and_recovers(self):
        tb, svc, site0, site1 = _testbed()
        plan = FaultPlan(seed=3).node_crash(1.0, "site0-egs", duration_s=6.0)
        Injector(tb, plan).arm()

        done = site1.manager.request_migration(svc.name, "site0", policy=SLOW)
        outcome = tb.env.run(until=done)

        assert outcome.failed_phase == "precopy"
        _consistent_after_abort(tb, svc, site0, site1, outcome)
        # Rollback scaled the warm-started destination instance down.
        tb.settle(1.0)
        assert not site1.cluster.is_running(svc.plan)
        # The crash killed the source's containers; once the host
        # recovers, the ordinary self-healing path (re-resolve, serve
        # from the cloud, redeploy in the background) takes over — the
        # aborted migration did not make anything worse.
        tb.settle(8.0)
        result = tb.run_request(site0.clients[0], svc, ASM.request)
        assert result.response.status == 200
        tb.settle(12.0)
        assert site0.cluster.is_running(svc.plan)
        result = tb.run_request(site0.clients[0], svc, ASM.request)
        assert result.response.status == 200

    def test_dest_crash_mid_transfer_is_invisible_to_clients(self):
        tb, svc, site0, site1 = _testbed()
        plan = FaultPlan(seed=5).node_crash(1.0, "site1-egs", duration_s=6.0)
        Injector(tb, plan).arm()

        env = tb.env
        base = env.now
        client = site0.clients[0]
        results: list[tuple[float, bool, str, float]] = []

        def loop():
            while env.now - base < 8.0:
                t0 = env.now
                ok, error = True, ""
                try:
                    r = yield from tb.http_request(
                        client, svc, ASM.request, timeout=10.0
                    )
                    ok = r.response.status == 200
                except CLIENT_ERRORS as exc:
                    ok, error = False, type(exc).__name__
                results.append(
                    (round(t0 - base, 6), ok, error, round(env.now - t0, 9))
                )
                yield env.timeout(0.2)

        env.process(loop(), name="chaos-workload")
        done = site1.manager.request_migration(svc.name, "site0", policy=SLOW)
        outcome = env.run(until=done)
        env.run(until=base + 9.0)

        assert outcome.failed_phase == "precopy"
        _consistent_after_abort(tb, svc, site0, site1, outcome)
        # Pre-copy never froze the source, so the active workload saw
        # zero errors *and* zero stalls across the aborted migration.
        assert len(results) >= 35
        assert [r for r in results if not r[1]] == []
        assert max(r[3] for r in results) < 0.5

    def test_backbone_partition_mid_stopcopy_auto_thaws(self):
        tb, svc, site0, site1 = _testbed()
        # Stop-and-copy: the source freezes for the whole transfer, so
        # the partition hits while client requests are queued behind
        # the freeze gate.
        policy = dataclasses.replace(SLOW, mode="stopcopy")
        plan = FaultPlan(seed=9).partition(1.0, "site0", "backbone", 8.0)
        Injector(tb, plan).arm()

        env = tb.env
        base = env.now
        client = site0.clients[0]
        results: list[tuple[float, bool, str, float]] = []

        def loop():
            yield env.timeout(0.6)  # first request lands mid-freeze
            while env.now - base < 6.0:
                t0 = env.now
                ok, error = True, ""
                try:
                    r = yield from tb.http_request(
                        client, svc, ASM.request, timeout=10.0
                    )
                    ok = r.response.status == 200
                except CLIENT_ERRORS as exc:
                    ok, error = False, type(exc).__name__
                results.append(
                    (round(t0 - base, 6), ok, error, round(env.now - t0, 9))
                )
                yield env.timeout(0.3)

        env.process(loop(), name="chaos-workload")
        done = site1.manager.request_migration(svc.name, "site0", policy=policy)
        outcome = env.run(until=done)
        env.run(until=base + 7.0)

        # The transfer died on the partition; the abort POST could not
        # reach the source either, so the *freeze timeout* thawed it.
        assert outcome.failed_phase == "final_copy"
        _consistent_after_abort(tb, svc, site0, site1, outcome)
        assert [r for r in results if not r[1]] == []
        # At least one request was caught behind the freeze and got
        # answered only after the auto-thaw — stalled, never failed.
        stalled = [r for r in results if r[3] > 0.3]
        assert stalled
        assert max(r[3] for r in results) < SLOW.freeze_timeout_s + 1.0
        # After the partition heals, the same migration succeeds.
        tb.settle(4.0)
        retry = tb.env.run(
            until=site1.manager.request_migration(svc.name, site0.name, mode="stopcopy")
        )
        assert retry.completed, retry

    def test_same_seed_chaos_traces_are_identical(self):
        def run_once() -> str:
            tb, svc, site0, site1 = _testbed()
            plan = FaultPlan(seed=5).node_crash(
                1.0, "site1-egs", duration_s=6.0
            )
            Injector(tb, plan).arm()
            env = tb.env
            base = env.now
            client = site0.clients[0]
            trace: list[tuple] = []

            def loop():
                while env.now - base < 8.0:
                    t0 = env.now
                    ok, error = True, ""
                    try:
                        r = yield from tb.http_request(
                            client, svc, ASM.request, timeout=10.0
                        )
                        ok = r.response.status == 200
                    except CLIENT_ERRORS as exc:
                        ok, error = False, type(exc).__name__
                    trace.append((repr(t0 - base), ok, error, repr(env.now - t0)))
                    yield env.timeout(0.2)

            env.process(loop(), name="chaos-workload")
            done = site1.manager.request_migration(
                svc.name, "site0", policy=SLOW
            )
            outcome = env.run(until=done)
            env.run(until=base + 9.0)
            trace.append((repr(outcome), repr(tb.ledger.trace)))
            return hashlib.md5(repr(trace).encode()).hexdigest()

        assert run_once() == run_once()


class TestFaultInstantsOffTheCannedPoints:
    """The same fault vocabulary at instants the three canned tests
    miss: each once stopped the run or ended in an inconsistent state."""

    def test_source_pod_killed_in_precopy_aborts(self):
        tb, svc, site0, site1 = _testbed()
        Injector(tb, FaultPlan(seed=3).kill_pod(1.0, "site0-docker", svc.name)).arm()

        done = site1.manager.request_migration(svc.name, "site0", policy=SLOW)
        outcome = tb.env.run(until=done)

        # The next checkpoint read finds no instance (404): a protocol
        # error, aborted like any fault instead of escaping the run.
        assert outcome.failed_phase == "precopy"
        assert "404" in outcome.error
        _consistent_after_abort(tb, svc, site0, site1, outcome)

    def test_source_crash_under_a_stopcopy_freeze_auto_thaws_on_a_closed_port(self):
        tb, svc, site0, site1 = _testbed()
        Injector(
            tb, FaultPlan(seed=3).node_crash(0.4, "site0-egs", duration_s=0.5)
        ).arm()

        policy = dataclasses.replace(SLOW, mode="stopcopy")
        done = site1.manager.request_migration(svc.name, "site0", policy=policy)
        outcome = tb.env.run(until=done)
        # The crash closed the instance's port under the gate; the
        # auto-thaw must dismantle the export without swapping an
        # application onto a port that is not open.
        tb.settle(SLOW.freeze_timeout_s)

        assert outcome.failed_phase == "final_copy"
        _consistent_after_abort(tb, svc, site0, site1, outcome)
        assert tb.recorder.counters("migrations_auto_thawed") == {
            "migrations_auto_thawed/site0": 1
        }

    def test_destination_killed_before_the_flip_is_not_flipped_to(self):
        tb, svc, site0, site1 = _testbed()
        Injector(tb, FaultPlan(seed=3).kill_pod(1.0, "site1-docker", svc.name)).arm()
        published = []
        detach = tap(Deployment, "publish", lambda _, running: published.append(running))
        try:
            done = site1.manager.request_migration(svc.name, "site0", policy=SLOW)
            outcome = tb.env.run(until=done)
        finally:
            detach()

        assert outcome.failed_phase == "flip"
        assert outcome.error == "MigrationError: destination stopped answering"
        assert not any(published)
        _consistent_after_abort(tb, svc, site0, site1, outcome)
        # The source was thawed and its own application is back on the
        # port: the service still answers where it always did.
        endpoint = site0.cluster.endpoint(svc.plan)
        ingress = site0.cluster.ingress_host
        assert site0.cluster.is_running(svc.plan)
        assert not isinstance(ingress.app_on(endpoint.port), FreezeGate)
        result = tb.run_request(site0.clients[0], svc, ASM.request)
        assert result.response.status == 200

    def test_a_freeze_that_lapses_under_the_final_copy_aborts_it(self):
        tb, svc, site0, site1 = _testbed()
        policy = dataclasses.replace(SLOW, mode="stopcopy")
        done = site1.manager.request_migration(svc.name, "site0", policy=policy)
        outcome = tb.env.run(until=done)
        tb.settle(SLOW.freeze_timeout_s)

        # No fault: the 4 MiB copy simply outlasts the 1.5 s freeze.  The
        # source thaws on its own mid-copy, so what it writes from then on
        # would miss the checkpoint — the next read is refused, and the
        # migration aborts instead of completing on stale state.
        assert outcome.failed_phase == "final_copy"
        assert "freeze lapsed" in outcome.error
        _consistent_after_abort(tb, svc, site0, site1, outcome)
        assert tb.recorder.counters("migrations_auto_thawed") == {
            "migrations_auto_thawed/site0": 1
        }
        result = tb.run_request(site0.clients[0], svc, ASM.request)
        assert result.response.status == 200

    def test_short_path_with_the_source_down_completes_unacknowledged(self):
        tb, svc, site0, site1 = _testbed()
        tb.run_request(site1.clients[0], svc, ASM.request)
        tb.settle(12.0)
        assert site1.cluster.is_running(svc.plan)
        Injector(
            tb, FaultPlan(seed=3).node_crash(0.0, "site0-egs", duration_s=0.5)
        ).arm()

        done = site1.manager.request_migration(svc.name, "site0", policy=SLOW)
        outcome = tb.env.run(until=done)

        # The flip happened, so the migration completed — the same rule
        # as the long path — and the lost acknowledgement is recorded.
        assert outcome.completed and outcome.failed_phase is None
        assert outcome.bytes_moved == 0
        assert outcome.error.endswith("(release unacknowledged)")
        counters = tb.recorder.counters("migrations")
        assert counters.get("migrations_completed/site1") == 1
        assert "migrations_aborted/site1" not in counters
        breaker = site1.controller.dispatcher.breakers.get("migration:site0")
        assert breaker is None or breaker.consecutive_failures == 0


# ---------------------------------------------------------------------------
# Every fault at every instant: one consistent terminal state
# ---------------------------------------------------------------------------

#: What can fail under a migration: either end's EGS host, either end's
#: instance, either site's backbone trunk.
_FAULTS = (
    None,
    ("crash", "site0-egs"),
    ("crash", "site1-egs"),
    ("pod", "site0-docker"),
    ("pod", "site1-docker"),
    ("partition", "site0"),
    ("partition", "site1"),
)

#: (mode, fault, instant on a 0.1 s grid across the ~4.6 s SLOW
#: migration, fault duration).
_schedules = st.tuples(
    st.sampled_from(("precopy", "stopcopy")),
    st.sampled_from(_FAULTS),
    st.integers(min_value=0, max_value=50).map(lambda tenths: tenths / 10),
    st.sampled_from((0.5, 3.0, 8.0)),
)


def _arm(tb, svc, fault, at_s, duration_s) -> None:
    kind, target = fault
    plan = FaultPlan(seed=1)
    if kind == "crash":
        plan = plan.node_crash(at_s, target, duration_s=duration_s)
    elif kind == "pod":
        plan = plan.kill_pod(at_s, target, svc.name)
    else:
        plan = plan.partition(at_s, target, "backbone", duration_s)
    Injector(tb, plan).arm()


@settings(max_examples=150, deadline=None)
@given(schedule=_schedules)
@example(schedule=("stopcopy", ("crash", "site0-egs"), 0.4, 0.5))
@example(schedule=("precopy", ("pod", "site0-docker"), 1.0, 0.5))
@example(schedule=("precopy", ("pod", "site1-docker"), 1.0, 0.5))
def test_every_migration_ends_in_one_consistent_terminal_state(schedule):
    mode, fault, at_s, duration_s = schedule
    tb, svc, site0, site1 = _testbed()
    if fault is not None:
        _arm(tb, svc, fault, at_s, duration_s)
    # Only the flip repoints site1's flows: record whether the
    # destination answered in that instant.
    flips: list[bool] = []
    tap(
        site1.controller,
        "repoint_service_flows",
        lambda *args, **kwargs: flips.append(site1.cluster.is_running(svc.plan)),
    )
    base = tb.env.now
    policy = dataclasses.replace(SLOW, mode=mode)
    done = site1.manager.request_migration(svc.name, "site0", policy=policy)
    # Nothing may escape: a raising process or callback stops env.run.
    outcome = tb.env.run(until=done)
    tb.env.run(
        until=max(tb.env.now, base + at_s + duration_s)
        + SLOW.freeze_timeout_s
        + DRAIN_S
    )

    assert flips == ([True] if outcome.completed else [])
    _consistent_terminal_state(tb, svc, site0, site1, outcome)
