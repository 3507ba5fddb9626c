"""Chaos mid-migration: faults injected while state is on the wire.

The robustness acceptance for live migration (DESIGN.md §11): a crash
of either endpoint or a backbone partition during the transfer must
abort the migration to a *consistent* state — source keeps (or
recovers) the session, the destination instance is rolled back, the
bandwidth ledger drains to zero — and must never produce a
client-visible error beyond a bounded freeze stall.  All of it
byte-identical across two runs of the same seed.

Run just these with ``pytest -m chaos``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.migration import MigrationPolicy
from repro.faults import FaultPlan, Injector
from repro.net.host import ConnectionRefused, ConnectionReset, ConnectionTimeout
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


def _consistent_after_abort(tb, svc, site0, site1, outcome):
    """The invariants every aborted migration must leave behind."""
    assert not outcome.completed
    assert outcome.rolled_back
    assert outcome.error
    # The session was never repointed: site0's client is still pinned
    # to the source instance.
    flow = site0.controller.flow_memory.lookup(site0.clients[0].ip, svc)
    assert flow is not None and flow.cluster_name == "site0-docker"
    # No bandwidth is left reserved and the budget was never exceeded.
    assert tb.ledger.oversubscriptions() == []
    assert tb.ledger.committed("trunk:site0") == 0
    # Neither manager strands in-flight state.
    assert site1.manager.inbound_count() == 0
    assert site0.manager.export_count() == 0
    assert (svc.name, "site0-docker") not in site0.controller.dispatcher.evicting


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
        import dataclasses

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
        retry = tb.migrate(svc, site0, site1, mode="stopcopy")
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
