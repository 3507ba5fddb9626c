"""Live stateful migration: unit + end-to-end tests.

Three layers:

* the building blocks — freeze gate, bandwidth ledger, planner math,
  per-template policies;
* one migration end to end on the federated testbed — pre-copy and
  stop-and-copy, make-before-break continuity under an active
  workload, third-site healing through the replicated withdrawal;
* the planner under concurrency — admission order and the
  no-oversubscription guarantee on the trunk budget.
"""

from __future__ import annotations

import dataclasses

from repro.core.migration import (
    DRAIN_S,
    MIGRATION_PORT,
    BandwidthLedger,
    FreezeGate,
    MigrationPolicy,
    policy_for,
)
from repro.net.packet import HTTPRequest, HTTPResponse
from repro.services.catalog import ASM, NGINX
from repro.sim import Environment
from repro.testbed import FederatedTestbed, FederationConfig


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


class _EchoApp:
    def __init__(self):
        self.handled = 0

    def handle(self, request):
        self.handled += 1
        return HTTPResponse(status=200)
        yield


class TestFreezeGate:
    def _drive(self, env, gate, request):
        results = []

        def run():
            response = yield from gate.handle(request)
            results.append(response)

        env.process(run())
        return results

    def test_passthrough_when_thawed(self):
        env = Environment()
        app = _EchoApp()
        gate = FreezeGate(env, app)
        results = self._drive(env, gate, HTTPRequest("GET", "/"))
        env.run(until=0.01)
        assert app.handled == 1
        assert results and results[0].status == 200

    def test_frozen_requests_queue_and_thaw_in_fifo_order(self):
        env = Environment()
        app = _EchoApp()
        gate = FreezeGate(env, app)
        gate.freeze()
        r1 = self._drive(env, gate, HTTPRequest("GET", "/a"))
        r2 = self._drive(env, gate, HTTPRequest("GET", "/b"))
        env.run(until=0.1)
        assert app.handled == 0 and not r1 and not r2  # parked, not failed
        assert gate.queued_peak == 2
        gate.thaw()
        env.run(until=0.2)
        assert app.handled == 2
        assert r1 and r2

    def test_refreeze_after_thaw(self):
        env = Environment()
        gate = FreezeGate(env, _EchoApp())
        gate.freeze()
        gate.thaw()
        gate.freeze()
        assert gate.frozen


class TestBandwidthLedger:
    def test_reserve_is_all_or_nothing(self):
        ledger = BandwidthLedger(Environment(), capacity_bps=100)
        assert ledger.reserve(("b",), 50)
        assert not ledger.reserve(("a", "b"), 60)  # b can't take it
        assert ledger.committed("a") == 0  # a was not partially charged
        assert ledger.reserve(("a", "b"), 50)
        assert ledger.available("a") == 50 and ledger.available("b") == 0

    def test_release_frees_and_traces(self):
        env = Environment()
        ledger = BandwidthLedger(env, capacity_bps=100)
        ledger.reserve(("x",), 70)
        ledger.release(("x",), 70)
        assert ledger.committed("x") == 0
        assert [c for (_, _, c) in ledger.trace] == [70, 0]
        assert ledger.oversubscriptions() == []

    def test_oversubscription_is_visible_in_trace(self):
        ledger = BandwidthLedger(Environment(), capacity_bps=100)
        ledger.reserve(("x",), 80)
        ledger.reserve(("x",), 80)  # caller ignored the False return
        assert ledger.committed("x") == 80  # second reserve refused
        ledger._committed["x"] = 160  # simulate a buggy planner
        ledger.trace.append((0.0, "x", 160))
        assert ledger.oversubscriptions() == [(0.0, "x", 160)]


class TestPolicies:
    def test_templates_have_distinct_checkpoints(self):
        sizes = {
            key: policy_for(_FakeService(key)).checkpoint_bytes
            for key in ("asm", "nginx", "resnet")
        }
        assert sizes["asm"] < sizes["nginx"] < sizes["resnet"]

    def test_mode_override_replaces_only_mode(self):
        base = policy_for(_FakeService("nginx"))
        stop = policy_for(_FakeService("nginx"), mode="stopcopy")
        assert stop.mode == "stopcopy"
        assert stop.checkpoint_bytes == base.checkpoint_bytes

    def test_unknown_template_falls_back_to_default(self):
        policy = policy_for(_FakeService("no-such-template"))
        assert policy == MigrationPolicy()
        assert policy_for(None, mode="stopcopy") == MigrationPolicy(mode="stopcopy")

    def test_a_policy_holds_only_the_per_service_knobs(self):
        # Round bounds, drain window and readiness bound are module
        # constants: no template or caller ever set them per service.
        assert [f.name for f in dataclasses.fields(MigrationPolicy)] == [
            "mode",
            "checkpoint_bytes",
            "dirty_rate_bps",
            "chunk_bytes",
            "rate_bps",
            "freeze_timeout_s",
            "transfer_timeout_s",
        ]
        policy = MigrationPolicy()
        assert policy.with_mode(None) is policy.with_mode("precopy") is policy


class _FakeService:
    def __init__(self, key):
        self.template_key = key


# ---------------------------------------------------------------------------
# End to end on the federated testbed
# ---------------------------------------------------------------------------


def _deployed_testbed(template=NGINX, n_sites=2, **config_kwargs):
    """Testbed with ``template`` registered and running at site0."""
    tb = FederatedTestbed(FederationConfig(n_sites=n_sites, **config_kwargs))
    svc = tb.register_template(template)
    client = tb.sites[0].clients[0]
    tb.run_request(client, svc, template.request)  # triggers deployment
    tb.settle(12.0)  # background pull + create + scale-up
    assert tb.sites[0].cluster.is_running(svc.plan)
    return tb, svc


class TestMigrationEndToEnd:
    def test_precopy_migration_completes_and_moves_the_instance(self):
        tb, svc = _deployed_testbed()
        site0, site1 = tb.sites
        outcome = tb.env.run(
            until=site1.manager.request_migration(svc.name, site0.name, mode="precopy")
        )
        assert outcome.completed and outcome.failed_phase is None
        assert outcome.rounds >= 1
        assert outcome.bytes_moved > outcome.bytes_final
        assert site1.cluster.is_running(svc.plan)
        tb.settle(2 * DRAIN_S)
        assert not site0.cluster.is_running(svc.plan)  # source released
        assert not tb.ledger.oversubscriptions()

    def test_session_continues_on_the_new_site(self):
        tb, svc = _deployed_testbed()
        site0, site1 = tb.sites
        client = site0.clients[0]
        tb.env.run(until=site1.manager.request_migration(svc.name, site0.name))
        tb.settle(2 * DRAIN_S)
        result = tb.run_request(client, svc, NGINX.request)
        assert result.response.ok
        flow = site0.controller.flow_memory.lookup(client.ip, svc)
        assert flow is not None and flow.cluster_name == "site1/site1-docker"

    def test_precopy_beats_stopcopy_on_downtime(self):
        tb, svc = _deployed_testbed()
        site0, site1 = tb.sites
        pre = tb.env.run(
            until=site1.manager.request_migration(svc.name, site0.name, mode="precopy")
        )
        tb.settle(2 * DRAIN_S)
        stop = tb.env.run(
            until=site0.manager.request_migration(svc.name, site1.name, mode="stopcopy")
        )
        assert pre.completed and stop.completed
        # The dirty-rate-bounded service converges in a few rounds, so
        # only the residue ships frozen — far less than the full
        # checkpoint stop-and-copy moves inside its downtime window.
        assert pre.bytes_final < stop.bytes_final
        assert pre.downtime_s < stop.downtime_s

    def test_downtime_is_far_below_the_idle_timeout(self):
        tb, svc = _deployed_testbed()
        outcome = tb.env.run(
            until=tb.sites[1].manager.request_migration(svc.name, tb.sites[0].name)
        )
        idle = tb.sites[0].controller.flow_memory.idle_timeout_s
        assert outcome.downtime_s < idle / 50

    def test_active_workload_sees_zero_errors_across_the_flip(self):
        tb, svc = _deployed_testbed()
        site0, site1 = tb.sites
        client = site0.clients[0]
        env = tb.env
        results, errors = [], []

        def request_loop():
            while env.now < start + 6.0:
                try:
                    result = yield from tb.http_request(
                        client, svc, NGINX.request, timeout=30.0
                    )
                    results.append(result)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                yield env.timeout(0.05)

        start = env.now
        env.process(request_loop())
        tb.settle(0.3)  # a few requests land pre-migration
        assert site1.manager is not None
        done = site1.manager.request_migration(svc.name, "site0")
        env.run(until=done)
        tb.settle(8.0)  # rest of the loop + drain
        assert not errors
        assert len(results) > 50
        assert all(r.response.ok for r in results)
        # Continuity was preserved by drains + queueing, not by luck:
        # the flip happened while the loop was running.
        assert done.value.completed

    def test_migration_to_site_already_running_takes_the_short_path(self):
        tb, svc = _deployed_testbed()
        site0, site1 = tb.sites
        # Deploy at site1 too, via its own client.
        tb.run_request(site1.clients[0], svc, NGINX.request)
        tb.settle(12.0)
        assert site1.cluster.is_running(svc.plan)
        outcome = tb.env.run(
            until=site1.manager.request_migration(svc.name, site0.name)
        )
        assert outcome.completed
        assert outcome.bytes_moved == 0  # no transfer needed
        tb.settle(2 * DRAIN_S)
        assert not site0.cluster.is_running(svc.plan)  # still released

    def test_third_site_flows_heal_through_replicated_withdrawal(self):
        tb = FederatedTestbed(FederationConfig(n_sites=3))
        svc = tb.register_template(NGINX)
        site0, site1, site2 = tb.sites
        # site2's client gets cross-site pinned to site0's instance.
        tb.run_request(site0.clients[0], svc, NGINX.request)
        tb.settle(12.0)
        tb.settle_replication()
        tb.run_request(site2.clients[0], svc, NGINX.request)
        flow = site2.controller.flow_memory.lookup(site2.clients[0].ip, svc)
        assert flow is not None and flow.cluster_name == "site0/site0-docker"
        # Migrate site0 -> site1; site2 only hears about it through
        # the replicated records.
        outcome = tb.env.run(
            until=site1.manager.request_migration(svc.name, site0.name)
        )
        assert outcome.completed
        tb.settle_replication()
        tb.settle(2 * DRAIN_S)
        healed = site2.controller.flow_memory.lookup(site2.clients[0].ip, svc)
        assert healed is not None
        # The re-dispatch ran the full scheduler from site2's view: it
        # either follows the instance to site1 or — better — deploys
        # locally.  Either way the withdrawn pin is gone.
        assert healed.cluster_name != "site0/site0-docker"
        # And the healed resolution actually serves.
        result = tb.run_request(site2.clients[0], svc, NGINX.request)
        assert result.response.ok

    def test_migration_metrics_are_recorded(self):
        tb, svc = _deployed_testbed()
        tb.env.run(
            until=tb.sites[1].manager.request_migration(svc.name, tb.sites[0].name)
        )
        counters = tb.recorder.counters("migrations")
        assert counters.get("migrations_started/site1") == 1
        assert counters.get("migrations_completed/site1") == 1
        assert counters.get("migrations_released/site0") == 1
        assert tb.recorder.samples("migration/bytes_moved")
        assert tb.recorder.samples("migration/downtime_s")

    def test_unknown_service_aborts_in_admission(self):
        tb = FederatedTestbed(FederationConfig(n_sites=2))
        manager = tb.sites[1].manager
        assert manager is not None
        done = manager.request_migration("no-such-service", "site0")
        outcome = tb.env.run(until=done)
        assert not outcome.completed
        assert outcome.failed_phase == "admission"


# ---------------------------------------------------------------------------
# Planner under concurrency
# ---------------------------------------------------------------------------


class TestPlanner:
    def test_concurrent_migrations_respect_the_trunk_budget(self):
        tb = FederatedTestbed(FederationConfig(n_sites=3))
        site0, site1, site2 = tb.sites
        svc_a = tb.register_template(ASM)
        svc_b = tb.register_template(NGINX)
        for svc, template in ((svc_a, ASM), (svc_b, NGINX)):
            tb.run_request(site0.clients[0], svc, template.request)
        tb.settle(12.0)
        tb.settle_replication()
        assert site0.cluster.is_running(svc_a.plan)
        assert site0.cluster.is_running(svc_b.plan)
        # Two concurrent inbound migrations pulling from site0: both
        # planners share the ledger, so site0's trunk budget is a
        # global constraint.
        done_a = site1.manager.request_migration(svc_a.name, "site0")
        done_b = site2.manager.request_migration(svc_b.name, "site0")
        tb.env.run(until=done_a)
        tb.env.run(until=done_b)
        assert done_a.value.completed and done_b.value.completed
        assert tb.ledger.oversubscriptions() == []
        # The trunk budget (40% of 10 Gbps) admits both 2 Gbps
        # transfers at once; the trace must show the joint commitment.
        peak = max(c for (_, link, c) in tb.ledger.trace if link == "trunk:site0")
        assert peak == 2 * MigrationPolicy().rate_bps

    def test_smallest_checkpoint_first_ordering(self):
        tb = FederatedTestbed(FederationConfig(n_sites=2))
        site0, site1 = tb.sites
        svc_small = tb.register_template(ASM)
        svc_big = tb.register_template(NGINX)
        for svc, template in ((svc_big, NGINX), (svc_small, ASM)):
            tb.run_request(site0.clients[0], svc, template.request)
        tb.settle(12.0)
        # Shrink the budget so only one migration fits at a time.
        tb.ledger.capacity_bps = MigrationPolicy().rate_bps
        # Submit big first; SJF must still run the small one first.
        done_big = site1.manager.request_migration(svc_big.name, "site0")
        done_small = site1.manager.request_migration(svc_small.name, "site0")
        tb.env.run(until=done_big)
        tb.env.run(until=done_small)
        assert done_big.value.completed and done_small.value.completed
        assert site1.manager.planner.deferred >= 1
        assert done_small.value.started_at < done_big.value.started_at or (
            done_small.value.total_s < done_big.value.total_s
        )
        first_done = min(
            (o for o in site1.manager.outcomes),
            key=lambda o: o.started_at + o.total_s,
        )
        assert first_done.service_name == svc_small.name
        assert tb.ledger.oversubscriptions() == []

    def test_daemon_rejects_unknown_paths(self):
        tb, svc = _deployed_testbed()
        site0 = tb.sites[0]
        client = site0.clients[0]

        def probe():
            result = yield from client.http_request(
                site0.egs.ip,
                MIGRATION_PORT,
                HTTPRequest("GET", "/not/migrate"),
                timeout=5.0,
            )
            return result

        proc = tb.env.process(probe())
        result = tb.env.run(until=proc)
        assert result.response.status == 404

    def test_malformed_release_begins_no_export(self):
        tb, svc = _deployed_testbed()
        site0 = tb.sites[0]
        client = site0.clients[0]

        def probe():
            result = yield from client.http_request(
                site0.egs.ip,
                MIGRATION_PORT,
                HTTPRequest("POST", f"/migrate/release/{svc.name}?site=site1"),
                timeout=5.0,
            )
            return result

        result = tb.env.run(until=tb.env.process(probe()))
        assert result.response.status == 400
        # Nothing would ever release or drop an export begun here.
        assert site0.manager.export_count() == 0


# ---------------------------------------------------------------------------
# The M1 experiment end to end
# ---------------------------------------------------------------------------


def test_m1_experiment_rows_meet_the_acceptance_criteria():
    from repro.experiments import run_extension_m1_migration

    result = run_extension_m1_migration(n_clients=4)
    rows = {row[0]: dict(zip(result.headers, row)) for row in result.rows}
    pre, stop = rows["storm precopy"], rows["storm stopcopy"]
    assert pre["availability"] == stop["availability"] == 1.0
    assert pre["downtime_s"] < stop["downtime_s"]
    assert rows["planner batch x3"]["deferred"] >= 1
    assert all(row["oversub"] == 0 for row in rows.values())
