"""Tests for the full-testbed partitioned replay (`repro.sim.parallel.testbed`).

The load-bearing gate: the *real* federated stack — gNB switches, EGS
hosts, Docker clusters, clients, per-site ``SiteController``\\ s, and
hub-replicated shared state — sharded one partition per site must
produce byte-identical latency fingerprints under the forked parallel
coordinator and the single-process serial reference, at 1, 2, 4, and
8 sites.  Alongside it: pickle round-trips for everything that crosses
the fork boundary (the replay plan, packets, replicated state updates,
fault plans), and the kind-aware
partitioner that lets a data trunk and a control channel share a cut.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.faults import FaultPlan
from repro.services import DEFAULT_CALIBRATION, build_catalog
from repro.services.behavior import AppFactory
from repro.sim import Environment
from repro.sim.parallel import PartitionError
from repro.sim.parallel.partitioner import (
    CutLink,
    NodeSpec,
    channel_id,
    partition_topology,
)
from repro.sim.parallel.testbed import (
    MAX_CLIENTS_PER_SITE,
    MAX_SITES,
    build_migration_replay,
    build_replay,
    client_ip,
    combined_fingerprint,
    egs_ip,
    run_replay,
    service_ip,
    totals,
)
from repro.testbed.site import BACKBONE, FederationConfig


def _small_replay(n_sites: int, seed: int = 42, **kwargs):
    config = FederationConfig(n_sites=n_sites, clients_per_site=2)
    return build_replay(
        config,
        n_requests=kwargs.pop("n_requests", 5 * n_sites),
        duration_s=kwargs.pop("duration_s", 2.5),
        seed=seed,
        **kwargs,
    )


class TestReplayPlan:
    def test_deterministic_and_picklable(self):
        a = _small_replay(2)
        b = _small_replay(2)
        assert a == b  # same seed, same plan — no hidden draws
        assert pickle.loads(pickle.dumps(a)) == a

    def test_request_schedule_shape(self):
        replay = _small_replay(3, n_requests=10)
        assert len(replay.requests_by_site) == 3
        assert sum(len(reqs) for reqs in replay.requests_by_site) == 10
        for site, requests in enumerate(replay.requests_by_site):
            ats = [at for at, _, _, _ in requests]
            assert ats == sorted(ats)
            assert all(at < replay.horizon_s for at in ats)
            for _, client, service, req_id in requests:
                assert 0 <= client < replay.config.clients_per_site
                assert 0 <= service < len(replay.services)
                assert req_id // 1_000_000 == site

    def test_services_register_before_requests(self):
        replay = _small_replay(2)
        first_request = min(
            at for reqs in replay.requests_by_site for at, _, _, _ in reqs
        )
        assert all(s.register_at_s < first_request for s in replay.services)

    def test_addressing_is_disjoint(self):
        ips = [egs_ip(i) for i in range(4)]
        ips += [client_ip(i, j) for i in range(4) for j in range(3)]
        ips += [service_ip(k) for k in range(4)]
        assert len(set(ips)) == len(ips)
        # ... and up to the largest plan build_replay accepts, in the
        # two corners where a /24 could spill into its neighbour.
        last = MAX_CLIENTS_PER_SITE - 1
        for site in (0, MAX_SITES - 2):
            own = {client_ip(site, j) for j in range(MAX_CLIENTS_PER_SITE)}
            assert len(own) == MAX_CLIENTS_PER_SITE
            assert str(client_ip(site, last)) == f"10.0.{site + 1}.254"
            assert egs_ip(site + 1) not in own
            assert client_ip(site + 1, 0) not in own

    @pytest.mark.parametrize(
        "shape, limit",
        [
            ({"n_sites": 2, "clients_per_site": MAX_CLIENTS_PER_SITE + 1}, "245"),
            ({"n_sites": 2, "clients_per_site": 300}, "245"),
            ({"n_sites": MAX_SITES + 1, "clients_per_site": 1}, "254"),
        ],
    )
    def test_plan_beyond_the_address_space_is_rejected(self, shape, limit):
        # client_ip(0, 247) == egs_ip(1) and client_ip(0, 256) ==
        # client_ip(1, 0): such a plan used to be accepted silently.
        config = FederationConfig(**shape)
        with pytest.raises(ValueError, match=f"at most {limit}"):
            build_replay(config, n_requests=4)
        with pytest.raises(ValueError, match=f"at most {limit}"):
            config.testbed_replay(n_requests=4)

    def test_plan_at_the_address_limits_is_accepted(self):
        config = FederationConfig(
            n_sites=MAX_SITES, clients_per_site=MAX_CLIENTS_PER_SITE
        )
        replay = build_replay(config, n_requests=MAX_SITES)
        assert replay.n_sites == MAX_SITES


class TestFullTestbedParity:
    """ISSUE acceptance gate: full FederatedTestbed under the parallel
    kernel at 1/2/4/8 sites, latency md5s byte-identical to serial."""

    @pytest.mark.parametrize("n_sites", [1, 2, 4, 8])
    def test_serial_parallel_byte_identity(self, n_sites):
        replay = _small_replay(n_sites)
        serial = run_replay(replay, parallel=False)
        parallel = run_replay(replay, parallel=True)
        assert combined_fingerprint(serial.results, n_sites) == (
            combined_fingerprint(parallel.results, n_sites)
        )
        counts = totals(serial.results, n_sites)
        assert counts == totals(parallel.results, n_sites)
        assert counts["issued"] == 5 * n_sites
        assert counts["completed"] == counts["issued"]  # all served
        assert parallel.stats.mode == "parallel"
        assert serial.stats.rounds == parallel.stats.rounds
        assert serial.stats.payload_rounds == parallel.stats.payload_rounds
        assert 0 < serial.stats.payload_rounds <= serial.stats.rounds
        assert (
            serial.stats.cross_partition_messages
            == parallel.stats.cross_partition_messages
        )

    def test_faulted_replay_keeps_parity(self):
        # The request window must outlast the first edge deployment so
        # the outage visibly delays warm-up — a short burst is served
        # entirely from the cloud and the fault leaves no fingerprint.
        base = _small_replay(2, seed=7, n_requests=10, duration_s=10.0)
        outage = FaultPlan(seed=7).registry_outage(
            2.0, "docker-hub", 8.0, rate=1.0
        )
        replay = dataclasses.replace(base, faults_by_site=(outage, None))
        serial = run_replay(replay, parallel=False)
        parallel = run_replay(replay, parallel=True)
        faulted = combined_fingerprint(serial.results, 2)
        assert faulted == combined_fingerprint(parallel.results, 2)
        # ... while the outage itself visibly perturbed the timeline.
        clean = run_replay(base, parallel=False)
        assert faulted != combined_fingerprint(clean.results, 2)

    def test_results_carry_per_site_counters(self):
        replay = _small_replay(2)
        run = run_replay(replay, parallel=False)
        for site in range(2):
            row = run.results[f"site{site}"]
            assert row["issued"] == len(replay.requests_by_site[site])
            assert row["peak_flow_table"] > 0


class TestMigrationReplayParity:
    """Live migrations are backbone traffic like any other: a
    migration-heavy replay must stay byte-identical between the serial
    and the sharded executor — request latencies *and* the migration
    outcomes themselves (rounds, bytes moved, downtime)."""

    @pytest.mark.parametrize("n_sites", [2, 4])
    def test_migration_heavy_replay_byte_identity(self, n_sites):
        config = FederationConfig(n_sites=n_sites, clients_per_site=2)
        replay = build_migration_replay(
            config, n_requests=4 * n_sites, duration_s=2.5, seed=42
        )
        assert replay.migrations  # every service moves one site over
        serial = run_replay(replay, parallel=False)
        parallel = run_replay(replay, parallel=True)
        completed = 0
        for site in range(n_sites):
            s = serial.results[f"site{site}"]
            p = parallel.results[f"site{site}"]
            assert s["latency_md5"] == p["latency_md5"]
            assert s["migration_md5"] == p["migration_md5"]
            assert s["migrations_completed"] == p["migrations_completed"]
            assert s["migrations_aborted"] == p["migrations_aborted"]
            completed += s["migrations_completed"]
        # The replay actually migrated — parity of empty traces proves
        # nothing.
        assert completed > 0


class TestAdaptiveRoundCollapse:
    """ISSUE acceptance gate: the adaptive engine must need >= 5x
    fewer rounds than a fixed-step engine on the testbed workload.

    A fixed-step conservative loop advances global time one minimum
    lookahead per round, so ``horizon / min_lookahead`` bounds its
    round count from below (PR 7 measured exactly that: 17001 rounds
    for a 35 s horizon at the 2 ms trunk).  The adaptive engine's
    floor reduction should collapse the idle drain tail to roughly
    one round per timer tick.
    """

    @pytest.mark.parametrize("n_sites", [2, 4])
    def test_rounds_at_least_5x_below_fixed_step(self, n_sites):
        from repro.sim.parallel.testbed import replay_topology

        replay = _small_replay(n_sites)
        fixed_step_floor = (
            replay.horizon_s / replay_topology(replay).min_lookahead_s()
        )
        run = run_replay(replay, parallel=False)
        assert run.stats.rounds * 5 <= fixed_step_floor
        # The split is recorded: most surviving rounds carry payload.
        assert 0 < run.stats.payload_rounds <= run.stats.rounds
        assert run.stats.null_rounds == (
            run.stats.rounds - run.stats.payload_rounds
        )

    def test_control_bounds_piggyback_no_null_doubling(self):
        # Data and control channels between the same pair share the
        # round update; an idle round costs one bound per channel, not
        # a separate null message cadence per kind.  With the fixed
        # 2 ms step this workload recorded >130k nulls at 2 sites.
        run = run_replay(_small_replay(2), parallel=False)
        n_channels = 2 * 2 * 2  # 2 sites x 2 kinds x 2 directions
        assert run.stats.null_messages <= run.stats.rounds * n_channels
        assert "switch_stats" in run.results["backbone"]


class TestForkBoundaryPickling:
    """Everything the site build plan ships across the fork pipe must
    pickle; all of it is plain data."""

    def test_app_factory_round_trip(self):
        factory = AppFactory(handle_time_s=0.004, response_bytes=64, workers=4)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        app = clone(Environment())
        assert app.handle_time_s == 0.004

    def test_fault_plan_round_trip(self):
        plan = (
            FaultPlan(seed=3)
            .registry_outage(1.0, "docker-hub", 5.0, rate=1.0)
            .node_crash(2.0, "site0-egs", duration_s=1.0)
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert list(clone) == list(plan)

    def test_replicated_service_record_round_trip(self):
        # The control channels carry StateUpdates whose service values
        # embed the full deployment plan — AppFactory included.
        from repro.core import Annotator, ServiceRegistry
        from repro.services.catalog import ASM

        images, behaviors = build_catalog(DEFAULT_CALIBRATION)
        registry = ServiceRegistry(Annotator(images, behaviors))
        service = registry.register(
            ASM.definition_yaml, service_ip(0), 80, template_key=ASM.key
        )
        clone = pickle.loads(pickle.dumps(service))
        assert clone.name == service.name
        assert clone.plan.containers[0].app_factory == (
            service.plan.containers[0].app_factory
        )

    def test_state_update_round_trip(self):
        from repro.core.federation.state import VersionStamp

        update = ("instance", ("svc", "site0"), {"cluster": "docker"},
                  VersionStamp(4, "site0"))
        clone = pickle.loads(pickle.dumps(update))
        assert clone == update
        assert isinstance(clone[3], VersionStamp)


class TestKindAwarePartitioner:
    def test_channel_id_kinds(self):
        assert channel_id("a", "b") == "a->b"
        assert channel_id("a", "b", "data") == "a->b"
        assert channel_id("a", "b", "control") == "a->b#control"

    def test_data_and_control_cut_share_a_pair(self):
        nodes = [
            NodeSpec("site0", _NullBuilder, {}),
            NodeSpec(BACKBONE, _NullBuilder, {}),
        ]
        specs = partition_topology(
            nodes,
            [
                CutLink("site0", BACKBONE, 0.002, kind="data"),
                CutLink("site0", BACKBONE, 0.025, kind="control"),
            ],
        )
        site = next(s for s in specs if s.partition_id == "site0")
        ids = [c.channel_id for c in site.out_channels]
        assert ids == ["site0->backbone", "site0->backbone#control"]
        lookaheads = {c.channel_id: c.lookahead_s for c in site.out_channels}
        assert lookaheads["site0->backbone"] == 0.002
        assert lookaheads["site0->backbone#control"] == 0.025

    def test_duplicate_same_kind_rejected_with_kind(self):
        nodes = [
            NodeSpec("a", _NullBuilder, {}),
            NodeSpec("b", _NullBuilder, {}),
        ]
        links = [
            CutLink("a", "b", 0.1, kind="control"),
            CutLink("b", "a", 0.2, kind="control"),
        ]
        with pytest.raises(PartitionError, match=r"kind='control'"):
            partition_topology(nodes, links)

    def test_zero_latency_error_names_endpoints_and_latency(self):
        # Satellite fix: the message alone must identify the offending
        # FederationConfig trunk — both endpoints and the latency.
        nodes = [
            NodeSpec("site3", _NullBuilder, {}),
            NodeSpec(BACKBONE, _NullBuilder, {}),
        ]
        with pytest.raises(PartitionError) as excinfo:
            partition_topology(
                nodes, [CutLink("site3", BACKBONE, 0.0, kind="control")]
            )
        message = str(excinfo.value)
        assert "'site3'" in message
        assert "'backbone'" in message
        assert "0.0" in message
        assert "control" in message
        assert "lookahead" in message

    def test_zero_latency_testbed_replay_rejected_eagerly(self):
        with pytest.raises(PartitionError, match="control"):
            FederationConfig(
                n_sites=2, propagation_delay_s=0.0
            ).testbed_replay(n_requests=2)
        with pytest.raises(PartitionError, match="data"):
            FederationConfig(
                n_sites=2, trunk_latency_s=0.0
            ).testbed_replay(n_requests=2)


def _NullBuilder():  # noqa: N802 - builder stand-in, never called
    raise AssertionError("builder must not run during planning")
