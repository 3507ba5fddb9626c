"""Tests for the full-testbed partitioned replay (`repro.sim.parallel.testbed`).

The load-bearing gate: the *real* federated stack — gNB switches, EGS
hosts, Docker clusters, clients, per-site ``SiteController``\\ s, and
hub-replicated shared state — sharded one partition per site must
produce byte-identical latency fingerprints under the forked parallel
coordinator and the single-process serial reference, at 1, 2, 4, and
8 sites.  Alongside it: pickle round-trips for everything that crosses
the fork boundary (the replay plan, packets, replicated state updates),
and the one cut the kernel runs, spelled out channel by channel.
"""

from __future__ import annotations

import pickle

import pytest

from repro.services import DEFAULT_CALIBRATION, build_catalog
from repro.services.behavior import AppFactory
from repro.sim import Environment
from repro.sim.parallel import ParallelCoordinator, SerialExecutor
from repro.sim.parallel.testbed import (
    MAX_CLIENTS_PER_SITE,
    MAX_SITES,
    build_replay,
    build_replay_specs,
    client_ip,
    combined_fingerprint,
    egs_ip,
    service_ip,
    totals,
)
from repro.testbed.site import FederationConfig


def run_replay(replay, parallel: bool = False):
    executor = ParallelCoordinator if parallel else SerialExecutor
    return executor(build_replay_specs(replay)).run(until=replay.horizon_s)


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
        assert serial.stats.rounds == parallel.stats.rounds
        assert serial.stats.payload_rounds == parallel.stats.payload_rounds
        assert 0 < serial.stats.payload_rounds <= serial.stats.rounds
        assert (
            serial.stats.cross_partition_messages
            == parallel.stats.cross_partition_messages
        )

    def test_results_carry_per_site_counters(self):
        replay = _small_replay(2)
        run = run_replay(replay, parallel=False)
        for site in range(2):
            row = run.results[f"site{site}"]
            assert row["issued"] == len(replay.requests_by_site[site])
            assert row["peak_flow_table"] > 0


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
        replay = _small_replay(n_sites)
        # The trunk is the tighter of the two cuts' lookaheads.
        fixed_step_floor = replay.horizon_s / replay.config.trunk_latency_s
        run = run_replay(replay, parallel=False)
        assert run.stats.rounds * 5 <= fixed_step_floor
        # The split is recorded: most surviving rounds carry payload.
        assert 0 < run.stats.payload_rounds <= run.stats.rounds

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


class TestReplaySpecs:
    """The one topology the kernel runs: the backbone, then the sites,
    each joined to it by a data pair (lookahead = trunk latency) and a
    ``#control`` pair (lookahead = propagation delay)."""

    def test_three_site_plan_spelled_out(self):
        config = FederationConfig(
            n_sites=3, trunk_latency_s=0.004, propagation_delay_s=0.03
        )
        specs = build_replay_specs(build_replay(config, n_requests=6))
        got = [
            (
                spec.partition_id,
                spec.index,
                spec.builder.__name__,
                sorted(spec.kwargs),
                [(c.channel_id, c.lookahead_s) for c in spec.out_channels],
                [(c.channel_id, c.lookahead_s) for c in spec.in_channels],
            )
            for spec in specs
        ]
        assert got == [
            (
                "backbone", 0, "build_backbone_partition", ["replay"],
                [
                    ("backbone->site0", 0.004),
                    ("backbone->site0#control", 0.03),
                    ("backbone->site1", 0.004),
                    ("backbone->site1#control", 0.03),
                    ("backbone->site2", 0.004),
                    ("backbone->site2#control", 0.03),
                ],
                [
                    ("site0->backbone", 0.004),
                    ("site0->backbone#control", 0.03),
                    ("site1->backbone", 0.004),
                    ("site1->backbone#control", 0.03),
                    ("site2->backbone", 0.004),
                    ("site2->backbone#control", 0.03),
                ],
            ),
            (
                "site0", 1, "build_site_partition", ["replay", "site"],
                [("site0->backbone", 0.004), ("site0->backbone#control", 0.03)],
                [("backbone->site0", 0.004), ("backbone->site0#control", 0.03)],
            ),
            (
                "site1", 2, "build_site_partition", ["replay", "site"],
                [("site1->backbone", 0.004), ("site1->backbone#control", 0.03)],
                [("backbone->site1", 0.004), ("backbone->site1#control", 0.03)],
            ),
            (
                "site2", 3, "build_site_partition", ["replay", "site"],
                [("site2->backbone", 0.004), ("site2->backbone#control", 0.03)],
                [("backbone->site2", 0.004), ("backbone->site2#control", 0.03)],
            ),
        ]
        assert [spec.kwargs.get("site") for spec in specs] == [None, 0, 1, 2]


class TestKindAwarePartitioner:
    """A data trunk and a control channel share each site/backbone cut,
    told apart by the ``#control`` suffix on the channel id."""

    def test_channel_id_kinds(self):
        specs = build_replay_specs(_small_replay(2))
        ids = {
            c.channel_id
            for spec in specs
            for c in spec.out_channels + spec.in_channels
        }
        data = {i for i in ids if not i.endswith("#control")}
        assert data == {
            "site0->backbone", "backbone->site0",
            "site1->backbone", "backbone->site1",
        }
        assert ids - data == {f"{i}#control" for i in data}

    def test_data_and_control_cut_share_a_pair(self):
        config = FederationConfig(
            n_sites=1, trunk_latency_s=0.002, propagation_delay_s=0.025
        )
        specs = build_replay_specs(build_replay(config, n_requests=2))
        site = next(s for s in specs if s.partition_id == "site0")
        ids = [c.channel_id for c in site.out_channels]
        assert ids == ["site0->backbone", "site0->backbone#control"]
        lookaheads = {c.channel_id: c.lookahead_s for c in site.out_channels}
        assert lookaheads["site0->backbone"] == 0.002
        assert lookaheads["site0->backbone#control"] == 0.025

    def test_zero_latency_error_names_endpoints_and_latency(self):
        # The message alone must identify the offending FederationConfig
        # field, its value, and why zero is refused.
        config = FederationConfig(n_sites=2, propagation_delay_s=0.0)
        with pytest.raises(ValueError) as excinfo:
            build_replay(config, n_requests=2)
        message = str(excinfo.value)
        assert "propagation_delay_s=0.0" in message
        assert "must be positive" in message
        assert "lookahead" in message

    def test_zero_latency_testbed_replay_rejected_eagerly(self):
        # Refused while planning, before any partition is built.
        with pytest.raises(ValueError, match="propagation_delay_s"):
            build_replay(
                FederationConfig(n_sites=2, propagation_delay_s=0.0),
                n_requests=2,
            )
        with pytest.raises(ValueError, match="trunk_latency_s"):
            build_replay(
                FederationConfig(n_sites=2, trunk_latency_s=0.0),
                n_requests=2,
            )
