"""Contract tests for the operational REST surface (``repro.ops``).

Five layers of guarantees:

* **route table** — exact-path dispatch: 200s with versioned
  envelopes, 404 for unknown routes, 405 for wrong methods, 400 for
  malformed or unknown query parameters, and the POST registrar
  contract (201 / 400 / 501);
* **read-model snapshots** — frozen views stay byte-stable while the
  dispatch pipeline keeps mutating the live objects underneath;
* **collector math** — delta/rate windows checked against
  hand-computed switch and flow-cookie counters;
* **record rows** — the key sets of the two row families that are a
  state/migration record rendered as is, pinned literally;
* **md5 neutrality** — enabling the ops app and the collector leaves
  the replay and federated latency fingerprints byte-identical (the
  observability plane must not perturb simulated time).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.net.openflow import Drop, FlowEntry, FlowMatch
from repro.net.packet import HTTPRequest
from repro.ops import (
    OPS_PORT,
    SCHEMA_VERSION,
    FlowStatsCollector,
    OpsApp,
)
from repro.services.catalog import NGINX
from repro.sim import Environment
from repro.testbed import (
    C3Testbed,
    FederatedTestbed,
    FederationConfig,
    TestbedConfig,
)

from tests.nethelpers import MiniNet
from tests.replayhelpers import replay_time_totals

ALL_GET_PATHS = [
    "/services",
    "/instances",
    "/flows",
    "/breakers",
    "/migrations",
    "/clusters",
    "/metrics",
    "/metrics/links",
]


def serve(app: OpsApp, method: str, path: str):
    """Drive the app's generator protocol to its returned response."""
    gen = app.handle(HTTPRequest(method, path, body_bytes=0))
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("ops handler blocked on a simulated event")


def http_exchange(tb: C3Testbed, method: str, path: str):
    """One real simulated-HTTP request from a client to the ops app."""
    client = tb.clients[-1]
    proc = tb.env.process(
        client.http_request(
            tb.egs.ip, OPS_PORT, HTTPRequest(method, path, body_bytes=0)
        )
    )
    return tb.env.run(until=proc)


def _testbed() -> tuple[C3Testbed, object]:
    tb = C3Testbed(
        TestbedConfig(cluster_types=("docker",), flow_stats_period_s=0.25)
    )
    svc = tb.register_template(NGINX)
    for client in tb.clients[:2]:
        tb.run_request(client, svc, NGINX.request)
    tb.settle(0.3)
    return tb, svc


@pytest.fixture(scope="module")
def warm():
    """One replayed testbed shared by the read-only route tests."""
    return _testbed()


class TestRouteTable:
    def test_every_family_serves_over_simulated_http(self, warm):
        tb, _ = warm
        for path in ALL_GET_PATHS:
            result = http_exchange(tb, "GET", path)
            assert result.response is not None, path
            assert result.response.status == 200, path
            payload = result.response.payload
            assert payload["schema_version"] == SCHEMA_VERSION, path
            assert payload["site"] == "egs", path

    def test_response_wire_size_matches_encoded_payload(self, warm):
        tb, _ = warm
        result = http_exchange(tb, "GET", "/flows")
        response = result.response
        encoded = json.dumps(
            response.payload, separators=(",", ":"), sort_keys=True
        )
        assert response.body_bytes == len(encoded)

    def test_unknown_route_is_404(self, warm):
        tb, _ = warm
        assert serve(tb.ops_app, "GET", "/nope").status == 404
        assert serve(tb.ops_app, "GET", "/metrics/nope").status == 404
        assert serve(tb.ops_app, "GET", "/").status == 404

    def test_wrong_method_on_known_path_is_405(self, warm):
        tb, _ = warm
        assert serve(tb.ops_app, "PUT", "/services").status == 405
        assert serve(tb.ops_app, "POST", "/flows").status == 405
        assert serve(tb.ops_app, "DELETE", "/metrics/links").status == 405

    def test_wrong_method_on_unknown_path_is_404(self, warm):
        tb, _ = warm
        assert serve(tb.ops_app, "POST", "/nope").status == 404

    def test_malformed_query_pair_is_400(self, warm):
        tb, _ = warm
        assert serve(tb.ops_app, "GET", "/flows?service").status == 400

    def test_unknown_query_param_is_400(self, warm):
        tb, _ = warm
        assert serve(tb.ops_app, "GET", "/services?x=1").status == 400
        assert serve(tb.ops_app, "GET", "/metrics/links?x=1").status == 400
        assert serve(tb.ops_app, "GET", "/breakers?service=a").status == 400

    def test_service_filter_narrows_flows_and_instances(self, warm):
        tb, svc = warm
        hit = serve(tb.ops_app, "GET", f"/flows?service={svc.name}")
        miss = serve(tb.ops_app, "GET", "/flows?service=no-such")
        assert len(hit.payload["flows"]) >= 2
        assert miss.payload["flows"] == []
        hit = serve(tb.ops_app, "GET", f"/instances?service={svc.name}")
        assert all(
            row["service_name"] == svc.name
            for row in hit.payload["instances"]
        )
        assert hit.payload["instances"]

    def test_links_payload_carries_collector_rows(self, warm):
        tb, svc = warm
        payload = serve(tb.ops_app, "GET", "/metrics/links").payload
        links = payload["links"]
        assert [row["link"] for row in links] == ["uplink:egs"]
        assert links[0]["packets_per_s"] > 0
        assert 0 < links[0]["utilization"] < 1
        rates = {row["service_name"] for row in payload["service_rates"]}
        assert svc.name in rates


class TestRegistrar:
    def test_post_registers_template_in_sim(self):
        tb, _ = _testbed()
        before = tb.env.now
        result = http_exchange(tb, "POST", "/services?template=resnet")
        assert result.response.status == 201
        name = result.response.payload["registered"]
        names = [
            row["name"]
            for row in serve(tb.ops_app, "GET", "/services").payload[
                "services"
            ]
        ]
        assert name in names and len(names) == 2
        # Only the HTTP exchange itself consumed simulated time — the
        # registrar hook must not re-enter env.run (no settle inside).
        assert tb.env.now > before

    def test_post_contract_errors(self):
        tb, _ = _testbed()
        assert serve(tb.ops_app, "POST", "/services").status == 400
        assert (
            serve(tb.ops_app, "POST", "/services?template=zzz").status
            == 400
        )
        assert (
            serve(
                tb.ops_app, "POST", "/services?template=resnet&x=1"
            ).status
            == 400
        )

    def test_post_without_registrar_is_501(self):
        tb, _ = _testbed()
        readonly = OpsApp(tb.ops)
        assert serve(readonly, "POST", "/services?template=resnet").status == 501


class TestSnapshots:
    def test_snapshot_stable_while_dispatch_continues(self):
        tb, svc = _testbed()
        snap = tb.ops.snapshot()
        frozen = json.dumps(dataclasses.asdict(snap), sort_keys=True)
        # Keep the world moving: more traffic, more collector windows.
        for client in tb.clients[:3]:
            tb.run_request(client, svc, NGINX.request)
        tb.settle(1.0)
        assert json.dumps(dataclasses.asdict(snap), sort_keys=True) == frozen
        fresh = tb.ops.snapshot()
        assert fresh.now > snap.now
        assert json.dumps(dataclasses.asdict(fresh), sort_keys=True) != frozen

    def test_snapshot_mid_dispatch_is_consistent(self):
        tb = C3Testbed(
            TestbedConfig(
                cluster_types=("docker",), flow_stats_period_s=0.25
            )
        )
        svc = tb.register_template(NGINX)
        # Freeze the world mid-deployment: the first request is held by
        # the controller while the container cold-starts.
        tb.env.process(
            tb.http_request(tb.clients[0], svc, NGINX.request)
        )
        tb.settle(0.5)
        snap = tb.ops.snapshot()
        assert snap.schema_version == SCHEMA_VERSION
        assert [s.name for s in snap.services] == [svc.name]
        # The deployment is in flight: whatever instance rows exist
        # must be well-formed, and the snapshot must round-trip.
        json.dumps(dataclasses.asdict(snap), sort_keys=True)
        tb.settle(10.0)
        done = tb.ops.snapshot()
        assert any(i.running for i in done.instances)


class _FakeLink:
    def __init__(self, bandwidth_bps: float) -> None:
        self.bandwidth_bps = bandwidth_bps


class TestCollectorMath:
    def _collector(self, bandwidth_bps=8e6, **kwargs):
        env = Environment()
        sw = MiniNet(env).switch()
        collector = FlowStatsCollector(
            env,
            "site0",
            sw,
            {"up": _FakeLink(bandwidth_bps)},
            bytes_per_packet=100.0,
            **kwargs,
        )
        return env, sw, collector

    def test_link_rates_match_hand_computed_counters(self):
        env, sw, collector = self._collector()
        outputs = []
        sw.stats["tx"] = 50
        env.call_at(1.0, lambda: outputs.append(collector.collect()))

        def second():
            sw.stats["tx"] = 175  # +125 packets over a 2 s window
            outputs.append(collector.collect())

        env.call_at(3.0, second)
        env.run(until=4.0)

        (first,) = outputs[0]
        # 50 packets / 1 s * 100 B/pkt * 8 = 40 kbit/s on an 8 Mbit/s
        # link -> utilization 0.005.
        assert first.packets_per_s == pytest.approx(50.0)
        assert first.bits_per_s == pytest.approx(40_000.0)
        assert first.utilization == pytest.approx(0.005)
        assert first.window_s == pytest.approx(1.0)

        (second_view,) = outputs[1]
        assert second_view.packets_per_s == pytest.approx(62.5)
        assert second_view.window_s == pytest.approx(2.0)
        assert second_view.observed_at == pytest.approx(3.0)

    def test_zero_bandwidth_reports_zero_utilization(self):
        env, sw, collector = self._collector(bandwidth_bps=0.0)
        sw.stats["tx"] = 10
        outputs = []
        env.call_at(1.0, lambda: outputs.append(collector.collect()))
        env.run(until=1.5)
        ((view,),) = outputs
        assert view.bits_per_s > 0
        assert view.utilization == 0.0

    def test_service_rates_from_cookie_deltas(self):
        env, sw, collector = self._collector()
        entries = {
            "a": FlowEntry(
                FlowMatch(tcp_dst=80), [Drop()],
                cookie="redirect:svcA:10.0.0.9",
            ),
            "b": FlowEntry(
                FlowMatch(tcp_dst=81), [Drop()], cookie="intercept:svcB"
            ),
            "c": FlowEntry(
                FlowMatch(tcp_dst=82), [Drop()], cookie="drain:svcC:old"
            ),
            "x": FlowEntry(
                FlowMatch(tcp_dst=83), [Drop()], cookie="infra:arp"
            ),
            # The same service through another client's cookie, and an
            # entry without one: cookies resolve once, totals still add.
            "a2": FlowEntry(
                FlowMatch(tcp_dst=84), [Drop()],
                cookie="redirect:svcA:10.0.0.10",
            ),
            "n": FlowEntry(FlowMatch(tcp_dst=85), [Drop()]),
        }
        for entry in entries.values():
            sw.table.install(entry, 0.0)
        entries["a"].packet_count = 30
        entries["b"].packet_count = 10
        entries["c"].packet_count = 4
        entries["x"].packet_count = 99  # non-service cookie: ignored
        entries["a2"].packet_count = 5  # idle afterwards
        entries["n"].packet_count = 7  # no cookie: ignored

        env.call_at(1.0, lambda: collector.collect())

        def second():
            entries["a"].packet_count = 44  # +14 over 2 s -> 7 pkt/s
            # svcB idle; svcC's entry total stepped DOWN (expired and
            # re-installed): rate floors at the new total, not negative.
            entries["c"].packet_count = 3
            collector.collect()

        env.call_at(3.0, second)
        env.run(until=3.5)

        rates = {v.service_name: v for v in collector.service_rate_views()}
        assert set(rates) == {"svcA", "svcB", "svcC"}
        assert rates["svcA"].packets_per_s == pytest.approx(14 / 2.0)
        assert rates["svcB"].packets_per_s == 0.0
        assert rates["svcC"].packets_per_s == pytest.approx(3 / 2.0)

    def test_first_window_baselines_at_construction(self):
        env, sw, collector = self._collector()
        results = []
        env.call_at(1.0, lambda: results.append(collector.collect()))
        env.run(until=1.5)
        (view,) = results[0]
        assert view.packets_per_s == 0.0  # tx unchanged since __init__

    def test_zero_width_window_returns_cached_views(self):
        env, sw, collector = self._collector()
        sw.stats["tx"] = 5

        def both():
            first = collector.collect()
            again = collector.collect()  # same instant: no new window
            results.append((first, again, collector.collections))

        results = []
        env.call_at(1.0, both)
        env.run(until=1.5)
        first, again, collections = results[0]
        assert again is first
        assert collections == 1

    def test_periodic_ticks_one_chain(self):
        env, sw, collector = self._collector(period_s=1.0)
        collector.start().start()  # idempotent: one tick chain only
        env.run(until=2.5)
        assert collector.collections == 2

    def test_validation(self):
        env = Environment()
        sw = MiniNet(env).switch()
        with pytest.raises(ValueError):
            FlowStatsCollector(env, "s", sw, {}, period_s=0.0)
        with pytest.raises(ValueError):
            FlowStatsCollector(env, "s", sw, {}, bytes_per_packet=0.0)


class TestFederatedLinkStats:
    def test_link_rows_replicate_across_sites(self):
        tb = FederatedTestbed(
            FederationConfig(
                n_sites=2, clients_per_site=1, flow_stats_period_s=0.5
            )
        )
        site0, site1 = tb.sites
        service = tb.register_template(NGINX)
        tb.run_request(site0.clients[0], service, NGINX.request)
        tb.settle(2.0)
        tb.settle_replication()

        # Each site's read-model sees BOTH trunks: its own local
        # observation plus the remote row that arrived via the hub.
        for site in (site0, site1):
            rows = {(v.site, v.link) for v in site.ops.link_stats()}
            assert rows == {
                ("site0", "trunk:site0"),
                ("site1", "trunk:site1"),
            }

        payload = serve(site0.ops_app, "GET", "/metrics/links").payload
        assert {row["site"] for row in payload["links"]} == {
            "site0",
            "site1",
        }


class TestRecordRows:
    """``/migrations`` and ``/metrics/links`` rows are a record rendered
    by ``dataclasses.asdict``: the record's fields are the wire format."""

    BUMP = "a field was added to the record: bump `SCHEMA_VERSION`"

    def test_migration_row_keys(self):
        tb = FederatedTestbed(FederationConfig(n_sites=2, clients_per_site=1))
        site0, site1 = tb.sites
        service = tb.register_template(NGINX)
        tb.run_request(site0.clients[0], service, NGINX.request)
        tb.settle(12.0)  # background pull + create + scale-up
        outcome = tb.env.run(
            until=site1.manager.request_migration(service.name, site0.name)
        )
        (row,) = serve(site1.ops_app, "GET", "/migrations").payload[
            "migrations"
        ]
        assert set(row) == {
            "service_name",
            "from_site",
            "to_site",
            "mode",
            "started_at",
            "rounds",
            "bytes_moved",
            "bytes_final",
            "downtime_s",
            "total_s",
            "completed",
            "failed_phase",
            "error",
            "rolled_back",
        }, self.BUMP
        assert row["completed"] and row["bytes_moved"] == outcome.bytes_moved
        # The outcome is mutable and the manager's: a snapshot row is a copy.
        (snapshot_row,) = site1.ops.migrations()
        assert snapshot_row is not outcome
        assert dataclasses.asdict(snapshot_row) == dataclasses.asdict(outcome)

    def test_link_row_keys(self, warm):
        tb, _ = warm
        (row,) = serve(tb.ops_app, "GET", "/metrics/links").payload["links"]
        assert set(row) == {
            "site",
            "link",
            "observed_at",
            "window_s",
            "packets_per_s",
            "bits_per_s",
            "utilization",
        }, self.BUMP


class TestMd5Neutrality:
    def test_replay_latencies_identical_with_ops_enabled(self):
        assert replay_time_totals(ops=True) == replay_time_totals(ops=False)

    def test_federation_latencies_identical_with_ops_enabled(self):
        off = replay_time_totals(n_sites=2, ops=False)
        assert replay_time_totals(n_sites=2, ops=True) == off
