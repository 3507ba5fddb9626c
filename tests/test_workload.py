"""Tests for the bigFlows-like trace generator and timecurl client."""

from __future__ import annotations

import collections
import hashlib
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services.catalog import NGINX
from repro.sim import Environment
from repro.testbed import C3Testbed, TestbedConfig
from repro.workload import (
    BigFlowsParams,
    TimecurlClient,
    TraceDriver,
    generate_trace,
)
from repro.workload.bigflows import (
    RequestEvent,
    first_occurrences,
    requests_per_bucket,
)
from tests.nethelpers import EchoApp, MiniNet, record_popped_entries


class TestBigFlowsTrace:
    def test_paper_marginals(self):
        """42 services, 1708 requests, 300 s, every service >= 20."""
        params = BigFlowsParams()
        events = generate_trace(params, seed=1)
        assert len(events) == 1708
        per_service = {}
        for e in events:
            per_service[e.service_index] = per_service.get(e.service_index, 0) + 1
        assert len(per_service) == 42
        assert min(per_service.values()) >= 20
        assert max(e.time_s for e in events) < 300.0
        assert min(e.time_s for e in events) >= 0.0

    def test_heavy_tailed_counts(self):
        events = generate_trace(seed=2)
        counts = sorted(
            collections.Counter(e.service_index for e in events).values(),
            reverse=True,
        )
        # The hottest service gets several times the minimum.
        assert counts[0] > 3 * counts[-1]

    def test_deterministic_given_seed(self):
        assert generate_trace(seed=7) == generate_trace(seed=7)
        assert generate_trace(seed=7) != generate_trace(seed=8)

    def test_seed_42_trace_is_pinned(self):
        """The paper's trace, digit for digit: any change to the draw
        stream moves this digest (and the replays it feeds)."""
        events = generate_trace(BigFlowsParams(), seed=42)
        rows = [(repr(e.time_s), e.service_index, e.client_index) for e in events]
        digest = hashlib.md5(repr(rows).encode()).hexdigest()
        assert digest == "bfe986cdf0177e6f685ab7bf2e51e13d"

    def test_sorted_by_time(self):
        events = generate_trace(seed=3)
        times = [e.time_s for e in events]
        assert times == sorted(times)

    def test_early_deployment_burst(self):
        """Fig. 10's shape: many first-occurrences in the first seconds."""
        params = BigFlowsParams()
        events = generate_trace(params, seed=4)
        firsts = list(first_occurrences(events).values())
        early = sum(1 for t in firsts if t <= params.early_window_s)
        assert early >= int(0.35 * params.n_services)
        # And a deployment burst: some 1-second bucket sees >= 4 starts.
        buckets = collections.Counter(int(t) for t in firsts)
        assert max(buckets.values()) >= 4

    def test_clients_in_range(self):
        params = BigFlowsParams(n_clients=20)
        events = generate_trace(params, seed=5)
        assert all(0 <= e.client_index < 20 for e in events)
        assert len({e.client_index for e in events}) > 10

    def test_requests_per_bucket_totals(self):
        events = generate_trace(seed=6)
        buckets = requests_per_bucket(events, bucket_s=10.0, duration_s=300.0)
        assert len(buckets) == 30
        assert sum(buckets) == 1708

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BigFlowsParams(n_services=100, n_requests=50)
        with pytest.raises(ValueError):
            BigFlowsParams(min_requests_per_service=100)
        with pytest.raises(ValueError):
            BigFlowsParams(duration_s=0)
        with pytest.raises(ValueError):
            BigFlowsParams(early_fraction=1.5)

    @settings(max_examples=25, deadline=None)
    @given(
        n_services=st.integers(min_value=1, max_value=60),
        extra=st.integers(min_value=0, max_value=2000),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_marginals_property(self, n_services, extra, seed):
        """Counts always sum exactly and respect the minimum."""
        minimum = 5
        params = BigFlowsParams(
            n_services=n_services,
            n_requests=n_services * minimum + extra,
            min_requests_per_service=minimum,
        )
        events = generate_trace(params, seed=seed)
        assert len(events) == params.n_requests
        counts = collections.Counter(e.service_index for e in events)
        assert len(counts) == n_services
        assert min(counts.values()) >= minimum
        assert sum(counts.values()) == params.n_requests


class TestTimecurl:
    def test_fetch_records_time_total(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tc = TimecurlClient(tb.clients[0], tb.recorder)

        proc = tb.env.process(tc.fetch(svc, NGINX.request))
        sample = tb.env.run(until=proc)
        assert sample.ok and sample.status == 200
        assert sample.time_total > sample.time_connect > 0
        assert tb.recorder.samples("time_total/nginx") == [sample.time_total]

    def test_fetch_records_error_on_timeout(self):
        tb = C3Testbed(
            TestbedConfig(cluster_types=("docker",)),
        )
        svc = tb.register_template(NGINX)
        # Sabotage: close the cloud service and never deploy (no images
        # in registries would stall, so instead use a tiny timeout).
        tc = TimecurlClient(tb.clients[0], tb.recorder, timeout_s=0.001)
        proc = tb.env.process(tc.fetch(svc, NGINX.request))
        sample = tb.env.run(until=proc)
        assert not sample.ok
        assert sample.error == "ConnectionTimeout"
        assert tb.recorder.samples("timecurl_errors/nginx") == [1.0]

    def test_fetch_records_error_on_reset(self):
        # The idle-scale-down race: the port closes between the
        # handshake (t = 0.2 ms) and the request's arrival (0.3 ms),
        # so the server answers the request with an RST.
        env = Environment()
        net = MiniNet(env)
        client, server = net.host("client"), net.host("server")
        net.wire(client, server, latency_s=100e-6)
        server.open_port(80, EchoApp(env))
        env.call_at(250e-6, server.close_port, 80)
        svc = types.SimpleNamespace(
            name="echo", cloud_ip=server.ip, port=80, template_key=None
        )
        tc = TimecurlClient(client)

        sample = env.run(until=env.process(tc.fetch(svc)))
        assert not sample.ok
        assert sample.error == "ConnectionReset"
        assert tc.samples == [sample]
        assert tc.recorder.samples("timecurl_errors/echo") == [1.0]


class TestTraceDriver:
    @staticmethod
    def _warm_testbed():
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        assert tb.run_request(tb.clients[0], svc).response.ok  # installs the flows
        return tb, svc

    def test_a_finished_request_costs_no_entry_of_its_own(self, monkeypatch):
        """A replayed warm request pops 9 entries — its 8 link hops
        (4 ``_deliver`` at a host, 4 ``_ingress`` at the switch) and
        the server's service time — plus the pacer's re-arm for the
        next launch instant.  Its process is hot-started and detached
        (no start entry, no completion entry) and is resumed inside the
        ``_deliver`` of the handshake reply and of the response
        (``Event.succeed_tail``): neither resumption is an entry."""
        from repro.sim.process import Process

        tb, svc = self._warm_testbed()
        popped = record_popped_entries(monkeypatch)
        k = 5
        events = [RequestEvent(0.1 * i, service_index=0, client_index=0) for i in range(k)]
        summary = TraceDriver(tb.env, tb.clients, [svc], recorder=tb.recorder).run(events)
        assert summary.n_ok == k

        assert not any(isinstance(entry, Process) for entry in popped)
        names = [getattr(entry, "__name__", type(entry).__name__) for entry in popped]
        assert names.count("_deliver") == names.count("_ingress") == 4 * k
        assert names.count("Timeout") == k  # service time
        assert names.count("StoreGet") == 0
        assert names.count("Event") == 1  # run()'s ``done``
        assert names.count("pace") == k - 1  # the first launch runs inline
        # 9 per request, k - 1 paces and ``done`` make 10 k; what is
        # left is the controller's clockwork (FlowMemory's sweep tick),
        # too little of it to be anything per request.
        assert 0 <= len(popped) - 10 * k < k

    def test_a_request_that_raises_stops_the_run(self, monkeypatch):
        """``fetch`` turns the expected connection errors into samples;
        anything else is a bug and must surface through ``run()``."""
        tb, svc = self._warm_testbed()

        def broken_fetch(self, service, request=None, label=None):
            yield self.host.env.timeout(0.01)
            raise RuntimeError("fetch blew up")

        monkeypatch.setattr(TimecurlClient, "fetch", broken_fetch)
        events = [RequestEvent(0.1 * i, service_index=0, client_index=0) for i in range(3)]
        with pytest.raises(RuntimeError, match="fetch blew up"):
            TraceDriver(tb.env, tb.clients, [svc]).run(events)
