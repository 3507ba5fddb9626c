"""Tests for addressing, links, and the host TCP/HTTP model."""

from __future__ import annotations

import pickle

import pytest

from repro.cluster import ServiceEndpoint
from repro.net import (
    ConnectionRefused,
    ConnectionTimeout,
    HTTPRequest,
    IPv4Address,
    Link,
)
from repro.net.addressing import IPAllocator
from repro.net.packet import HEADER_BYTES, HTTPResponse, Packet, TCPFlags, TCPSegment
from repro.observe import tap
from repro.sim import Environment

from tests.nethelpers import EchoApp, MiniNet, run_request


class TestAddressing:
    def test_ipv4_parse_and_str(self):
        ip = IPv4Address.parse("192.168.1.42")
        assert str(ip) == "192.168.1.42"
        assert ip == (192 << 24) | (168 << 16) | (1 << 8) | 42

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"])
    def test_ipv4_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            IPv4Address.parse(bad)

    def test_ipv4_out_of_range_rejected(self):
        for bad in (-1, 2**32):
            with pytest.raises(ValueError):
                IPv4Address(bad)

    def test_ipv4_ordering_and_hash(self):
        a, b = IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2")
        assert a < b
        assert len({a, IPv4Address.parse("10.0.0.1")}) == 1

    def test_ipv4_is_its_int(self):
        """The hash is the 32-bit value, as it was before the address
        was an ``int``: address-keyed dicts and sets iterate unchanged."""
        ip = IPv4Address.parse("10.0.0.7")
        assert hash(ip) == int(ip) == (10 << 24) | 7
        assert IPv4Address.parse("0.0.0.5") == 5
        assert type(ip + 1) is int

    def test_ipv4_prints_dotted(self):
        ip = IPv4Address.parse("10.1.2.3")
        assert str(ip) == f"{ip}" == "%s" % ip == "10.1.2.3"
        assert repr(ip) == "IPv4Address('10.1.2.3')"

    def test_ipv4_pickles_as_itself(self):
        """The sharded kernel pickles packets across its pipes."""
        ip = IPv4Address.parse("10.0.0.1")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(ip, protocol))
            assert type(back) is IPv4Address and back == ip

    def test_service_endpoint_is_its_tuple(self):
        ip = IPv4Address.parse("10.0.0.1")
        endpoint = ServiceEndpoint(ip, 80)
        assert str(endpoint) == f"{ip}:80" == "10.0.0.1:80"
        assert endpoint == (ip, 80) and tuple(endpoint) == (ip, 80)
        assert endpoint < ServiceEndpoint(ip, 81)
        back = pickle.loads(pickle.dumps(endpoint))
        assert type(back) is ServiceEndpoint and back == endpoint

    def test_allocators_are_sequential_and_unique(self):
        ips = IPAllocator("10.1.0.0")
        a, b = ips.allocate(), ips.allocate()
        assert str(a) == "10.1.0.1" and str(b) == "10.1.0.2"


class TestPacket:
    def test_wire_size_includes_headers(self):
        env = Environment()
        seg = TCPSegment(1, 2, TCPFlags.SYN, payload_bytes=100)
        pkt = Packet(
            ip_src=IPv4Address.parse("10.0.0.1"),
            ip_dst=IPv4Address.parse("10.0.0.2"),
            tcp=seg,
        )
        assert pkt.wire_size == HEADER_BYTES + 100

    def test_http_sizes(self):
        req = HTTPRequest("POST", "/classify", body_bytes=85000, header_bytes=200)
        assert req.total_bytes == 85200
        resp = HTTPResponse(200, body_bytes=50)
        assert resp.ok and resp.total_bytes == 250
        assert not HTTPResponse(503).ok


class TestLink:
    def test_latency_and_serialization(self):
        """Delivery = serialization (size/bw) + propagation latency."""
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b, bandwidth_bps=1_000_000, latency_s=0.01)  # 1 Mbps, 10 ms

        server_app = EchoApp(env)
        b.open_port(80, server_app)
        proc = env.process(a.connect(b.ip, 80))
        conn = env.run(until=proc)
        # SYN: (66*8/1e6)=0.528ms ser + 10ms prop; SYN-ACK same.
        expected_one_way = 66 * 8 / 1_000_000 + 0.01
        assert env.now == pytest.approx(2 * expected_one_way, rel=1e-6)
        assert conn.established

    def test_bandwidth_serializes_fifo(self):
        """Two back-to-back large packets serialize one after another."""
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b, bandwidth_bps=8_000_000, latency_s=0.0)  # 1 MB/s

        b.open_port(80, EchoApp(env))
        arrivals = []
        tap(b, "receive", lambda packet, iface: arrivals.append(env.now))
        # Send two 10_000-byte bursts immediately.
        for _ in range(2):
            a._send_segment(
                b.ip,
                TCPSegment(1000, 80, TCPFlags.PSH, payload_bytes=10_000 - HEADER_BYTES),
            )
        env.run()
        ser = 10_000 * 8 / 8_000_000
        assert arrivals == pytest.approx([ser, 2 * ser])

    def test_downed_link_drops(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        link = net.wire(a, b)
        link.down = True
        b.open_port(80, EchoApp(env))
        with pytest.raises(ConnectionTimeout):
            proc = env.process(a.connect(b.ip, 80, timeout=1.0))
            env.run(until=proc)

    def test_bad_parameters_rejected(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        with pytest.raises(ValueError):
            Link(env, a.iface, b.iface, bandwidth_bps=0)


class TestTCP:
    def test_connect_refused_on_closed_port(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b)
        with pytest.raises(ConnectionRefused):
            proc = env.process(a.connect(b.ip, 8080))
            env.run(until=proc)

    def test_connect_succeeds_on_open_port(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b)
        b.open_port(8080, EchoApp(env))
        proc = env.process(a.connect(b.ip, 8080))
        conn = env.run(until=proc)
        assert conn.remote_port == 8080

    def test_port_open_close_cycle(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b)
        b.open_port(80, EchoApp(env))
        assert b.port_is_open(80)
        b.close_port(80)
        assert not b.port_is_open(80)
        with pytest.raises(ConnectionRefused):
            proc = env.process(a.connect(b.ip, 80))
            env.run(until=proc)

    def test_double_open_rejected(self):
        env = Environment()
        net = MiniNet(env)
        b = net.host("b")
        b.open_port(80, EchoApp(env))
        with pytest.raises(ValueError):
            b.open_port(80, EchoApp(env))

    def test_ephemeral_ports_distinct(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b)
        b.open_port(80, EchoApp(env))

        def two(env):
            c1 = yield from a.connect(b.ip, 80)
            c2 = yield from a.connect(b.ip, 80)
            return c1, c2

        proc = env.process(two(env))
        c1, c2 = env.run(until=proc)
        assert c1.local_port != c2.local_port


class TestHTTP:
    def test_request_response_round_trip(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b)
        app = EchoApp(env, body_bytes=1234)
        b.open_port(80, app)
        result = run_request(env, a, b.ip, 80)
        assert result.response.status == 200
        assert result.response.body_bytes == 1234
        assert len(app.requests_seen) == 1
        assert result.time_total > result.time_connect > 0

    def test_time_total_includes_service_time(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b, latency_s=0.001)
        b.open_port(80, EchoApp(env, service_time=0.5))
        result = run_request(env, a, b.ip, 80)
        assert result.time_total > 0.5
        assert result.time_connect < 0.01

    def test_large_payload_costs_bandwidth(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b, bandwidth_bps=8_000_000, latency_s=0.0)  # 1 MB/s
        b.open_port(80, EchoApp(env, body_bytes=0))
        small = run_request(env, a, b.ip, 80, HTTPRequest("GET", "/", body_bytes=0))
        large = run_request(
            env, a, b.ip, 80, HTTPRequest("POST", "/", body_bytes=1_000_000)
        )
        # 1 MB at 1 MB/s adds about a second.
        assert large.time_total - small.time_total == pytest.approx(1.0, rel=0.05)

    def test_request_timeout_raised(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b)

        class SilentApp:
            def __init__(self, env):
                self.env = env

            def handle(self, request):
                yield self.env.timeout(1e9)  # effectively never responds
                return HTTPResponse(200)

        b.open_port(80, SilentApp(env))
        with pytest.raises(ConnectionTimeout):
            run_request(env, a, b.ip, 80, timeout=2.0)

    def test_short_recv_guard_fires_at_exactly_now_plus_delay(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b)
        b.open_port(80, EchoApp(env))

        def go(env):
            conn = yield from a.connect(b.ip, 80)
            started = env.now
            with pytest.raises(ConnectionTimeout):
                yield from conn.recv(timeout=0.25)  # nothing was asked
            return started, env.now

        started, failed = env.run_process(go(env))
        assert started > 0
        assert failed == started + 0.25

    def test_concurrent_clients_isolated(self):
        env = Environment()
        net = MiniNet(env)
        server = net.host("server")
        clients = [net.host(f"c{i}") for i in range(5)]
        sw = net.switch()
        sport = net.attach(sw, server)
        # Plain forwarding rules: to server / back to each client.
        from repro.net.openflow import FlowEntry, FlowMatch, Output

        for c in clients:
            cport = net.attach(sw, c)
            sw.table.install(
                FlowEntry(FlowMatch(ip_dst=c.ip), [Output(cport)], priority=1), 0.0
            )
        sw.table.install(
            FlowEntry(FlowMatch(ip_dst=server.ip), [Output(sport)], priority=1), 0.0
        )
        server.open_port(80, EchoApp(env, service_time=0.01))

        results = {}

        def one(env, c):
            r = yield from c.http_request(server.ip, 80, HTTPRequest("GET", "/"))
            results[c.name] = r.response.status

        for c in clients:
            env.process(one(env, c))
        env.run(until=10.0)
        assert results == {f"c{i}": 200 for i in range(5)}
