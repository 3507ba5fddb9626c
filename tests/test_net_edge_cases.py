"""Edge cases of the host/TCP/HTTP model and the SDN framework."""

from __future__ import annotations

import pytest

from repro.net import ConnectionTimeout, HTTPRequest
from repro.net.host import ConnectionReset
from repro.net.openflow import FlowEntry, FlowMatch, Output
from repro.net.packet import HTTPResponse, TCPFlags
from repro.observe import tap
from repro.sim import Environment

from tests.nethelpers import EchoApp, MiniNet, run_request


class TestConnectionEdgeCases:
    def _pair(self):
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        net.wire(a, b)
        return env, a, b

    def test_port_closed_between_handshake_and_request(self):
        """The paper's §VI warning: 'with the port still closed, the
        server would reject the client's request' — also true if it
        closes right after the handshake."""
        env, a, b = self._pair()
        b.open_port(80, EchoApp(env))

        def go(env):
            conn = yield from a.connect(b.ip, 80)
            b.close_port(80)
            conn.send_payload(HTTPRequest("GET", "/"), 200)
            try:
                yield from conn.recv(timeout=2.0)
            except ConnectionReset:
                return "reset"
            return "ok"

        proc = env.process(go(env))
        assert env.run(until=proc) == "reset"

    def test_send_on_closed_connection_raises(self):
        env, a, b = self._pair()
        b.open_port(80, EchoApp(env))

        def go(env):
            conn = yield from a.connect(b.ip, 80)
            conn.close()
            with pytest.raises(ConnectionReset):
                conn.send_payload("x", 10)
            return True

        proc = env.process(go(env))
        assert env.run(until=proc) is True

    def test_recv_timeout(self):
        env, a, b = self._pair()
        b.open_port(80, EchoApp(env))

        def go(env):
            conn = yield from a.connect(b.ip, 80)
            try:
                yield from conn.recv(timeout=0.5)
            except ConnectionTimeout:
                return env.now
            return None

        proc = env.process(go(env))
        t = env.run(until=proc)
        assert t is not None and t >= 0.5

    def test_handler_response_after_client_close_is_dropped(self):
        env, a, b = self._pair()
        b.open_port(80, EchoApp(env, service_time=1.0))
        arrived = []
        tap(a, "receive", lambda p, i: arrived.append(p.tcp.payload))

        def go(env):
            conn = yield from a.connect(b.ip, 80)
            conn.send_payload(HTTPRequest("GET", "/"), 200)
            yield env.timeout(0.1)
            conn.close()  # client gives up before the response
            yield env.timeout(5.0)
            return conn

        proc = env.process(go(env))
        conn = env.run(until=proc)  # nothing blows up
        # The response did come, met no connection and went nowhere.
        assert isinstance(arrived[-1], HTTPResponse)
        assert conn._inbox is None and conn._reader is None

    def test_crash_resets_a_reader_blocked_in_recv(self):
        """``Host.crash`` fails over every connection of the host: a
        process blocked in ``recv`` gets the reset (through the heap —
        the crash goes on to the next connection), and a connection
        nobody was reading finds it queued."""
        env, a, b = self._pair()
        b.open_port(80, EchoApp(env))
        outcome = []

        def reader(env):
            conn = yield from a.connect(b.ip, 80)
            try:
                yield from conn.recv()
            except ConnectionReset as exc:
                outcome.append((env.now == 1.0, "blocked", str(exc)))

        def sleeper(env):
            conn = yield from a.connect(b.ip, 80)
            yield env.timeout(2.0)
            assert not conn.established
            try:
                yield from conn.recv()
            except ConnectionReset as exc:
                outcome.append((env.now > 2.0, "queued", str(exc)))

        env.process(reader(env))
        env.process(sleeper(env))
        env.call_at(1.0, a.crash)
        env.run()
        assert outcome == [
            (True, "blocked", "a crashed"),
            (True, "queued", "a crashed"),
        ]

    def test_one_shot_request_frees_both_halves(self):
        """``http_request`` half-closes with its request (FIN); the server
        answers with FIN and frees its half.  A request sent without FIN
        (keep-alive) leaves the connection open at both ends."""
        env, a, b = self._pair()
        b.open_port(80, EchoApp(env))
        flags = []
        tap(a, "receive", lambda p, i: flags.append(p.tcp.flags))
        assert run_request(env, a, b.ip, 80).response.status == 200
        assert flags[-1] & TCPFlags.FIN  # the response
        assert a._connections == b._connections == {}

        def keep_alive(env):
            conn = yield from a.connect(b.ip, 80)
            conn.send_payload(HTTPRequest("GET", "/"), 200)
            yield from conn.recv(timeout=2.0)
            return conn

        conn = env.run(until=env.process(keep_alive(env)))
        assert not flags[-1] & TCPFlags.FIN
        assert list(a._connections) == list(b._connections) == [conn.conn_id]

    def test_half_closed_request_to_a_closed_port_frees_the_server_half(self):
        env, a, b = self._pair()
        b.open_port(80, EchoApp(env))

        def go(env):
            conn = yield from a.connect(b.ip, 80)
            b.close_port(80)
            conn.send_payload(HTTPRequest("GET", "/"), 200, fin=True)
            with pytest.raises(ConnectionReset):
                yield from conn.recv(timeout=2.0)
            return True

        assert env.run(until=env.process(go(env))) is True
        assert b._connections == {}

    def test_many_sequential_requests_reuse_ports_safely(self):
        env, a, b = self._pair()
        app = EchoApp(env)
        b.open_port(80, app)
        for _ in range(50):
            result = run_request(env, a, b.ip, 80)
            assert result.response.status == 200
        assert len(app.requests_seen) == 50

    def test_two_servers_same_port_different_hosts(self):
        env = Environment()
        net = MiniNet(env)
        a, b, c = net.host("a"), net.host("b"), net.host("c")
        sw = net.switch()
        pa = net.attach(sw, a)
        pb = net.attach(sw, b)
        pc = net.attach(sw, c)
        for host, port in ((a, pa), (b, pb), (c, pc)):
            sw.table.install(
                FlowEntry(FlowMatch(ip_dst=host.ip), [Output(port)]), 0.0
            )
        b.open_port(80, EchoApp(env, body_bytes=1))
        c.open_port(80, EchoApp(env, body_bytes=2))
        r1 = run_request(env, a, b.ip, 80)
        r2 = run_request(env, a, c.ip, 80)
        assert r1.response.body_bytes == 1
        assert r2.response.body_bytes == 2

    def test_the_handshake_ack_rides_on_the_request(self):
        """The handshake's last ACK is not a segment of its own: it rides
        on the request, which carries the ACK flag (RFC 9293 §3.5 lets
        the third segment carry data).  A warm one-shot request is 4
        segments through the switch — SYN, SYN-ACK, the request
        (``PSH|ACK|FIN``) and the response — and after the SYN the
        server receives no segment without a payload.  A port probe — a
        connect closed unused — sends the SYN only."""
        env = Environment()
        net = MiniNet(env)
        a, b = net.host("a"), net.host("b")
        sw = net.switch()
        pa, pb = net.attach(sw, a), net.attach(sw, b)
        for host, port in ((a, pa), (b, pb)):
            sw.table.install(
                FlowEntry(FlowMatch(ip_dst=host.ip), [Output(port)]), 0.0
            )
        b.open_port(80, EchoApp(env))
        through = []
        tap(
            sw,
            "_pipeline",
            lambda packet, in_port: through.append(
                (in_port, packet.tcp.flags, type(packet.tcp.payload))
            ),
        )
        at_server = []
        tap(b, "receive", lambda p, i: at_server.append(p.tcp))

        assert run_request(env, a, b.ip, 80).response.status == 200
        data = TCPFlags.PSH | TCPFlags.ACK | TCPFlags.FIN
        assert through == [
            (pa, TCPFlags.SYN, type(None)),
            (pb, TCPFlags.SYN | TCPFlags.ACK, type(None)),
            (pa, data, HTTPRequest),
            (pb, data, HTTPResponse),
        ]
        assert at_server[0].flags == TCPFlags.SYN
        assert all(seg.payload is not None for seg in at_server[1:])

        del through[:]

        def probe(env):
            conn = yield from a.connect(b.ip, 80, timeout=1.0)
            conn.close()

        env.run(until=env.process(probe(env)))
        assert [flags for port, flags, _ in through if port == pa] == [TCPFlags.SYN]


class TestSDNFramework:
    def test_barrier_multiple_outstanding(self):
        from repro.sdnfw import SDNApp

        env = Environment()
        net = MiniNet(env)
        sw = net.switch()
        app = SDNApp(env)
        dp = app.attach(sw)
        fired = []

        def go(env):
            first = dp.barrier()
            second = dp.barrier()
            yield first
            fired.append("first")
            yield second
            fired.append("second")

        env.process(go(env))
        env.run(until=1.0)
        assert fired == ["first", "second"]

    def test_multiple_datapaths_dispatch_independently(self):
        from repro.net.openflow import PacketIn
        from repro.sdnfw import SDNApp

        env = Environment()
        net = MiniNet(env)
        sw1, sw2 = net.switch("s1", 1), net.switch("s2", 2)

        seen = []

        class App(SDNApp):
            def on_packet_in(self, datapath, message):
                seen.append(datapath.id)

        app = App(env)
        app.attach(sw1)
        app.attach(sw2)
        host1, host2 = net.host("h1"), net.host("h2")
        net.attach(sw1, host1)
        net.attach(sw2, host2)
        # Table-miss SYNs punt to the controller from both switches;
        # the connects themselves time out (nobody answers).
        def try_connect(env, src, dst):
            try:
                yield from src.connect(dst.ip, 80, timeout=0.2)
            except ConnectionTimeout:
                pass

        env.process(try_connect(env, host1, host2))
        env.process(try_connect(env, host2, host1))
        env.run(until=2.0)
        assert sorted(seen) == [1, 2]
