"""Tests for the OpenFlow data plane and the SDN app framework."""

from __future__ import annotations

import pytest

from repro.net import IPv4Address
from repro.net.openflow import (
    Drop,
    FlowEntry,
    FlowMatch,
    FlowMod,
    FlowRemoved,
    Output,
    PacketIn,
    SetField,
    ToController,
)
from repro.net.openflow.switch import ControlChannel
from repro.net.openflow.table import FlowTable
from repro.net.packet import Packet, TCPFlags, TCPSegment
from repro.observe import tap
from repro.sdnfw import SDNApp
from repro.sim import Environment

from tests.flowtable_oracle import earliest_deadline, matches, sweep_expired, touch
from tests.nethelpers import EchoApp, MiniNet, record_popped_entries, run_request


def _packet(src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=80):
    return Packet(
        ip_src=IPv4Address.parse(src),
        ip_dst=IPv4Address.parse(dst),
        tcp=TCPSegment(sport, dport, TCPFlags.SYN),
    )


class TestFlowMatch:
    def test_wildcard_matches_everything(self):
        assert matches(FlowMatch(), _packet())

    def test_exact_fields(self):
        m = FlowMatch(ip_dst=IPv4Address.parse("10.0.0.2"), tcp_dst=80)
        assert matches(m, _packet())
        assert not matches(m, _packet(dport=443))
        assert not matches(m, _packet(dst="10.0.0.9"))

class TestFlowTable:
    def test_priority_order(self):
        table = FlowTable()
        low = FlowEntry(FlowMatch(), [Drop()], priority=1)
        high = FlowEntry(FlowMatch(tcp_dst=80), [Output(1)], priority=10)
        table.install(low, 0.0)
        table.install(high, 0.0)
        assert table.lookup(_packet(dport=80)) is high
        assert table.lookup(_packet(dport=22)) is low

    def test_tie_broken_by_install_order(self):
        table = FlowTable()
        first = FlowEntry(FlowMatch(), [Drop()], priority=5)
        second = FlowEntry(FlowMatch(), [Output(1)], priority=5)
        table.install(first, 0.0)
        table.install(second, 0.0)
        assert table.lookup(_packet()) is first

    def test_miss_returns_none(self):
        table = FlowTable()
        table.install(FlowEntry(FlowMatch(tcp_dst=443), [Drop()]), 0.0)
        assert table.lookup(_packet(dport=80)) is None

    def test_idle_timeout_expiry(self):
        table = FlowTable()
        entry = FlowEntry(FlowMatch(), [Drop()], idle_timeout=5.0)
        table.install(entry, 0.0)
        assert sweep_expired(table, 4.0) == []
        touch(entry, 4.0)
        assert sweep_expired(table, 8.0) == []  # used at t=4, idle until 9
        assert sweep_expired(table, 9.5) == [entry]
        assert len(table) == 0

    def test_zero_timeout_never_expires(self):
        table = FlowTable()
        entry = FlowEntry(FlowMatch(), [Drop()])
        table.install(entry, 0.0)
        assert sweep_expired(table, 1e9) == []

    def test_remove_matching_by_cookie(self):
        table = FlowTable()
        a = FlowEntry(FlowMatch(tcp_dst=80), [Drop()], cookie="svc-a")
        b = FlowEntry(FlowMatch(tcp_dst=81), [Drop()], cookie="svc-b")
        table.install(a, 0.0)
        table.install(b, 0.0)
        removed = table.remove_matching(cookie="svc-a")
        assert removed == [a] and len(table) == 1

class TestFusedSweep:
    """``sweep_and_deadline`` is ``sweep_expired`` + ``earliest_deadline``
    in one pass; the two-pass pair (``tests/flowtable_oracle.py``) is
    the reference."""

    @staticmethod
    def _populated_table(n: int = 400) -> tuple[FlowTable, list[FlowEntry]]:
        table = FlowTable()
        entries = []
        for i in range(n):
            entry = FlowEntry(
                FlowMatch(tcp_dst=1024 + i),
                [Drop()],
                # Mix of idle timeouts and immortal entries.
                idle_timeout=float(i % 7) if i % 3 else 0.0,
                priority=i % 4,
            )
            table.install(entry, i * 0.01)
            if i % 5 == 0:
                touch(entry, i * 0.01 + 0.5)
            entries.append(entry)
        return table, entries

    def test_matches_two_pass_reference(self):
        now = 5.0
        fused_table, _ = self._populated_table()
        ref_table, _ = self._populated_table()
        expired, earliest = fused_table.sweep_and_deadline(now)
        ref_expired = sweep_expired(ref_table, now)

        assert earliest == earliest_deadline(ref_table)
        assert [e.match.tcp_dst for e in expired] == [
            e.match.tcp_dst for e in ref_expired
        ]
        assert expired and len(fused_table) == len(ref_table) > 0


class TestSetField:
    def test_rewrites_ip_and_port(self):
        pkt = _packet()
        SetField("ip_dst", IPv4Address.parse("10.9.9.9")).apply(pkt)
        SetField("tcp_dst", 8080).apply(pkt)
        assert str(pkt.ip_dst) == "10.9.9.9"
        assert pkt.tcp.dst_port == 8080

    def test_type_checked(self):
        with pytest.raises(TypeError):
            SetField("ip_dst", "10.0.0.1").apply(_packet())
        with pytest.raises(ValueError):
            SetField("nonsense", 1)


class _RecordingApp(SDNApp):
    """Collects packet-in and flow-removed events for assertions."""

    def __init__(self, env):
        super().__init__(env, "recorder")
        self.packet_ins: list[PacketIn] = []
        self.flow_removed: list[FlowRemoved] = []

    def on_packet_in(self, datapath, message):
        self.packet_ins.append(message)

    def on_flow_removed(self, datapath, message):
        self.flow_removed.append(message)


class TestSwitchDataPlane:
    def _topo(self):
        env = Environment()
        net = MiniNet(env)
        client, server = net.host("client"), net.host("server")
        sw = net.switch()
        cport = net.attach(sw, client)
        sport = net.attach(sw, server)
        return env, net, client, server, sw, cport, sport

    def test_forwarding_via_flow_entries(self):
        env, net, client, server, sw, cport, sport = self._topo()
        sw.table.install(
            FlowEntry(FlowMatch(ip_dst=server.ip), [Output(sport)], priority=1), 0.0
        )
        sw.table.install(
            FlowEntry(FlowMatch(ip_dst=client.ip), [Output(cport)], priority=1), 0.0
        )
        server.open_port(80, EchoApp(env))
        result = run_request(env, client, server.ip, 80)
        assert result.response.status == 200
        assert sw.stats["miss"] == 0

    def test_table_miss_without_controller_drops(self):
        env, net, client, server, sw, cport, sport = self._topo()
        server.open_port(80, EchoApp(env))
        with pytest.raises(Exception):
            run_request(env, client, server.ip, 80, timeout=1.0)
        assert sw.stats["miss"] >= 1
        assert sw.stats["drop"] >= 1

    def test_rewrite_redirection_is_transparent(self):
        """Traffic to a 'cloud' IP is rewritten to the edge server and
        back — the client only ever sees the cloud address."""
        env, net, client, edge, sw, cport, eport = self._topo()
        cloud_ip = IPv4Address.parse("203.0.113.10")
        edge.open_port(8080, EchoApp(env))

        sw.table.install(
            FlowEntry(
                FlowMatch(ip_dst=cloud_ip, tcp_dst=80),
                [
                    SetField("ip_dst", edge.ip),
                    SetField("tcp_dst", 8080),
                    Output(eport),
                ],
                priority=10,
            ),
            0.0,
        )
        sw.table.install(
            FlowEntry(
                FlowMatch(ip_src=edge.ip, tcp_src=8080),
                [
                    SetField("ip_src", cloud_ip),
                    SetField("tcp_src", 80),
                    Output(cport),
                ],
                priority=10,
            ),
            0.0,
        )

        syn_ack_sources = []

        def spy(packet, iface):
            if packet.tcp.flags & TCPFlags.SYN:
                syn_ack_sources.append(packet.ip_src)

        tap(client, "receive", spy)
        env.run(until=env.process(client.connect(cloud_ip, 80)))
        # Transparency: the SYN-ACK appeared to come from the cloud IP.
        assert syn_ack_sources == [cloud_ip]

    def test_packet_in_buffers_and_releases(self):
        env, net, client, server, sw, cport, sport = self._topo()
        app = _RecordingApp(env)
        dp = app.attach(sw)
        server.open_port(80, EchoApp(env))

        # Reverse path pre-installed; forward path installed on demand.
        sw.table.install(
            FlowEntry(FlowMatch(ip_dst=client.ip), [Output(cport)], priority=1), 0.0
        )

        class OnDemandApp(_RecordingApp):
            def on_packet_in(self, datapath, message):
                super().on_packet_in(datapath, message)
                datapath.add_flow(
                    FlowMatch(ip_dst=server.ip),
                    [Output(sport)],
                    priority=5,
                    buffer_id=message.buffer_id,
                )

        app2 = OnDemandApp(env)
        # A switch belongs to one controller: rebinding requires detach.
        with pytest.raises(ValueError):
            app2.attach(sw)
        app.detach(sw)
        app2.attach(sw)
        result = run_request(env, client, server.ip, 80)
        assert result.response.status == 200
        # Only the first packet (SYN) was punted; follow-ups hit the flow.
        assert len(app2.packet_ins) == 1

    def test_held_packet_delays_connect(self):
        """Holding the buffered packet for 2 s delays the handshake by 2 s."""
        env, net, client, server, sw, cport, sport = self._topo()
        server.open_port(80, EchoApp(env))
        sw.table.install(
            FlowEntry(FlowMatch(ip_dst=client.ip), [Output(cport)], priority=1), 0.0
        )

        class HoldingApp(SDNApp):
            def on_packet_in(self, datapath, message):
                self.env.process(self._respond_later(datapath, message))

            def _respond_later(self, datapath, message):
                yield self.env.timeout(2.0)
                datapath.add_flow(
                    FlowMatch(ip_dst=server.ip),
                    [Output(sport)],
                    priority=5,
                    buffer_id=message.buffer_id,
                )

        HoldingApp(env).attach(sw)
        result = run_request(env, client, server.ip, 80)
        assert result.time_connect > 2.0
        assert result.response.status == 200

    def test_flow_removed_on_idle_timeout(self):
        env, net, client, server, sw, cport, sport = self._topo()
        app = _RecordingApp(env)
        app.attach(sw)
        sw.table.install(
            FlowEntry(FlowMatch(tcp_dst=80), [Drop()], priority=7, idle_timeout=1.0),
            0.0,
        )
        env.run(until=3.0)
        assert app.flow_removed == [FlowRemoved(FlowMatch(tcp_dst=80), 7)]
        assert len(sw.table) == 0

    def test_flow_mod_delete_notifies(self):
        """A delete's only notice is the barrier behind it: when the reply
        lands, the entries are gone, timed or not, and no FlowRemoved came
        up the channel."""
        env, net, client, server, sw, cport, sport = self._topo()
        app = _RecordingApp(env)
        dp = app.attach(sw)
        dp.add_flow(FlowMatch(tcp_dst=80), [Drop()], idle_timeout=1.0, cookie="doomed")
        dp.add_flow(FlowMatch(tcp_dst=81), [Drop()], cookie="doomed")
        env.run(until=0.1)
        assert len(sw.table) == 2
        seen = []

        def delete_then_barrier():
            dp.delete_flows(cookie="doomed")
            yield dp.barrier()
            seen.append((len(sw.table), len(app.flow_removed)))

        env.process(delete_then_barrier())
        env.run(until=3.0)
        assert seen == [(0, 0)]
        assert app.flow_removed == []

    def test_entries_that_did_not_opt_in_go_silently(self):
        """An entry reports only by idling out, so one with no idle timeout
        never does: it outlives every expiry wake, and a delete of it sends
        nothing.  The timed entry beside it reports once."""
        env, net, client, server, sw, cport, sport = self._topo()
        app = _RecordingApp(env)
        dp = app.attach(sw)
        dp.add_flow(FlowMatch(tcp_dst=80), [Drop()], idle_timeout=1.0, cookie="idle")
        dp.add_flow(FlowMatch(tcp_dst=82), [Drop()], cookie="doomed")
        dp.add_flow(FlowMatch(tcp_dst=83), [Drop()], cookie="kept")
        env.run(until=0.1)
        assert len(sw.table) == 3
        dp.delete_flows(cookie="doomed")
        env.run(until=3.0)
        assert [entry.cookie for entry in sw.table] == ["kept"]
        assert [m.match for m in app.flow_removed] == [FlowMatch(tcp_dst=80)]

    def test_barrier_round_trip(self):
        env, net, client, server, sw, cport, sport = self._topo()
        app = _RecordingApp(env)
        dp = app.attach(sw)
        times = []

        def proc(env):
            yield dp.barrier()
            times.append(env.now)

        env.process(proc(env))
        env.run(until=1.0)
        assert len(times) == 1
        assert times[0] == pytest.approx(2 * 200e-6, rel=0.01)

    def test_to_controller_action_punts(self):
        env, net, client, server, sw, cport, sport = self._topo()
        app = _RecordingApp(env)
        app.attach(sw)
        sw.table.install(
            FlowEntry(FlowMatch(tcp_dst=80), [ToController()], priority=5), 0.0
        )
        def try_connect(env):
            try:
                yield from client.connect(server.ip, 80, timeout=0.5)
            except Exception:
                pass  # expected: the recorder app never releases the packet

        env.process(try_connect(env))
        env.run(until=1.0)
        assert len(app.packet_ins) == 1
        assert app.packet_ins[0].reason == "action"

    def test_flowmod_validation(self):
        with pytest.raises(ValueError):
            FlowMod(command="modify")
        # A delete selects by cookie; without one it would flush a table.
        with pytest.raises(ValueError):
            FlowMod(command="delete")
        with pytest.raises(ValueError):
            FlowMod(command="delete", match=FlowMatch(tcp_dst=80))


class _ChannelEnds:
    """Both ends of a bare control channel: every message handled, as
    ``(instant, direction, message)``; ``echo`` maps a message to one
    the switch end sends down again while it handles the first."""

    def __init__(self, env, latency_s, echo=None):
        self.env = env
        self.handled: list[tuple[float, str, object]] = []
        self.echo = echo or {}
        self.channel = ControlChannel(env, latency_s)
        self.channel.bind(self, self)

    def handle_controller_message(self, message):
        self.handled.append((self.env.now, "down", message))
        if message in self.echo:
            self.channel.send_to_switch(self.echo[message])

    def dispatch_switch_message(self, switch, message):
        self.handled.append((self.env.now, "up", message))


def _channel_entries(popped) -> int:
    return sum(
        getattr(entry, "__name__", "") in ("_deliver_up", "_deliver_down")
        for entry in popped
    )


class TestControlChannel:
    """The channel pipelines, as the TCP connection it models: each
    message lands ``latency_s`` after it was sent, FIFO per direction,
    and what one side sends in one instant lands in one heap entry."""

    def test_flow_mods_sent_in_one_instant_land_together(self, monkeypatch):
        env = Environment()
        sw = MiniNet(env).switch()
        dp = _RecordingApp(env).attach(sw, latency_s=200e-6)
        handled = []
        tap(
            sw,
            "handle_controller_message",
            lambda message: handled.append((env.now, message.cookie)),
        )
        popped = record_popped_entries(monkeypatch)

        def burst():
            for k in range(4):
                dp.add_flow(FlowMatch(tcp_dst=80 + k), [Drop()], cookie=k)

        env.call_at(0.001, burst)
        env.run()
        assert handled == [(0.001 + 200e-6, k) for k in range(4)]
        assert _channel_entries(popped) == 1
        assert len(sw.table) == 4

    def test_messages_sent_at_different_instants_land_at_their_own(self):
        env = Environment()
        ends = _ChannelEnds(env, 200e-6)
        for at, message in ((0.001, "a"), (0.00105, "b"), (0.0011, "c")):
            env.call_at(at, ends.channel.send_to_switch, message)
            env.call_at(at, ends.channel.send_to_controller, message.upper())
        env.run()
        down = [(t, m) for t, d, m in ends.handled if d == "down"]
        up = [(t, m) for t, d, m in ends.handled if d == "up"]
        assert down == [(0.001 + 200e-6, "a"), (0.00105 + 200e-6, "b"), (0.0011 + 200e-6, "c")]
        assert up == [(t, m.upper()) for t, m in down]

    @pytest.mark.parametrize("latency_s", [200e-6, 0.0])
    def test_a_message_sent_inside_a_delivery_rides_behind_its_batch(
        self, monkeypatch, latency_s
    ):
        env = Environment()
        ends = _ChannelEnds(env, latency_s, echo={"a": "c"})
        popped = record_popped_entries(monkeypatch)

        def burst():
            ends.channel.send_to_switch("a")
            ends.channel.send_to_switch("b")

        env.call_at(0.001, burst)
        env.run()
        landed = 0.001 + latency_s
        assert ends.handled == [
            (landed, "down", "a"),
            (landed, "down", "b"),
            (landed + latency_s, "down", "c"),
        ]
        assert _channel_entries(popped) == 2

    def test_barrier_reply_is_handled_after_all_sent_before_it(self, monkeypatch):
        env = Environment()
        sw = MiniNet(env).switch()
        app = _RecordingApp(env)
        dp = app.attach(sw, latency_s=200e-6)
        # Idles out at the expiry wake at 1.0 s, the instant the barrier lands.
        sw.table.install(FlowEntry(FlowMatch(tcp_dst=80), [Drop()], idle_timeout=1.0), 0.0)
        popped = record_popped_entries(monkeypatch)
        replies = []

        def barrier():
            yield dp.barrier()
            replies.append((env.now, len(app.flow_removed)))

        env.call_at(1.0 - 200e-6, env.spawn, barrier())
        env.run()
        # One hop down (the barrier), one hop up (the FlowRemoved the
        # wake sent, then the reply, together).
        assert replies == [(1.0 + 200e-6, 1)]
        assert _channel_entries(popped) == 2
