"""A packet's hop through a switch: one heap entry, the two-event timeline.

``LinkEndpoint.transmit`` schedules the switch's ingress — arrival and
table lookup in one entry — and every observable of a conversation
through a real switch must be what the two-event oracle
(``tests/link_oracle.TwoEventEndpoint``: serialization, then arrival
through ``switch.receive``, then the lookup as an event of its own)
produces, float for float: with the table or the link changed between
rounds, with the link cut under a packet in flight, and over a
conversation long enough that only the per-packet ``last_used`` refresh
keeps its flow entry alive.
"""

from __future__ import annotations

import pytest

from repro.net import ConnectionTimeout, HTTPRequest, Link
from repro.net import link as link_module
from repro.net.link import GBPS
from repro.net.openflow import FlowEntry, FlowMatch, Output
from repro.observe import tap
from repro.sim import Environment

from tests.flowtable_oracle import remove
from tests.link_oracle import TwoEventEndpoint
from tests.nethelpers import EchoApp, MiniNet

REQ = HTTPRequest("GET", "/", body_bytes=0)


class _Rig:
    """client — switch — server with directly installed flow entries."""

    def __init__(self, fwd_idle: float = 0.0) -> None:
        self.env = env = Environment()
        self.net = net = MiniNet(env)
        self.client = net.host("client")
        self.server = net.host("server")
        self.sw = net.switch()
        # Wire by hand (MiniNet.attach drops the Link reference, and
        # the link-change tests need it).
        cport, c_iface = self.sw.add_port()
        self.client_link = Link(env, self.client.iface, c_iface, GBPS, 100e-6)
        sport, s_iface = self.sw.add_port()
        self.server_link = Link(env, self.server.iface, s_iface, GBPS, 100e-6)
        self.fwd_match = FlowMatch(ip_dst=self.server.ip)
        self.rev_match = FlowMatch(ip_dst=self.client.ip)
        self.sport = sport
        self.cport = cport
        self.sw.table.install(
            FlowEntry(self.fwd_match, [Output(sport)], idle_timeout=fwd_idle),
            env.now,
        )
        self.sw.table.install(
            FlowEntry(self.rev_match, [Output(cport)]), env.now
        )
        self.server.open_port(80, EchoApp(env))

    def reinstall_fwd(self, fwd_idle: float = 0.0) -> None:
        self.sw.table.install(
            FlowEntry(
                self.fwd_match, [Output(self.sport)], idle_timeout=fwd_idle
            ),
            self.env.now,
        )

    def run_rounds(self, gaps, hooks=None):
        """One connection, ``len(gaps)`` request/response rounds.

        ``gaps[i]`` is the idle pause after round *i*; ``hooks[i]`` (if
        given) runs just before round *i*'s request is sent.  Returns
        the simulated completion time of every round.
        """
        env = self.env
        times = []

        def driver():
            conn = yield from self.client.connect(
                self.server.ip, 80, timeout=5.0
            )
            for i, gap in enumerate(gaps):
                if hooks and i in hooks:
                    hooks[i](self)
                conn.send_payload(REQ, REQ.total_bytes)
                yield from conn.recv(timeout=5.0)
                times.append(env.now)
                if gap:
                    yield env.timeout(gap)
            conn.close()

        proc = env.process(driver())
        env.run(until=proc)
        return times


def _on_both_endpoints(monkeypatch, scenario):
    """``scenario()`` on the real links, then on the oracle's."""
    fused = scenario()
    with monkeypatch.context() as m:
        m.setattr(link_module, "LinkEndpoint", TwoEventEndpoint)
        two_event = scenario()
    return fused, two_event


def _spy_on(host) -> list[tuple[float, int]]:
    """Log ``(time, payload bytes)`` of every packet reaching ``host``."""
    seen = []
    tap(host, "receive", lambda p, i: seen.append((host.env.now, p.tcp.payload_bytes)))
    return seen


class TestChangesBetweenRounds:
    def test_flowmod_delete_and_reinstall_mid_flow(self, monkeypatch):
        """Deleting and reinstalling the forward flow mid-connection:
        the next packet is matched by the new entry, at the oracle's
        instants."""
        gaps = [0.01] * 8

        def mutate(rig):
            (entry,) = [e for e in rig.sw.table if e.match == rig.fwd_match]
            assert remove(rig.sw.table, entry)
            rig.reinstall_fwd()

        fused, two_event = _on_both_endpoints(
            monkeypatch, lambda: _Rig().run_rounds(gaps, hooks={3: mutate})
        )
        assert fused == two_event

    def test_link_latency_change_mid_flow(self, monkeypatch):
        """Tripling the client link's latency mid-flow applies to the
        next packet handed to the link, and every later round lands
        where the oracle puts it."""
        gaps = [0.01] * 8

        def mutate(rig):
            rig.client_link.latency_s = 300e-6

        fused, two_event = _on_both_endpoints(
            monkeypatch, lambda: _Rig().run_rounds(gaps, hooks={3: mutate})
        )
        assert fused == two_event
        # The change itself was observable, so the equality above is
        # not vacuous.
        pre = fused[1] - fused[0] - gaps[0]
        post = fused[7] - fused[6] - gaps[6]
        assert post > pre


class TestIdleTimeoutUnderTraffic:
    def test_every_packet_refreshes_the_entry(self, monkeypatch):
        """Rounds every 0.2 s against a 0.5 s idle timeout: the forward
        entry survives only because each packet's lookup refreshes
        ``last_used`` (a round would punt and time out otherwise); the
        1.0 s gap then lets the sweep expire it."""
        gaps = [0.2] * 5 + [1.0] + [0.2] * 2

        def check_alive(rig):
            assert any(
                e.match == rig.fwd_match for e in rig.sw.table
            ), "forward entry expired under active traffic"

        def reinstall(rig):
            # Put an equivalent entry back (as FlowMemory would).
            assert not any(e.match == rig.fwd_match for e in rig.sw.table)
            rig.reinstall_fwd(fwd_idle=0.5)

        fused, two_event = _on_both_endpoints(
            monkeypatch,
            lambda: _Rig(fwd_idle=0.5).run_rounds(
                gaps, hooks={5: check_alive, 6: reinstall}
            ),
        )
        assert fused == two_event


class TestLinkCutInFlight:
    """A link that goes down under a packet (a handover downs the old
    radio link with segments in flight): the packet is lost iff the
    link is down at its arrival instant — although the switch's ingress
    only runs a lookup delay later."""

    # On the wire for 0.528 us (the 66-byte SYN) or 2.128 us (the
    # 266-byte request), then 100 us of propagation and 10 us in the
    # switch's lookup.
    @pytest.mark.parametrize(
        "cut_after, reaches_server",
        [
            pytest.param(0.25e-6, False, id="while-serializing"),
            pytest.param(50e-6, False, id="while-propagating"),
            pytest.param(105e-6, True, id="during-switch-lookup"),
        ],
    )
    def test_syn_obeys_arrival_instant(
        self, monkeypatch, cut_after, reaches_server
    ):
        def scenario():
            rig = _Rig()
            env = rig.env
            at_server = _spy_on(rig.server)

            def driver():
                env.call_later(cut_after, setattr, rig.client_link, "down", True)
                # Lost, or answered by a SYN-ACK the cut link drops.
                with pytest.raises(ConnectionTimeout):
                    yield from rig.client.connect(rig.server.ip, 80, timeout=1.0)

            env.run(until=env.process(driver()))
            return at_server, env.now, dict(rig.sw.stats)

        fused, two_event = _on_both_endpoints(monkeypatch, scenario)
        assert len(fused[0]) == reaches_server
        assert fused == two_event

    @pytest.mark.parametrize(
        "cut_after, reaches_server",
        [
            pytest.param(1e-6, False, id="while-serializing"),
            pytest.param(50e-6, False, id="while-propagating"),
            pytest.param(105e-6, True, id="during-switch-lookup"),
        ],
    )
    def test_request_obeys_arrival_instant(
        self, monkeypatch, cut_after, reaches_server
    ):
        def scenario():
            rig = _Rig()
            env = rig.env
            at_server = _spy_on(rig.server)
            times = []

            def driver():
                conn = yield from rig.client.connect(
                    rig.server.ip, 80, timeout=5.0
                )
                for cut in (None, cut_after):
                    if cut is not None:
                        del at_server[:]
                        env.call_later(
                            cut, setattr, rig.client_link, "down", True
                        )
                    conn.send_payload(REQ, REQ.total_bytes)
                    try:
                        yield from conn.recv(timeout=1.0)
                    except ConnectionTimeout:
                        pass
                    times.append(env.now)
                    yield env.timeout(0.01)

            env.run(until=env.process(driver()))
            return at_server, times, dict(rig.sw.stats)

        fused, two_event = _on_both_endpoints(monkeypatch, scenario)
        assert [size for _, size in fused[0]] == [REQ.total_bytes] * reaches_server
        assert fused == two_event


class TestScaleDownUnderSteadyTraffic:
    def test_scale_down_waits_for_the_conversation(self):
        """§V scale-down under a long conversation: the switch entry's
        ``last_used`` keeps advancing with every packet (no spurious
        expiry mid-traffic), the controller sees no extra packet-ins,
        and once the client goes quiet the memory idle timeout brings
        the instance down on schedule."""
        from repro.services.catalog import NGINX
        from repro.testbed import C3Testbed, TestbedConfig

        tb = C3Testbed(
            TestbedConfig(cluster_types=("docker",), auto_scale_down=True)
        )
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)
        assert tb.docker_cluster.is_running(svc.plan)

        client = tb.clients[0]
        env = tb.env
        punts_before = tb.switch.stats["punt"]
        idle = tb.controller.calibration.switch_idle_timeout_s

        def driver():
            conn = yield from client.connect(
                svc.cloud_ip, svc.port, timeout=5.0
            )
            # Talk for well past the switch idle timeout.  If a hop
            # ever skipped the flow entry's last_used refresh, the
            # redirect would idle out mid-conversation and a round
            # would punt (or time out on the dead path).
            rounds = int(idle * 1.5) + 2
            for _ in range(rounds):
                conn.send_payload(NGINX.request, NGINX.request.total_bytes)
                yield from conn.recv(timeout=5.0)
                yield env.timeout(1.0)
            conn.close()

        proc = env.process(driver())
        env.run(until=proc)
        # All of it stayed on the data plane: zero new packet-ins.
        assert tb.switch.stats["punt"] == punts_before
        assert tb.docker_cluster.is_running(svc.plan)

        # Quiet now: the memory idle timeout expires and scales down.
        memory_timeout = tb.controller.calibration.memory_idle_timeout_s
        env.run(until=env.now + memory_timeout + 5.0)
        assert tb.controller.stats["scale_downs"] == 1
        assert not tb.docker_cluster.is_running(svc.plan)
