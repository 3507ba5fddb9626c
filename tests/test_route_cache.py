"""Tests for the established-flow fast path (route memoization).

The invariant under test everywhere: with route replay enabled, every
observable timing is **byte-identical** to a cold run in which routes
are never installed (the ``Recording.finalize`` no-op monkeypatch) —
including runs where the cached state is yanked away mid-flow by a
FlowMod delete, an idle-timeout sweep, or a link-parameter change.
Each of those must invalidate the memoized route (epoch guards) and
force a re-record, never a stale replay.
"""

from __future__ import annotations

import pytest

from repro.net import ConnectionTimeout, HTTPRequest, Link
from repro.net import route_cache
from repro.net.link import GBPS
from repro.net.openflow import FlowEntry, FlowMatch, Output
from repro.sim import Environment

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
        # the link-change test needs it).
        cport, c_iface = self.sw.add_port(net.macs.allocate())
        self.client_link = Link(env, self.client.iface, c_iface, GBPS, 100e-6)
        sport, s_iface = self.sw.add_port(net.macs.allocate())
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
        self.conn = None

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
            self.conn = conn
            for i, gap in enumerate(gaps):
                if hooks and i in hooks:
                    hooks[i]()
                conn.send_payload(REQ, REQ.total_bytes)
                yield from conn.recv(timeout=5.0)
                times.append(env.now)
                if gap:
                    yield env.timeout(gap)
            conn.close()

        proc = env.process(driver())
        env.run(until=proc)
        return times

    def route(self):
        """The client's memoized route for the live connection."""
        if self.conn is None:
            return None
        return self.client._routes.get(self.conn.conn_id)


def _cold(monkeypatch) -> None:
    """Disable route installation: every packet takes the slow path."""
    monkeypatch.setattr(
        route_cache.Recording, "finalize", lambda self: None
    )


class TestByteIdentity:
    def test_steady_state_times_identical_to_cold_run(self, monkeypatch):
        gaps = [0.01] * 6
        hot = _Rig().run_rounds(gaps)
        with monkeypatch.context() as m:
            _cold(m)
            cold = _Rig().run_rounds(gaps)
        assert hot == cold

    def test_fast_path_is_actually_used(self):
        rig = _Rig()
        seen = []
        rig.run_rounds(
            [0.01] * 3,
            hooks={
                2: lambda: seen.append(
                    (rig.route(), rig.route().valid if rig.route() else None)
                )
            },
        )
        # By round 2 the connection's traversal has been memoized and
        # live (close() kills it afterwards, so check at hook time).
        route, valid_then = seen[0]
        assert route is not None
        assert valid_then
        assert not route.valid  # ...and close() did retire it


class TestInvalidation:
    def test_flowmod_delete_mid_flow_forces_rerecord(self, monkeypatch):
        """Deleting + reinstalling the forward flow mid-connection must
        drop the memoized route (table epoch moved, different entry
        object) and re-record — with timings identical to a cold run
        that suffers the same FlowMod."""
        gaps = [0.01] * 8

        def run(rig):
            observed = {}

            def mutate():
                observed["before"] = rig.route()
                removed = rig.sw.table.remove_matching(match=rig.fwd_match)
                assert len(removed) == 1
                rig.reinstall_fwd()

            def after():
                observed["after"] = rig.route()

            times = rig.run_rounds(gaps, hooks={3: mutate, 6: after})
            return times, observed

        hot_times, obs = run(_Rig())
        # The pre-mutation route was memoized, then replaced by a fresh
        # recording (not the same object, and the old one is dead).
        assert obs["before"] is not None
        assert obs["after"] is not None
        assert obs["after"] is not obs["before"]
        assert not obs["before"].valid

        with monkeypatch.context() as m:
            _cold(m)
            cold_times, _ = run(_Rig())
        assert hot_times == cold_times

    def test_idle_timeout_sweep_eviction_forces_rerecord(self, monkeypatch):
        """An idle-timeout sweep removing the forward entry bumps the
        table epoch: the cached route dies with it.  Sustained
        fast-path traffic must keep the entry alive first (last_used
        is refreshed on replay), or the mid-traffic rounds would punt
        and time out."""
        # Rounds every 0.2s against a 0.5s idle timeout: the entry
        # survives only because every replayed packet refreshes it.
        gaps = [0.2] * 5 + [1.0] + [0.2] * 2

        def run(rig):
            def check_alive():
                assert any(
                    e.match == rig.fwd_match for e in rig.sw.table
                ), "forward entry expired under active fast-path traffic"

            def reinstall():
                # The 1.0s gap let the sweep expire the entry; put an
                # equivalent one back (as FlowMemory would).
                assert not any(
                    e.match == rig.fwd_match for e in rig.sw.table
                )
                rig.reinstall_fwd(fwd_idle=0.5)

            return rig.run_rounds(gaps, hooks={5: check_alive, 6: reinstall})

        hot = run(_Rig(fwd_idle=0.5))
        with monkeypatch.context() as m:
            _cold(m)
            cold = run(_Rig(fwd_idle=0.5))
        assert hot == cold

    def test_link_parameter_change_forces_rerecord(self, monkeypatch):
        """Doubling the client link's latency mid-flow bumps the link
        epoch: the armed fusion is declined, the route re-records, and
        every post-change round lands at exactly the time the slow
        path would have produced."""
        gaps = [0.01] * 8

        def run(rig):
            observed = {}

            def mutate():
                observed["before"] = rig.route()
                rig.client_link.latency_s = 300e-6

            def after():
                observed["after"] = rig.route()

            times = rig.run_rounds(gaps, hooks={3: mutate, 6: after})
            return times, observed

        hot_times, obs = run(_Rig())
        assert obs["before"] is not None
        assert not obs["before"].valid  # epoch guard killed it
        assert obs["after"] is not None
        assert obs["after"] is not obs["before"]

        with monkeypatch.context() as m:
            _cold(m)
            cold_times, _ = run(_Rig())
        assert hot_times == cold_times

        # Sanity: the latency change itself was observable (later
        # rounds really did get slower), so the equality above is not
        # vacuous.
        pre = hot_times[1] - hot_times[0] - gaps[0]
        post = hot_times[7] - hot_times[6] - gaps[6]
        assert post > pre


class TestLinkCutInFlight:
    """A link that goes down under a packet (a handover downs the old
    radio link with segments in flight): the packet is lost iff the
    link is down at its arrival instant, on the fast path as on the
    slow one."""

    # The 266-byte request is on the wire for 2.128 us, propagates for
    # 100 us and spends 10 us in the switch's lookup.
    @pytest.mark.parametrize(
        "cut_after, reaches_server",
        [
            pytest.param(1e-6, False, id="while-serializing"),
            pytest.param(50e-6, False, id="while-propagating"),
            pytest.param(105e-6, True, id="during-switch-lookup"),
        ],
    )
    def test_hot_and_cold_agree(self, monkeypatch, cut_after, reaches_server):
        def run(rig):
            env = rig.env
            at_server, times, routes = [], [], []
            receive = rig.server.receive

            def spy(packet, iface):
                at_server.append((env.now, packet.tcp.payload_bytes))
                receive(packet, iface)

            rig.server.receive = spy

            def driver():
                conn = yield from rig.client.connect(
                    rig.server.ip, 80, timeout=5.0
                )
                rig.conn = conn
                for cut in (None, cut_after):
                    routes.append(rig.route())
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
            return at_server, times, routes

        hot_seen, hot_times, hot_routes = run(_Rig())
        # The second request left on a memoized route ...
        assert hot_routes[1] is not None
        # ... and the cut decided its fate by where it found the packet.
        assert [size for _, size in hot_seen] == [REQ.total_bytes] * reaches_server

        with monkeypatch.context() as m:
            _cold(m)
            cold_seen, cold_times, _ = run(_Rig())
        assert hot_seen == cold_seen
        assert hot_times == cold_times


class TestScaleDownUnderFastPath:
    def test_memory_scale_down_fires_with_fast_path_traffic(self):
        """§V scale-down must still fire when steady-state traffic
        rides the replay path: the switch entry's ``last_used`` keeps
        advancing (no spurious expiry mid-traffic), the controller sees
        no extra packet-ins, and once the client goes quiet the memory
        idle timeout brings the instance down on schedule."""
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
        idle = tb.controller.config.switch_idle_timeout_s

        def driver():
            conn = yield from client.connect(
                svc.cloud_ip, svc.port, timeout=5.0
            )
            # Talk for well past the switch idle timeout.  Every round
            # after the first rides the memoized route; if replay ever
            # skipped the flow entry's last_used refresh, the redirect
            # would idle out mid-conversation and a round would punt
            # (or time out on the dead path).
            rounds = int(idle * 1.5) + 2
            for _ in range(rounds):
                conn.send_payload(NGINX.request, NGINX.request.total_bytes)
                yield from conn.recv(timeout=5.0)
                yield env.timeout(1.0)
            assert client._routes.get(conn.conn_id) is not None
            conn.close()

        proc = env.process(driver())
        env.run(until=proc)
        # All of it stayed on the data plane: zero new packet-ins.
        assert tb.switch.stats["punt"] == punts_before
        assert tb.docker_cluster.is_running(svc.plan)

        # Quiet now: the memory idle timeout expires and scales down.
        memory_timeout = tb.controller.config.memory_idle_timeout_s
        env.run(until=env.now + memory_timeout + 5.0)
        assert tb.controller.stats["scale_downs"] == 1
        assert not tb.docker_cluster.is_running(svc.plan)
