"""End-to-end tests: controller + testbed, the paper's request paths."""

from __future__ import annotations

import pytest

from repro.cluster.plan import ServiceEndpoint
from repro.core import HybridDockerK8sScheduler, LowLatencyScheduler
from repro.core.schedulers import CloudOnlyScheduler
from repro.net.packet import TCPFlags, TCPSegment
from repro.observe import tap
from repro.services import Calibration
from repro.services.catalog import ASM, NGINX, NGINX_PY, RESNET
from repro.testbed import C3Testbed, TestbedConfig
from repro.workload import BigFlowsParams, TraceDriver, generate_trace


def docker_testbed(**kwargs):
    return C3Testbed(TestbedConfig(cluster_types=("docker",), **kwargs))


def k8s_testbed(**kwargs):
    return C3Testbed(TestbedConfig(cluster_types=("k8s",), **kwargs))


class TestWithWaiting:
    """On-demand deployment with waiting (fig. 5)."""

    def test_first_request_docker_under_one_second(self):
        """§VI/§VII headline: with cached images, Docker answers the
        *first* request in well under a second."""
        tb = docker_testbed()
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        assert 0.2 < result.time_total < 1.0

    def test_first_request_k8s_around_three_seconds(self):
        tb = k8s_testbed()
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.k8s_cluster, svc)
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        assert 2.0 < result.time_total < 5.0

    def test_docker_much_faster_than_k8s(self):
        """The fig. 11 gap: K8s ≈ 3x+ slower than Docker to scale up."""
        results = {}
        for name, builder in (("docker", docker_testbed), ("k8s", k8s_testbed)):
            tb = builder()
            svc = tb.register_template(NGINX)
            cluster = tb.docker_cluster or tb.k8s_cluster
            tb.prepare_created(cluster, svc)
            results[name] = tb.run_request(tb.clients[0], svc, NGINX.request).time_total
        assert results["k8s"] > 3 * results["docker"]

    def test_second_request_is_warm(self):
        """Once running, requests take ~milliseconds (fig. 16)."""
        tb = docker_testbed()
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        first = tb.run_request(tb.clients[0], svc, NGINX.request)
        second = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert second.time_total < 0.02
        assert second.time_total < first.time_total / 20

    def test_transparency_client_only_sees_cloud_address(self):
        """The heart of transparent access: responses appear to come
        from the registered cloud address even though the edge served."""
        tb = docker_testbed()
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        client = tb.clients[0]
        seen = []
        tap(client, "receive", lambda p, i: seen.append((p.ip_src, p.tcp.src_port)))
        result = tb.run_request(client, svc, NGINX.request)
        assert result.response.status == 200
        assert seen, "client received packets"
        assert all(ip == svc.cloud_ip and port == svc.port for ip, port in seen)
        # And the edge actually served it (container handled a request).
        assert tb.controller.stats["dispatched"] == 1

    def test_cold_service_includes_pull(self):
        """Nothing cached: the pull phase happens on demand (fig. 2)."""
        tb = docker_testbed()
        svc = tb.register_template(ASM)
        result = tb.run_request(tb.clients[0], svc, ASM.request)
        assert result.response.status == 200
        assert tb.recorder.samples("pull/docker/asm")
        assert tb.docker_cluster.image_cached(svc.plan)

    def test_multi_container_service_slower_than_single(self):
        times = {}
        for template in (NGINX, NGINX_PY):
            tb = docker_testbed()
            svc = tb.register_template(template)
            tb.prepare_created(tb.docker_cluster, svc)
            times[template.key] = tb.run_request(
                tb.clients[0], svc, template.request
            ).time_total
        assert times["nginx_py"] > times["nginx"] + 0.2

    def test_resnet_wait_dominates(self):
        """ResNet's model load: wait-until-ready > 1/4 of total (fig. 14)."""
        tb = docker_testbed()
        svc = tb.register_template(RESNET)
        tb.prepare_created(tb.docker_cluster, svc)
        result = tb.run_request(tb.clients[0], svc, RESNET.request)
        wait = tb.recorder.samples("wait_ready/docker/resnet")[0]
        assert wait > result.time_total / 4

    def test_concurrent_first_requests_single_deployment(self):
        """Simultaneous cold hits share one deployment pipeline."""
        tb = docker_testbed()
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        results = []

        def one(env, client):
            r = yield from tb.http_request(client, svc, NGINX.request)
            results.append(r)

        for client in tb.clients[:5]:
            tb.env.process(one(tb.env, client))
        tb.env.run(until=30.0)
        assert len(results) == 5
        assert all(r.response.status == 200 for r in results)
        # Only one scale-up happened.
        assert len(tb.recorder.samples("scale_up/docker/nginx")) == 1

    def test_no_duplicate_redirect_entries(self):
        """Concurrent cold connections from one client leave exactly
        one forward + one reverse entry in the switch."""
        tb = docker_testbed()
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        client = tb.clients[0]

        def one(env):
            yield from tb.http_request(client, svc, NGINX.request)

        from repro.sim import AllOf

        procs = [tb.env.process(one(tb.env)) for _ in range(3)]
        tb.env.run(until=AllOf(tb.env, procs))
        tb.settle(0.1)  # let trailing flow-mods land
        redirects = [
            e
            for e in tb.switch.table
            if str(e.cookie or "").startswith(f"redirect:{svc.name}")
        ]
        assert len(redirects) == 2  # one forward + one reverse


class TestFlowMemory:
    def test_memory_fast_path_after_switch_expiry(self):
        """After the (low) switch idle timeout, the next request is a
        packet-in again — but FlowMemory answers without re-scheduling."""
        tb = docker_testbed()
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)
        # Wait beyond the switch idle timeout, under the memory timeout.
        idle = tb.controller.calibration.switch_idle_timeout_s
        tb.env.run(until=tb.env.now + idle + 2.0)
        assert tb.controller.stats["memory_hits"] == 0
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        assert tb.controller.stats["memory_hits"] == 1
        assert tb.controller.stats["dispatched"] == 1  # not re-dispatched
        assert result.time_total < 0.05

    def test_auto_scale_down_after_memory_expiry(self):
        tb = C3Testbed(
            TestbedConfig(cluster_types=("docker",), auto_scale_down=True)
        )
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)
        assert tb.docker_cluster.is_running(svc.plan)
        # Idle past the memory timeout: the controller scales down.
        memory_timeout = tb.controller.calibration.memory_idle_timeout_s
        tb.env.run(until=tb.env.now + memory_timeout + 5.0)
        assert not tb.docker_cluster.is_running(svc.plan)
        assert tb.controller.stats["scale_downs"] == 1
        # The service was only scaled down, not removed: next request
        # redeploys quickly (containers still created).
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200


class TestWithoutWaiting:
    def test_redirect_to_far_edge_while_deploying(self):
        """Fig. 3: first request served by a farther running instance,
        future requests by the near edge once deployed."""
        tb = C3Testbed(
            TestbedConfig(cluster_types=("docker",)),
            scheduler=LowLatencyScheduler(),
        )
        far = tb.add_far_edge("far-docker", distance=1)
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        # Far edge already runs an instance.
        tb.prepare_created(far, svc)
        proc = tb.env.process(far.scale_up(svc.plan))
        tb.env.run(until=proc)
        proc = tb.env.process(
            far.wait_ready(svc.plan, poll_interval_s=0.02, timeout_s=10)
        )
        tb.env.run(until=proc)

        first = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert first.response.status == 200
        # No waiting: far instance answers fast (no deployment in path)
        # and distinctly faster than the 60 ms cloud fallback would be.
        assert first.time_total < 0.04
        # The far edge actually served it (memorized before BEST lands).
        flow = tb.controller.flow_memory.lookup(tb.clients[0].ip, svc)
        assert flow is not None and flow.cluster_name == "far-docker"
        assert tb.controller.stats["cloud_fallbacks"] == 0
        # The near (BEST) deployment proceeds in the background.
        tb.env.run(until=tb.env.now + 10.0)
        assert tb.docker_cluster.is_running(svc.plan)
        # FlowMemory now points at the near edge.
        flow = tb.controller.flow_memory.lookup(tb.clients[0].ip, svc)
        assert flow is not None and flow.cluster_name == "docker"

    def test_cloud_fallback_when_nothing_runs(self):
        """LowLatency with no running instance anywhere: current request
        to the cloud, near edge deploys in parallel."""
        tb = C3Testbed(
            TestbedConfig(cluster_types=("docker",)),
            scheduler=LowLatencyScheduler(),
        )
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        first = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert first.response.status == 200
        # Served by the cloud: ~2 WAN round trips, way under deploy time.
        assert 0.05 < first.time_total < 0.5
        assert tb.controller.stats["cloud_fallbacks"] == 1
        tb.env.run(until=tb.env.now + 10.0)
        assert tb.docker_cluster.is_running(svc.plan)


class TestCloudOnly:
    def test_pure_cloud_baseline(self):
        tb = C3Testbed(
            TestbedConfig(cluster_types=("docker",)),
            scheduler=CloudOnlyScheduler(),
        )
        svc = tb.register_template(NGINX)
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200
        # Never deployed at the edge.
        assert not tb.docker_cluster.is_created(svc.plan)
        # WAN latency dominates: 15 ms one-way, 2+ round trips.
        assert result.time_total > 0.05


class TestHybrid:
    def test_docker_first_then_k8s(self):
        """§VII: fast first response via Docker, then Kubernetes takes
        over for managed steady-state."""
        tb = C3Testbed(
            TestbedConfig(cluster_types=("docker", "k8s")),
            scheduler=HybridDockerK8sScheduler("docker", "k8s"),
        )
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.prepare_created(tb.k8s_cluster, svc)

        first = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert first.response.status == 200
        assert first.time_total < 1.0  # Docker speed, not K8s speed
        # Kubernetes deployment completes in the background.
        tb.env.run(until=tb.env.now + 10.0)
        assert tb.k8s_cluster.is_running(svc.plan)
        # Memorized flows repointed to the K8s instance.
        flow = tb.controller.flow_memory.lookup(tb.clients[0].ip, svc)
        assert flow is not None and flow.cluster_name == "k8s"


class TestUnregisteredTraffic:
    def test_a_miss_toward_a_client_leaves_on_the_client_port(self):
        """A table miss on a packet no service owns — as after a power
        cycle, before the join's routes land — leaves the way the
        infrastructure routes would send it: a packet toward a client
        out of the client's port, not the cloud uplink."""
        from repro.net.openflow import Output, PacketIn, PacketOut
        from repro.net.packet import Packet

        tb = docker_testbed()
        client, topology, dpid = tb.clients[0], tb.controller.topology, tb.datapath.id
        sent = []
        tap(tb.datapath.channel, "send_to_switch", sent.append)
        answer = Packet(
            ip_src=tb.cloud.ip, ip_dst=client.ip, tcp=TCPSegment(80, 40000, TCPFlags.ACK)
        )
        tb.controller.on_packet_in(
            tb.datapath,
            PacketIn(dpid, 7, answer, in_port=topology.cloud_port(dpid)),
        )
        tb.settle(0.01)
        client_port = topology.port_for(dpid, client.ip)
        assert client_port != topology.cloud_port(dpid)
        outs = [(m.buffer_id, m.actions) for m in sent if isinstance(m, PacketOut)]
        assert outs == [(7, [Output(client_port)])]

    def test_unregistered_service_flows_to_cloud(self):
        from repro.net.packet import HTTPRequest
        from repro.net.addressing import IPv4Address
        from tests.nethelpers import EchoApp

        tb = docker_testbed()
        ip = IPv4Address.parse("203.0.113.200")
        tb.cloud.open_service(ip, 80, EchoApp(tb.env))
        client = tb.clients[0]

        def go(env):
            result = yield from client.http_request(
                ip, 80, HTTPRequest("GET", "/"), timeout=10.0
            )
            return result

        proc = tb.env.process(go(tb.env))
        result = tb.env.run(until=proc)
        assert result.response.status == 200
        # Default rule handled it: the controller never saw a packet-in.
        assert tb.controller.stats["packet_in"] == 0


# -- a redirect's three transitions, as the switch sees them ---------------

_SVC = "edge-203-0-113-1-80"  # NGINX registered at 203.0.113.1:80
_R = f"redirect:{_SVC}:10.0.0.2"  # clients[0]; the cookie text is a wire format
_P = f"drain:{_SVC}:10.0.0.2:%s"  # the pin of the connections begun on one endpoint
_MARK = {"egs": "10.0.0.1:30080", "far": "10.0.0.22:30081", "cloud": "203.0.113.1:80"}

#: The distinct FlowMods of the table below, as :func:`_wire` renders them.
_REV_R, _FWD_R = f"add {_R} p20 idle=0", f"add {_R} p20 idle=10"
_FROM_EGS = "match(ip_src=10.0.0.1, ip_dst=10.0.0.2, tcp_src=30080)"
_FROM_FAR = "match(ip_src=10.0.0.22, ip_dst=10.0.0.2, tcp_src=30081)"
_BACK = "-> set_src:203.0.113.1:80,output:2 buffer=None"
_ANY = "match(ip_src=10.0.0.2, ip_dst=203.0.113.1, tcp_dst=80)"
_MARKED = "match(ip_src=10.0.0.2, ip_dst=203.0.113.1, tcp_dst=80, ct_mark=%s)"
_TO = {
    "egs": "-> ct(commit,nat(dst=10.0.0.1:30080)),output:1",
    "far": "-> ct(commit,nat(dst=10.0.0.22:30081)),output:23",
    "cloud": "-> ct(commit,nat(dst=203.0.113.1:80)),output:22",
}
_FLOW_MODS = {
    "del R": f"delete {_R}",
    "R rev egs": f"{_REV_R} {_FROM_EGS} {_BACK}",
    "R rev far": f"{_REV_R} {_FROM_FAR} {_BACK}",
    "R fwd egs": f"{_FWD_R} {_ANY} {_TO['egs']} buffer=None",
    "R fwd egs buf7": f"{_FWD_R} {_ANY} {_TO['egs']} buffer=7",
    "R fwd egs buf8": f"{_FWD_R} {_ANY} {_TO['egs']} buffer=8",
    "R fwd far": f"{_FWD_R} {_ANY} {_TO['far']} buffer=None",
    "R fwd cloud": f"{_FWD_R} {_ANY} {_TO['cloud']} buffer=None",
    "R fwd cloud buf7": f"{_FWD_R} {_ANY} {_TO['cloud']} buffer=7",
}
for _at, _mark in _MARK.items():
    _FLOW_MODS |= {
        f"del P {_at}": f"delete {_P % _mark}",
        f"P fwd {_at}": (
            f"add {_P % _mark} p25 idle=10 {_MARKED % _mark} {_TO[_at]} buffer=None"
        ),
    }
_FLOW_MODS |= {
    "P rev egs": f"add {_P % _MARK['egs']} p25 idle=0 {_FROM_EGS} {_BACK}",
    "P rev far": f"add {_P % _MARK['far']} p25 idle=0 {_FROM_FAR} {_BACK}",
}

#: case -> (steps, the FlowMods they put on the control channel, in order).
#: Endpoints: ``egs`` 10.0.0.1:30080 (switch port 1), ``far`` 10.0.0.22:30081
#: (port 23), ``nowhere`` (no port known), ``cloud`` as FlowMemory records it
#: (203.0.113.1:80, uplink port 22), ``None`` as a resolution spells it; the
#: client sits on port 2.  ``("open", port)`` sends the client's SYN from
#: ``port`` through the switch, which commits it with the redirect's mark.
#: Recorded at b63004c, from the two open-coded installers and the two
#: cookie-deleting loops ``Redirect`` replaced — not from the code under test;
#: then edited for one redirect lifetime: the reverse entry has no idle
#: timeout, the forward one asked for a FlowRemoved, and an install
#: deletes first only over a forward entry it sent (two cases lost the
#: ``del R`` that found nothing); then for one drain lifetime: every timed
#: entry reports its idle-out, so nothing asks, the reverse drain has no
#: idle timeout, and a repoint that cannot pin a connection (no old
#: out-port) sends no drain at all; then for one connection per drain:
#: each drain has a cookie of its own and its reverse entry matches its
#: port, and a repoint pins only the ports no drain holds yet; then for
#: the switch's connection tracking: every forward entry commits its
#: endpoint's mark first, and a repoint sends one pin of the old
#: endpoint's mark, however many connections the switch tracks — the
#: controller reads none of them — unless that pin is held already; then
#: for one action per endpoint: a forward entry's commit and destination
#: rewrites are one ``ct(commit,nat(dst=…))`` (toward the cloud too, to
#: the service's own address), a reverse entry's two source rewrites one
#: ``set_src``, and the case of a retire after the controller let its
#: switch go left with the only way to let one go.
_TRANSITIONS: dict[str, tuple[list[tuple], list[str]]] = {
    "install to an edge endpoint": (
        [("install", "egs", 7)],
        ["R rev egs", "R fwd egs buf7"],
    ),
    "reinstall deletes first": (
        [("install", "egs", 7), ("install", "egs", 8)],
        ["R rev egs", "R fwd egs buf7", "del R", "R rev egs", "R fwd egs buf8"],
    ),
    "install to the cloud, spelled None": (
        [("install", None, 7)],
        ["R fwd cloud buf7"],
    ),
    "install to the cloud, spelled as FlowMemory records it": (
        [("install", "cloud", 7)],
        ["R fwd cloud buf7"],
    ),
    "install toward an unknown port adds nothing, and marks nothing": (
        [("install", "nowhere", 7), ("install", "egs", 8)],
        ["R rev egs", "R fwd egs buf8"],
    ),
    "repoint with no connection open still pins": (
        [("install", "egs", 7), ("repoint", "egs", "far")],
        [
            "R rev egs", "R fwd egs buf7", "P rev egs", "P fwd egs", "del R", "R rev far",
            "R fwd far",
        ],
    ),
    "repoint with one connection, from an edge endpoint": (
        [("install", "egs", 7), ("open", 40000), ("repoint", "egs", "far")],
        [
            "R rev egs", "R fwd egs buf7", "P rev egs", "P fwd egs", "del R", "R rev far",
            "R fwd far",
        ],
    ),
    "repoint with two connections, from an edge endpoint": (
        [
            ("install", "egs", 7), ("open", 40000), ("open", 40001),
            ("repoint", "egs", "far"),
        ],
        [
            "R rev egs", "R fwd egs buf7", "P rev egs", "P fwd egs", "del R", "R rev far",
            "R fwd far",
        ],
    ),
    "repoint with one connection, from the cloud": (
        [("install", None, 7), ("open", 40000), ("repoint", "cloud", "egs")],
        ["R fwd cloud buf7", "P fwd cloud", "del R", "R rev egs", "R fwd egs"],
    ),
    "repoint with two connections, from the cloud": (
        [
            ("install", None, 7), ("open", 40000), ("open", 40001),
            ("repoint", "cloud", "egs"),
        ],
        ["R fwd cloud buf7", "P fwd cloud", "del R", "R rev egs", "R fwd egs"],
    ),
    "a second repoint keeps the first one's pins": (
        [
            ("install", "egs", 7), ("open", 40000), ("repoint", "egs", "far"),
            ("open", 40001), ("repoint", "far", "egs"),
        ],
        [
            "R rev egs", "R fwd egs buf7", "P rev egs", "P fwd egs", "del R", "R rev far",
            "R fwd far", "P rev far", "P fwd far", "del R", "R rev egs", "R fwd egs",
        ],
    ),
    "a repoint away from a pinned endpoint pins it once": (
        [
            ("install", "egs", 7), ("repoint", "egs", "far"), ("repoint", "far", "egs"),
            ("repoint", "egs", "far"),
        ],
        [
            "R rev egs", "R fwd egs buf7", "P rev egs", "P fwd egs", "del R", "R rev far",
            "R fwd far", "P rev far", "P fwd far", "del R", "R rev egs", "R fwd egs",
            "del R", "R rev far", "R fwd far",
        ],
    ),
    "repoint from an unknown port sends no drain": (
        [("install", "nowhere", 7), ("repoint", "nowhere", "egs")],
        ["R rev egs", "R fwd egs"],
    ),
    "retire before a repoint": (
        [("install", "egs", 7), ("retire",)],
        ["R rev egs", "R fwd egs buf7", "del R"],
    ),
    "retire after a repoint": (
        [("install", "egs", 7), ("open", 40000), ("repoint", "egs", "far"), ("retire",)],
        [
            "R rev egs", "R fwd egs buf7", "P rev egs", "P fwd egs", "del R", "R rev far",
            "R fwd far", "del R", "del P egs",
        ],
    ),
    "retire with nothing installed": (
        [("retire",)],
        [],
    ),
}


def _wire(message) -> str:
    """One FlowMod as text: command, cookie, priority, idle timeout (an
    entry with one reports its idle-out), match, actions, buffer id."""
    if message.command == "delete":
        assert message.match is None
        return f"delete {message.cookie}"
    actions = ",".join(str(action) for action in message.actions)
    return (
        f"add {message.cookie} p{message.priority} idle={message.idle_timeout:g} "
        f"{message.match} -> {actions} buffer={message.buffer_id}"
    )


def _sent_to_switch(tb) -> list[str]:
    """Every message the controller sends its switch from now on, as
    :func:`_wire` text, in sending order."""
    sent = []
    tap(tb.datapath.channel, "send_to_switch", lambda message: sent.append(_wire(message)))
    return sent


def _redirect_rig():
    """A real switch under a real controller, every message to the
    switch recorded as it is sent; no request runs."""
    from repro.net.addressing import IPv4Address

    tb = docker_testbed()
    far = tb.add_far_edge()
    service = tb.register_template(NGINX)
    tb.settle(0.01)
    sent = _sent_to_switch(tb)
    endpoints = {
        "egs": ServiceEndpoint(tb.egs.ip, 30080),
        "far": ServiceEndpoint(far.ingress_host.ip, 30081),
        "nowhere": ServiceEndpoint(IPv4Address.parse("10.9.9.9"), 30082),
        "cloud": ServiceEndpoint(service.cloud_ip, service.port),
        None: None,
    }
    return tb, service, endpoints, sent


def _open(tb, client, service, port: int) -> None:
    """Send the client's SYN from ``port`` to the service; once it has
    crossed the switch, the switch tracks its connection."""
    tb.settle(0.001)  # what was sent to the switch has landed
    client._send_segment(service.cloud_ip, TCPSegment(port, service.port, TCPFlags.SYN))
    tb.settle(0.001)
    assert (client.ip, service.cloud_ip, port, service.port) in tb.switch.connections


@pytest.mark.parametrize("case", _TRANSITIONS)
def test_redirect_transitions_as_message_sequences(case):
    """``Redirect.install`` / ``repoint`` / ``retire`` put exactly the
    recorded FlowMods on the control channel, in the recorded order —
    most of which no latency md5 can see (a delete ahead of an add, a
    drain ahead of a swap, an entry nobody hits)."""
    steps, expected = _TRANSITIONS[case]
    tb, service, endpoints, sent = _redirect_rig()
    client = tb.clients[0]
    port = tb.topology.port_for(tb.datapath.id, client.ip)
    redirect = tb.controller._redirect(tb.datapath, client.ip, service)
    for step, *args in steps:
        if step == "open":
            _open(tb, client, service, args[0])
        elif step == "install":
            redirect.install(port, endpoints[args[0]], args[1])
        elif step == "repoint":
            redirect.repoint(port, endpoints[args[0]], endpoints[args[1]])
        else:
            assert step == "retire"  # all the client holds, as a handover does
            for held in tb.controller._redirects.pop(client.ip, {}).values():
                held.retire()
    assert sent == [_FLOW_MODS[name] for name in expected]


def test_a_stale_idle_out_leaves_a_fresh_reinstall_alone():
    """The switch idles the forward entry out and reports it.  Before
    the FlowRemoved lands, a reinstall (a repoint's, a redispatch's)
    runs over the redirect the controller still holds installed: it
    deletes first and adds both entries afresh.  The report is of the
    entry that reinstall replaced, so the controller sends nothing for
    it, and the fresh entries stay."""
    tb, service, endpoints, sent = _redirect_rig()
    client = tb.clients[0]
    port = tb.topology.port_for(tb.datapath.id, client.ip)
    redirect = tb.controller._redirect(tb.datapath, client.ip, service)
    redirect.install(port, endpoints["egs"], None)
    tb.settle(tb.controller.calibration.switch_idle_timeout_s - 0.1)

    def ours():
        return [entry for entry in tb.switch.table if entry.cookie == redirect.cookie]

    while any(entry.idle_timeout for entry in ours()):
        tb.settle(0.0001)  # half the channel's 200 µs hop
    redirect.install(port, endpoints["far"], None)
    tb.settle(0.01)
    assert tb.controller._redirects[client.ip] == {redirect.key: redirect}
    expected = ["R rev egs", "R fwd egs", "del R", "R rev far", "R fwd far"]
    assert sent == [_FLOW_MODS[name] for name in expected]
    assert len(ours()) == 2


def test_a_delete_reports_nothing():
    """A reinstall over an installed redirect deletes its entries, and
    so does a retire; the deleter knows what it deleted, so neither
    sends anything up the channel.  Each sent one ``FlowRemoved`` with
    reason ``delete``, which the controller dropped, while an entry
    that reported its idle-out reported its delete too."""
    tb, service, endpoints, sent = _redirect_rig()
    client = tb.clients[0]
    port = tb.topology.port_for(tb.datapath.id, client.ip)
    redirect = tb.controller._redirect(tb.datapath, client.ip, service)
    up = []
    tap(tb.datapath.channel, "send_to_controller", up.append)
    redirect.install(port, endpoints["egs"], None)
    tb.settle(0.01)
    redirect.install(port, endpoints["far"], None)
    tb.settle(0.01)
    redirect.retire()
    tb.settle(0.01)
    assert sent == [
        _FLOW_MODS[name]
        for name in ["R rev egs", "R fwd egs", "del R", "R rev far", "R fwd far", "del R"]
    ]
    assert up == []


def test_each_drains_reverse_goes_with_its_forward():
    """A repoint pins the client's two connections to egs with one
    forward and one reverse entry.  The client keeps one connection
    warm, and the pin with it, reverse entry included; once it goes
    quiet the forward pin idles out, the switch reports it, and the
    controller drops the pin and deletes its reverse entry, which has
    no timer."""
    tb, service, endpoints, sent = _redirect_rig()
    client = tb.clients[0]
    port = tb.topology.port_for(tb.datapath.id, client.ip)
    redirect = tb.controller._redirect(tb.datapath, client.ip, service)
    redirect.install(port, endpoints["egs"], None)
    _open(tb, client, service, 40000)
    _open(tb, client, service, 40001)
    redirect.repoint(port, endpoints["egs"], endpoints["far"])
    idle_s = tb.controller.calibration.switch_idle_timeout_s
    pin = _P % _MARK["egs"]

    def drains():
        return sorted(
            (entry.cookie, entry.idle_timeout)
            for entry in tb.switch.table
            if entry.cookie.startswith("drain:")
        )

    def held():
        return [key[2] for key in tb.controller._redirects[client.ip]]

    tb.settle(0.01)
    assert drains() == [(pin, 0.0), (pin, idle_s)]
    assert held() == [None, endpoints["egs"]]
    for _ in range(5):  # 40000 stays warm for 20 s
        client._send_segment(service.cloud_ip, TCPSegment(40000, service.port, TCPFlags.ACK))
        tb.settle(idle_s * 0.4)
    assert drains() == [(pin, 0.0), (pin, idle_s)]
    assert held() == [endpoints["egs"]]  # the redirect to far idled out: nothing hit it
    tb.settle(2 * idle_s)
    assert (drains(), held()) == ([], [])
    assert sent.count(_FLOW_MODS["del P egs"]) == 1


def test_a_cloud_redirect_idles_out_with_nothing_to_delete():
    """A redirect to the cloud has a forward entry and no reverse one.
    When the switch reports the forward entry idle nothing of it is
    left, so the controller drops it and sends nothing.  It used to
    send a ``delete redirect:`` that removed nothing."""
    tb, service, endpoints, sent = _redirect_rig()
    client = tb.clients[0]
    port = tb.topology.port_for(tb.datapath.id, client.ip)
    redirect = tb.controller._redirect(tb.datapath, client.ip, service)
    redirect.install(port, None, None)
    assert sent == [_FLOW_MODS["R fwd cloud"]]
    sent.clear()
    tb.settle(2 * tb.controller.calibration.switch_idle_timeout_s)
    assert [entry for entry in tb.switch.table if entry.cookie == redirect.cookie] == []
    assert (tb.controller._redirects[client.ip], sent) == ({}, [])


def test_a_drain_to_the_cloud_idles_out_with_nothing_to_delete():
    """A repoint out of the cloud pins the client's connection to the
    cloud with a forward pin and no reverse one.  The client keeps its
    redirect to egs warm on another connection; when the switch reports
    the pin idle the controller drops it and sends nothing.  It used to
    send a ``delete drain:`` that removed nothing."""
    tb, service, endpoints, sent = _redirect_rig()
    client = tb.clients[0]
    port = tb.topology.port_for(tb.datapath.id, client.ip)
    redirect = tb.controller._redirect(tb.datapath, client.ip, service)
    redirect.install(port, None, None)
    _open(tb, client, service, 40000)
    redirect.repoint(port, endpoints["cloud"], endpoints["egs"])
    sent.clear()
    idle_s = tb.controller.calibration.switch_idle_timeout_s
    for _ in range(5):  # the redirect stays warm for 20 s; the drain does not
        client._send_segment(service.cloud_ip, TCPSegment(40001, service.port, TCPFlags.ACK))
        tb.settle(idle_s * 0.4)
    assert [entry for entry in tb.switch.table if entry.cookie == _P % _MARK["cloud"]] == []
    assert (list(tb.controller._redirects[client.ip]), sent) == ([redirect.key], [])


def test_the_controller_holds_exactly_the_redirects_in_the_table():
    """A short churn run — ``c3_churn``'s 0.5 s switch and 3 s FlowMemory
    idle timeouts, idle scale-down, three services — under three
    repoints of one service: out to the cloud while a client holds a
    connection open, back to egs 0.2 s later while the pin of that
    connection is still held, and out again mid-trace, while a second
    client holds one.  Whenever no control message is in flight the
    controller holds exactly the redirects and pins whose forward
    entries — the table's timed entries — are installed, keyed by
    their mark: none outlives its entry, and none is missing."""
    calibration = Calibration(switch_idle_timeout_s=0.5, memory_idle_timeout_s=3.0)
    config = TestbedConfig(n_clients=8, cluster_types=("docker",), auto_scale_down=True)
    tb = C3Testbed(config, calibration=calibration)
    params = BigFlowsParams(
        n_services=3, n_requests=150, duration_s=10.0, n_clients=8, min_requests_per_service=5
    )
    services = [tb.register_template(NGINX) for _ in range(params.n_services)]
    for service in services:
        tb.prepare_created(tb.docker_cluster, service)
    tb.settle(1.0)
    controller, channel, dpid = tb.controller, tb.datapath.channel, tb.datapath.id
    moved = services[0]
    cloud = ServiceEndpoint(moved.cloud_ip, moved.port)
    tb.env.run_process(tb.clients[0].connect(moved.cloud_ip, moved.port, timeout=5.0))
    instance = tb.docker_cluster.endpoint(moved.plan)
    quiet, drains = [], []

    def check():
        if channel._up_at is not None or channel._down_at is not None:
            return  # an idle-out's report or an add is on its way
        held = [(ip, *key) for ip, owned in controller._redirects.items() for key in owned]
        timed = [
            (
                entry.match.ip_src,
                dpid,
                controller.registry.lookup(entry.match.ip_dst, entry.match.tcp_dst).name,
                entry.match.ct_mark,
            )
            for entry in tb.switch.table
            if entry.idle_timeout
        ]
        assert sorted(held, key=repr) == sorted(timed, key=repr), tb.env.now
        quiet.append(tb.env.now)
        drains.extend(key for key in held if key[3] is not None)

    start = tb.env.now
    for tick in range(400):  # every 50 ms for 20 s
        tb.env.call_at(start + tick * 0.05 + 0.01, check)
    assert controller.repoint_service_flows(moved, "cloud", cloud) >= 1
    tb.env.call_at(
        start + 0.2, controller.repoint_service_flows, moved, tb.docker_cluster.name, instance
    )
    second = tb.clients[1].connect(moved.cloud_ip, moved.port, timeout=5.0)
    tb.env.call_at(start + 4.9, tb.env.spawn, second)
    tb.env.call_at(start + 5.0, controller.repoint_service_flows, moved, "cloud", cloud)
    driver = TraceDriver(tb.env, tb.clients, services, recorder=tb.recorder)
    driver.run(generate_trace(params, seed=1))
    tb.env.run(until=start + 20.0)
    assert len(quiet) > 200
    assert {tb.clients[0].ip, tb.clients[1].ip} <= {key[0] for key in drains}


def _swap_rig():
    """One request has warmed the client's redirect to egs; the far edge
    runs the service too.  Returns the testbed, the service, the client,
    the far cluster, and the names of the instances the client's
    segments reach from now on, in order."""
    tb = docker_testbed()
    far = tb.add_far_edge()
    service = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, service)
    tb.prepare_created(far, service)
    tb.env.run_process(far.scale_up(service.plan))
    client = tb.clients[0]
    assert tb.run_request(client, service, NGINX.request).response.status == 200
    seen = []
    for host in (tb.egs, far.ingress_host):
        tap(host, "receive", lambda packet, iface, name=host.name: seen.append((name, packet)))
    return tb, service, client, far, seen


def test_a_syn_in_the_swap_keeps_the_instance_it_began_on():
    """The client's SYN reaches the switch after ``repoint_service_flows``
    sent the swap to the far edge and before it lands, one control
    channel hop later.  The old redirect commits its connection toward
    egs, so the pin sent with the swap holds it there: its request
    completes, and both of its segments reach egs.  The mutation "the
    switch commits no mark" sends the request segment to the far edge,
    which knows no such connection, and the request times out."""
    tb, service, client, far, seen = _swap_rig()
    crossed = []
    tap(tb.switch, "_pipeline", lambda packet, in_port: crossed.append((tb.env.now, packet)))
    request = tb.env.process(tb.http_request(client, service, NGINX.request, timeout=5.0))
    swap_at = tb.env.now + 100e-6
    endpoint = far.endpoint(service.plan)
    tb.env.call_at(swap_at, tb.controller.repoint_service_flows, service, far.name, endpoint)
    assert tb.env.run(until=request).response.status == 200
    (syn_at,) = [at for at, packet in crossed if packet.tcp.flags == TCPFlags.SYN]
    assert swap_at < syn_at < swap_at + tb.datapath.channel.latency_s
    assert [name for name, packet in seen if packet.ip_src == client.ip] == ["egs", "egs"]


def test_a_syn_after_the_swap_runs_whole_on_the_new_instance():
    """Once the swap to the far edge has landed, a new connection's SYN
    takes the new redirect, under the pin of egs: both of its request's
    segments reach the far edge.  The mutation "a pin matches every
    connection of the client" holds them on egs."""
    tb, service, client, far, seen = _swap_rig()
    tb.controller.repoint_service_flows(service, far.name, far.endpoint(service.plan))
    tb.settle(0.01)
    assert tb.run_request(client, service, NGINX.request, timeout=5.0).response.status == 200
    name = far.ingress_host.name
    assert [where for where, packet in seen if packet.ip_src == client.ip] == [name, name]


def test_a_repoint_after_the_idle_out_sends_nothing():
    """The client's redirect to egs has idled out, and its flow is still
    memorized.  A repoint to the far edge then has no installed redirect
    to move and no connection to pin: it changes the memorized flow and
    sends the switch nothing.  The client's next request installs toward
    the far edge from memory, and both of its segments reach it.  It
    used to send a pin of egs and an install toward the far edge."""
    tb, service, client, far, seen = _swap_rig()
    tb.settle(tb.controller.calibration.switch_idle_timeout_s + 1.0)
    assert tb.controller._redirects[client.ip] == {}
    sent = _sent_to_switch(tb)
    endpoint = far.endpoint(service.plan)
    assert tb.controller.repoint_service_flows(service, far.name, endpoint) == 1
    assert sent == []
    assert tb.controller.flow_memory.lookup(client.ip, service).endpoint == endpoint
    assert tb.run_request(client, service, NGINX.request, timeout=5.0).response.status == 200
    name = far.ingress_host.name
    assert [where for where, packet in seen if packet.ip_src == client.ip] == [name, name]


@pytest.mark.parametrize("how", ["handover", "unregister"])
def test_retirement_order_does_not_depend_on_the_hash_seed(how):
    """Eight clients hold a live connection each and are repointed, so
    each owns a ``redirect:<service>:<client>`` and a
    ``drain:<service>:<client>:<mark>`` cookie; then each is handed over
    (``update_client_location``) or, second case, the service is
    unregistered.  Every client's ``redirect:`` delete reaches the
    control channel before its ``drain:`` delete.

    Before a redirect had an owner the two cookies sat in a *set* of
    ``(dpid, cookie)`` tuples and went out in iteration order, so each
    client's order was a coin flipped by ``PYTHONHASHSEED`` and this
    test failed with probability 1 − 2⁻⁸ per seed (at b63004c it fails
    under each of 0–5).  The coin, for ``{(1, "redirect:…:10.0.0.2"),
    (1, "drain:…:10.0.0.2")}`` of this test's first client: seed 1
    iterates ``drain:`` first, seeds 0, 2, 3, 4 and 5 ``redirect:``
    first; ISSUE 24 recorded 0 and 4 against 1, 2, 3 and 5 for another
    pair of cookies.  No latency md5 sees the order; aim 3's
    "determinism holds across PYTHONHASHSEED" forbids it.  CI runs this
    file under seeds 1 and 2.
    """
    tb = docker_testbed()
    far = tb.add_far_edge()
    service = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, service)
    clients = tb.clients[:8]
    for client in clients:  # the first packet deploys, installs, and stays open
        tb.env.run_process(client.connect(service.cloud_ip, service.port, timeout=5.0))
    instance = tb.docker_cluster.endpoint(service.plan)
    assert [  # the switch tracks each client's connection, begun on egs
        marked
        for (ip, *_), marked in tb.switch.connections.items()
        if ip in {client.ip for client in clients}
    ] == [instance] * 8
    moved = tb.controller.repoint_service_flows(
        service, far.name, ServiceEndpoint(far.ingress_host.ip, 30081)
    )
    assert moved == 8
    tb.settle(0.01)

    sent = _sent_to_switch(tb)
    if how == "handover":
        for client in clients:
            tb.controller.update_client_location(client.ip)
    else:
        tb.controller.unregister_service(service)
    for client in clients:
        mine = f"{service.name}:{client.ip}"
        assert [
            text
            for text in sent
            if text == f"delete redirect:{mine}" or text.startswith(f"delete drain:{mine}:")
        ] == [f"delete redirect:{mine}", f"delete drain:{mine}:{instance}"]
