"""End-to-end tests: controller + testbed, the paper's request paths."""

from __future__ import annotations

import pytest

from repro.cluster.plan import ServiceEndpoint
from repro.core import HybridDockerK8sScheduler, LowLatencyScheduler
from repro.core.schedulers import CloudOnlyScheduler
from repro.net.packet import TCPFlags, TCPSegment
from repro.observe import tap
from repro.services.catalog import ASM, NGINX, NGINX_PY, RESNET
from repro.testbed import C3Testbed, TestbedConfig


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
_D = f"drain:{_SVC}:10.0.0.2"

#: The distinct FlowMods of the table below, as :func:`_wire` renders them.
_REV_R, _FWD_R = f"add {_R} p20 idle=0", f"add {_R} p20 idle=10"
_REV_D, _FWD_D = f"add {_D} p25 idle=0", f"add {_D} p25 idle=10"
_FROM_EGS = "match(ip_src=10.0.0.1, ip_dst=10.0.0.2, tcp_src=30080)"
_FROM_FAR = "match(ip_src=10.0.0.22, ip_dst=10.0.0.2, tcp_src=30081)"
_BACK = "-> set_field:ip_src=203.0.113.1,set_field:tcp_src=80,output:2 buffer=None"
_ANY = "match(ip_src=10.0.0.2, ip_dst=203.0.113.1, tcp_dst=80)"
_CONN = "match(ip_src=10.0.0.2, ip_dst=203.0.113.1, tcp_src=%d, tcp_dst=80)"
_TO_EGS = "-> set_field:ip_dst=10.0.0.1,set_field:tcp_dst=30080,output:1"
_TO_FAR = "-> set_field:ip_dst=10.0.0.22,set_field:tcp_dst=30081,output:23"
_TO_CLOUD = "-> output:22"
_FLOW_MODS = {
    "del R": f"delete {_R}",
    "del D": f"delete {_D}",
    "R rev egs": f"{_REV_R} {_FROM_EGS} {_BACK}",
    "R rev far": f"{_REV_R} {_FROM_FAR} {_BACK}",
    "R fwd egs": f"{_FWD_R} {_ANY} {_TO_EGS} buffer=None",
    "R fwd egs buf7": f"{_FWD_R} {_ANY} {_TO_EGS} buffer=7",
    "R fwd egs buf8": f"{_FWD_R} {_ANY} {_TO_EGS} buffer=8",
    "R fwd far": f"{_FWD_R} {_ANY} {_TO_FAR} buffer=None",
    "R fwd cloud buf7": f"{_FWD_R} {_ANY} {_TO_CLOUD} buffer=7",
    "D rev egs": f"{_REV_D} {_FROM_EGS} {_BACK}",
    "D rev far": f"{_REV_D} {_FROM_FAR} {_BACK}",
    "D fwd egs :40000": f"{_FWD_D} {_CONN % 40000} {_TO_EGS} buffer=None",
    "D fwd egs :40001": f"{_FWD_D} {_CONN % 40001} {_TO_EGS} buffer=None",
    "D fwd far :40000": f"{_FWD_D} {_CONN % 40000} {_TO_FAR} buffer=None",
    "D fwd far :40001": f"{_FWD_D} {_CONN % 40001} {_TO_FAR} buffer=None",
    "D fwd cloud :40000": f"{_FWD_D} {_CONN % 40000} {_TO_CLOUD} buffer=None",
    "D fwd cloud :40001": f"{_FWD_D} {_CONN % 40001} {_TO_CLOUD} buffer=None",
}

#: case -> (steps, the FlowMods they put on the control channel, in order).
#: Endpoints: ``egs`` 10.0.0.1:30080 (switch port 1), ``far`` 10.0.0.22:30081
#: (port 23), ``nowhere`` (no port known), ``cloud`` as FlowMemory records it
#: (203.0.113.1:80, uplink port 22), ``None`` as a resolution spells it; the
#: client sits on port 2.  ``("track", ports)`` sets what conntrack answers.
#: Recorded at b63004c, from the two open-coded installers and the two
#: cookie-deleting loops ``Redirect`` replaced — not from the code under test;
#: then edited for one redirect lifetime: the reverse entry has no idle
#: timeout, the forward one asked for a FlowRemoved, and an install
#: deletes first only over a forward entry it sent (two cases lost the
#: ``del R`` that found nothing); then for one drain lifetime: every timed
#: entry reports its idle-out, so nothing asks, the reverse drain has no
#: idle timeout, and a repoint that cannot pin a connection (no old
#: out-port) sends no drain at all.
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
    "repoint without a conntrack is a reinstall": (
        [("track", None), ("install", "egs", 7), ("repoint", "egs", "far")],
        ["R rev egs", "R fwd egs buf7", "del R", "R rev far", "R fwd far"],
    ),
    "repoint with nothing tracked is a reinstall": (
        [("track", ()), ("install", "egs", 7), ("repoint", "egs", "far")],
        ["R rev egs", "R fwd egs buf7", "del R", "R rev far", "R fwd far"],
    ),
    "repoint with one connection, from an edge endpoint": (
        [("track", (40000,)), ("install", "egs", 7), ("repoint", "egs", "far")],
        [
            "R rev egs", "R fwd egs buf7", "D rev egs", "D fwd egs :40000", "del R",
            "R rev far", "R fwd far",
        ],
    ),
    "repoint with two connections, from an edge endpoint": (
        [("track", (40000, 40001)), ("install", "egs", 7), ("repoint", "egs", "far")],
        [
            "R rev egs", "R fwd egs buf7", "D rev egs", "D fwd egs :40000",
            "D fwd egs :40001", "del R", "R rev far", "R fwd far",
        ],
    ),
    "repoint with one connection, from the cloud": (
        [("track", (40000,)), ("install", None, 7), ("repoint", "cloud", "egs")],
        ["R fwd cloud buf7", "D fwd cloud :40000", "del R", "R rev egs", "R fwd egs"],
    ),
    "repoint with two connections, from the cloud": (
        [("track", (40000, 40001)), ("install", None, 7), ("repoint", "cloud", "egs")],
        [
            "R fwd cloud buf7", "D fwd cloud :40000", "D fwd cloud :40001", "del R",
            "R rev egs", "R fwd egs",
        ],
    ),
    "a second repoint deletes the first one's drains": (
        [
            ("track", (40000,)), ("install", "egs", 7), ("repoint", "egs", "far"),
            ("track", (40000, 40001)), ("repoint", "far", "egs"),
        ],
        [
            "R rev egs", "R fwd egs buf7", "D rev egs", "D fwd egs :40000", "del R",
            "R rev far", "R fwd far", "del D", "D rev far", "D fwd far :40000",
            "D fwd far :40001", "del R", "R rev egs", "R fwd egs",
        ],
    ),
    "repoint from an unknown port sends no drain": (
        [("track", (40000,)), ("install", "nowhere", 7), ("repoint", "nowhere", "egs")],
        ["R rev egs", "R fwd egs"],
    ),
    "retire before a repoint": (
        [("install", "egs", 7), ("retire",)],
        ["R rev egs", "R fwd egs buf7", "del R"],
    ),
    "retire after a repoint": (
        [
            ("track", (40000,)), ("install", "egs", 7), ("repoint", "egs", "far"),
            ("retire",),
        ],
        [
            "R rev egs", "R fwd egs buf7", "D rev egs", "D fwd egs :40000", "del R",
            "R rev far", "R fwd far", "del R", "del D",
        ],
    ),
    "retire with nothing installed": (
        [("retire",)],
        [],
    ),
    "retire after detach sends nothing": (
        [
            ("track", (40000,)), ("install", "egs", 7), ("repoint", "egs", "far"),
            ("detach",), ("retire",),
        ],
        [
            "R rev egs", "R fwd egs buf7", "D rev egs", "D fwd egs :40000", "del R",
            "R rev far", "R fwd far",
        ],
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
        if step == "track":
            (ports,) = args
            tb.controller.conntrack = ports if ports is None else lambda *_, p=ports: p
        elif step == "install":
            redirect.install(port, endpoints[args[0]], args[1])
        elif step == "repoint":
            redirect.repoint(port, endpoints[args[0]], endpoints[args[1]])
        elif step == "retire":
            redirect.retire()
        else:
            assert step == "detach"
            tb.controller.detach(tb.switch)
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
    assert redirect.installed
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


def test_the_reverse_drain_goes_with_the_last_forward_drain():
    """A repoint drains two connections.  The client keeps one of them
    warm; the other's forward drain idles out, the switch reports it,
    and the controller forgets that port and sends nothing.  When the
    warm one goes quiet too, its report is the last, and the controller
    deletes ``drain:`` — the reverse drain, which has no timer."""
    tb, service, endpoints, sent = _redirect_rig()
    client = tb.clients[0]
    port = tb.topology.port_for(tb.datapath.id, client.ip)
    redirect = tb.controller._redirect(tb.datapath, client.ip, service)
    tb.controller.conntrack = lambda *_: (40000, 40001)
    redirect.install(port, endpoints["egs"], None)
    redirect.repoint(port, endpoints["egs"], endpoints["far"])
    idle_s = tb.controller.calibration.switch_idle_timeout_s

    def drains():
        return sorted(
            (entry.match.tcp_src, entry.idle_timeout)
            for entry in tb.switch.table
            if entry.cookie == redirect.drain_cookie
        )

    tb.settle(0.01)
    assert drains() == [(30080, 0.0), (40000, idle_s), (40001, idle_s)]
    for _ in range(5):  # 40000 stays warm for 20 s
        client._send_segment(service.cloud_ip, TCPSegment(40000, service.port, TCPFlags.ACK))
        tb.settle(idle_s * 0.4)
    assert drains() == [(30080, 0.0), (40000, idle_s)]
    assert list(redirect.drained) == [40000]
    tb.settle(2 * idle_s)
    assert drains() == []
    assert redirect.drained == {}
    assert sent.count(_FLOW_MODS["del D"]) == 1


@pytest.mark.parametrize("how", ["handover", "unregister"])
def test_retirement_order_does_not_depend_on_the_hash_seed(how):
    """Eight clients hold a live connection each and are repointed, so
    each owns a ``redirect:`` and a ``drain:`` cookie; then each is
    handed over (``update_client_location``) or, second case, the
    service is unregistered.  Every client's ``redirect:`` delete
    reaches the control channel before its ``drain:`` delete.

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
        assert [text for text in sent if text.endswith(f":{mine}")] == [
            f"delete redirect:{mine}",
            f"delete drain:{mine}",
        ]
