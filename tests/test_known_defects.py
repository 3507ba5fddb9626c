"""The known defects, executable (ROADMAP items 2 and 3).

Each open defect is an ``xfail`` here once it has a directed
reproduction, strict by ``xfail_strict`` in ``pyproject.toml``: it must
fail, for the recorded reason, until the change that fixes it deletes
the marker.  A fixed defect's test stays as a
regression test.  When no defect is open this file is a regression file
and is renamed for it.

Each defect sits in one transition of an owner (DESIGN.md §7): (a), (a′)
and (b) in :class:`repro.core.controller.Redirect` ("A redirect's life"),
(c) and (d) where a :class:`repro.core.dispatcher.Deployment` hands over
to one ("A deployment's life").

Open, with no directed reproduction yet:

(b) **Transparency across handover** — ``retire``:
    ``update_client_location`` deletes the client's entries outright
    while its own SYN-ACKs and responses are in flight; it should
    drain them as ``repoint`` does.  Seen: ``handover_storm``, 11–32
    packets of 40 000 over 80 seeds (13–31 on the stop-and-wait
    channel).  (A federated ``move_client`` 0.2–1.2 ms into a warm
    request lost the request at 0.2 ms and leaked nothing later.)
(d) **Endpoint comes up under a request** — ``Deployment.ready`` →
    ``Redirect.repoint``: a request in flight in the ~40 ms of
    ``on_endpoint_ready`` → ``repoint_service_flows`` hangs to its
    120 s ``ConnectionTimeout``.  Seen: ``fed_replay`` seeds 14, 26,
    29, 41 of 100.  The first deliverable is the packet-level story of
    the request lost at seed 14.

Fixed, with their regression tests:

(a) **Reverse rewrite expires under a response** — ``install`` gave the
    reverse and forward entries two idle timers, so the reverse one
    lapsed while forward hits kept the other alive, and the next packet
    from the instance reached the client from its own address.  Now one
    redirect has one timer, the forward entry's, and the controller
    deletes the reverse entry when the switch reports the forward one
    idle: :func:`test_an_instance_that_stays_silent_still_answers_as_the_cloud`.
(a′) **Reverse drain expires under a response** — ``repoint`` gave
    every drain its own idle timer, so the reverse drain lapsed while a
    connection the client kept warm held its forward drain.  Now only
    forward drains are timed; the switch reports each idle-out, and the
    controller deletes the reverse drain with the last forward one:
    :func:`test_a_drained_connection_still_answers_as_the_cloud`.
(c) **A busy service was scaled down** — FlowMemory's clock moved only
    at packet-ins, so a client that kept its switch entries warm had
    its memorized flow expire under it, and its instance was stopped.
    Now the clock starts only when the switch reports the client's
    redirect idle: :func:`test_busy_service_is_not_scaled_down`.
(e) **A deploy in flight took two slots** — the room rule,
    ``Dispatcher._has_room``, counted a ``Deployment`` whose *deploy*
    was in flight and, once its container ran, counted it again among
    the running services; it now counts their union:
    :func:`test_a_deploy_in_flight_takes_one_slot`.
**A request under way in an idle stop** — the idle scale-down stopped
    the instance first (52 ms) and published it stopped after, so a
    packet-in in between was still sent to it; it now opens with
    ``Deployment.evict``, as every leave does:
    :func:`test_a_request_in_the_stop_of_an_idle_instance_goes_to_the_cloud`.
    Seen: ``c3_churn`` without ``clear_of_sweeps`` lost one request at
    each of 11 seeds of 1–100, and none since.  The same test holds a
    client sent to the cloud in that stop to the edge once the instance
    is back: a flow memorized to the cloud is replayed only while no
    cluster runs the service.
"""

from __future__ import annotations

from repro.cluster.plan import ServiceEndpoint
from repro.net.packet import TCPFlags, TCPSegment
from repro.observe import tap
from repro.services.catalog import ASM, NGINX
from repro.testbed import C3Testbed, TestbedConfig


def test_busy_service_is_not_scaled_down():
    """One client requests every 5 s.  Its 10 s switch entries are
    always refreshed, so the controller hears of it exactly once
    (``packet_in == 1``) and its redirect never idles out: FlowMemory
    holds the flow, and the instance keeps running.  The paper's
    invariant is "FlowMemory drives scale-down of *idle* services only".

    Before the fix the flow's clock moved only at packet-ins: 60 s after
    the one packet-in FlowMemory declared the flow idle and scaled the
    instance down under the busiest client there is — 13 × 200, then
    ``ConnectionRefused`` at the 14th request (t ≈ 67.5 s) and at every
    one after it, ``scale_downs == 1``.
    """
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",), auto_scale_down=True))
    service = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, service)
    stats = tb.controller.stats
    for nth in range(1, 17):
        started = tb.env.now
        result = tb.run_request(tb.clients[0], service, NGINX.request)
        assert result.response.status == 200, nth
        tb.env.run(until=started + 5.0)
    assert (stats["scale_downs"], stats["packet_in"]) == (0, 1)


def test_an_instance_that_stays_silent_still_answers_as_the_cloud():
    """After one request the client's packets keep hitting its forward
    entry, 4 s apart for 20 s — twice the 10 s switch idle timeout —
    while the instance sends nothing (they are stray segments, which a
    host ignores).  The instance's next packet to the client must still
    leave the switch with the cloud's address as its source.

    Before the fix the reverse entry idled out on its own timer at 10 s,
    and that packet reached the client from ``10.0.0.1:20000``.
    """
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
    service = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, service)
    client = tb.clients[0]
    assert tb.run_request(client, service, NGINX.request).response.status == 200
    instance = tb.docker_cluster.endpoint(service.plan)
    idle_s = tb.controller.calibration.switch_idle_timeout_s
    for _ in range(5):
        client._send_segment(service.cloud_ip, TCPSegment(40000, service.port, TCPFlags.ACK))
        tb.settle(idle_s * 0.4)
    seen = []
    tap(client, "receive", lambda packet, iface: seen.append((packet.ip_src, packet.tcp.src_port)))
    answer = TCPSegment(instance.port, 40000, TCPFlags.ACK)
    tb.egs._send_segment(client.ip, answer, src_ip=instance.ip)
    tb.settle(0.01)
    assert seen == [(service.cloud_ip, service.port)]


def test_a_drained_connection_still_answers_as_the_cloud():
    """After one request the service is repointed to a far edge while
    the gNB tracks one connection, source port 40000, so the repoint
    drains it: a forward drain to the old instance for port 40000 and a
    reverse drain for the old instance's answers.  The client's packets
    on that port keep hitting the forward drain, 4 s apart for 20 s —
    twice the 10 s switch idle timeout — while the old instance sends
    nothing.  Its next packet to the client must still leave the switch
    with the cloud's address as its source, and once the client has been
    quiet for two idle timeouts no ``drain:`` entry is left.

    Before the fix each drain idled out on its own timer: the reverse
    drain lapsed at 10 s, and that packet reached the client from
    ``10.0.0.1:20000``.  The mutation "the reverse drain keeps a timer"
    (the switch idle timeout on its add in ``Redirect.repoint``) fails
    here the same way.
    """
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
    far = tb.add_far_edge()
    service = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, service)
    client = tb.clients[0]
    assert tb.run_request(client, service, NGINX.request).response.status == 200
    instance = tb.docker_cluster.endpoint(service.plan)
    tb.controller.conntrack = lambda *_: (40000,)
    moved = tb.controller.repoint_service_flows(
        service, far.name, ServiceEndpoint(far.ingress_host.ip, 30081)
    )
    assert moved == 1
    idle_s = tb.controller.calibration.switch_idle_timeout_s
    for _ in range(5):
        client._send_segment(service.cloud_ip, TCPSegment(40000, service.port, TCPFlags.ACK))
        tb.settle(idle_s * 0.4)
    seen = []
    tap(client, "receive", lambda packet, iface: seen.append((packet.ip_src, packet.tcp.src_port)))
    answer = TCPSegment(instance.port, 40000, TCPFlags.ACK)
    tb.egs._send_segment(client.ip, answer, src_ip=instance.ip)
    tb.settle(0.01)
    assert seen == [(service.cloud_ip, service.port)]
    tb.settle(2 * idle_s)
    drain_cookie = f"drain:{service.name}:{client.ip}"
    assert [entry for entry in tb.switch.table if entry.cookie == drain_cookie] == []


def test_a_deploy_in_flight_takes_one_slot():
    """A two-slot Docker cluster deploys NGINX for a first request; ASM
    must find room throughout — one slot of two is taken.

    Before the fix ``has_capacity`` read False for ASM from 2.755 to
    2.814 s after the request (every millisecond probed), from the
    start of NGINX's container to the end of its wait-ready:
    ``_has_room`` counted the ``Deployment`` whose *deploy* was in
    flight and, again, its running container.
    """
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
    tb.docker_cluster.capacity = 2
    nginx, asm = tb.register_template(NGINX), tb.register_template(ASM)
    dispatcher = tb.controller.dispatcher
    start, full = tb.env.now, []

    def probe() -> None:
        if not dispatcher.gather_states(asm)[0].has_capacity:
            full.append(round(tb.env.now - start, 3))

    for ms in range(4000):
        tb.env.call_at(start + ms / 1000, probe)
    assert tb.run_request(tb.clients[0], nginx, NGINX.request).response.status == 200
    tb.settle(1.0)
    assert full == [], f"no room for ASM from {full[0]} to {full[-1]} s"


def test_a_request_in_the_stop_of_an_idle_instance_goes_to_the_cloud():
    """The sweep finds NGINX idle 60 s after its one request and stops
    it: 12 ms Docker API + 40 ms stop, during which its port is still
    open.  The same client's SYN reaches the controller about 1 ms into
    that stop; it must not be sent to the instance.  The cloud serves
    it and the client's next request, and the next FlowMemory miss
    after the stop redeploys NGINX.

    Before the fix the scale-down stopped the instance first and
    published it stopped after: the scheduler still saw it running and
    the dispatcher answered on the spot, so the request went to the
    stopping instance.  It completed inside the 52 ms, and its switch
    entry sent the client's next request to the closed port:
    ``ConnectionRefused``.

    Once the second client's miss has redeployed NGINX and the first
    client's entry to the cloud has idled out, the first client is served
    at the edge again.  Before that fix its flow, memorized to the cloud,
    was replayed from memory (``memory_hits`` 0 → 1, 62 ms).
    """
    tb = C3Testbed(
        TestbedConfig(n_clients=2, cluster_types=("docker",), auto_scale_down=True)
    )
    service = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, service)
    first, second = tb.clients
    assert tb.run_request(first, service, NGINX.request).response.status == 200
    stats = tb.controller.stats
    tb.settle(59.0)
    while stats["scale_downs"] == 0:
        tb.settle(0.001)
    assert tb.docker_cluster.is_running(service.plan)  # the stop is under way

    for _ in range(2):
        assert tb.run_request(first, service, NGINX.request).response.status == 200
        tb.settle(0.5)
    assert not tb.docker_cluster.is_running(service.plan)
    assert stats["cloud_fallbacks"] == 1

    assert tb.run_request(second, service, NGINX.request).response.status == 200
    assert tb.docker_cluster.is_running(service.plan)
    assert (stats["dispatched"], stats["scale_downs"]) == (3, 1)

    # The first client's entry to the cloud idles out; its next packet-in
    # must not replay the cloud from memory while the instance runs.
    tb.settle(tb.controller.calibration.switch_idle_timeout_s)
    result = tb.run_request(first, service, NGINX.request)
    assert result.response.status == 200
    assert tb.controller.flow_memory.lookup(first.ip, service).cluster_name == "docker"
    assert (stats["dispatched"], stats["memory_hits"]) == (4, 0)
    assert result.time_total < 0.01  # the edge's ~1.4 ms, not the cloud's 62 ms
