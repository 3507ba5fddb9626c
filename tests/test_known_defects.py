"""The known defects, executable (ROADMAP item 2, step 0 (ii)).

Each test states an invariant the system breaks *today*, as a strict
``xfail``: it must fail, for the recorded reason, until the PR that
fixes the defect deletes the marker — and it breaks the suite if it
ever passes unnoticed.  When no ``xfail`` is left this file is a
regression file and is renamed for it.

Each known defect sits in one transition of an owner (DESIGN.md §7):
(a) and (b) in :class:`repro.core.controller.Redirect` ("A redirect's
life"), (c) and (d) where a :class:`repro.core.dispatcher.Deployment`
hands over to one ("A deployment's life").  (e), in the room rule
that reads the deployments' state, and the stop window of an idle
scale-down are fixed; their tests stay here as regression tests:

(a) **Reverse rewrite expires under a response** — ``install``: the
    reverse and forward entries share a cookie but idle out on two
    independent timers, so the reverse one can lapse while forward
    hits keep the other alive, and the next response reaches the
    client from the instance's own address.  Seen: ``c3_replay``
    seeds 2, 3, 5, 8, 9, 10 and 12 (9 packets over seeds 1–12, 1–2 of
    34 160 each) while the control channel was stop-and-wait and
    installed the reverse entry one hop before the forward one; since
    it pipelines, both land in one batch and seeds 1–12 show none.
    The two independent idle timers remain, so that is not a fix, and
    a clean seed no longer shows one.  No directed reproduction yet.
(b) **Transparency across handover** — ``retire``:
    ``update_client_location`` deletes the client's entries outright
    while its own SYN-ACKs and responses are in flight; it should
    drain them as ``repoint`` does.  Seen: ``handover_storm``, 11–32
    packets of 40 000 over 80 seeds (13–31 on the stop-and-wait
    channel).  No directed reproduction yet (a
    federated ``move_client`` 0.2–1.2 ms into a warm request lost the
    request at 0.2 ms and leaked nothing later).
(c) **A busy service is scaled down** — ``Dispatcher.scale_down_idle``
    → ``Deployment.evict`` → ``Deployment.retire``: the stop should not
    happen at all, and the client's switch entries, kept warm, still
    point at the instance when its port closes:
    :func:`test_busy_service_is_not_scaled_down`.
(d) **Endpoint comes up under a request** — ``Deployment.ready`` →
    ``Redirect.repoint``: a request in flight in the ~40 ms of
    ``on_endpoint_ready`` → ``repoint_service_flows`` hangs to its
    120 s ``ConnectionTimeout``.  Seen: ``fed_replay`` seeds 14, 26,
    29, 41 of 100.  No directed reproduction yet; the first
    deliverable is the packet-level story of the request lost at
    seed 14.
(e) **A deploy in flight took two slots** (fixed) — the room rule,
    ``Dispatcher._has_room``, counted a ``Deployment`` whose *deploy*
    was in flight and, once its container ran, counted it again among
    the running services; it now counts their union:
    :func:`test_a_deploy_in_flight_takes_one_slot`.

**A request under way in an idle stop** (fixed) — the idle scale-down
stopped the instance first (52 ms) and published it stopped after, so a
packet-in in between was still sent to it; it now opens with
``Deployment.evict``, as every leave does:
:func:`test_a_request_in_the_stop_of_an_idle_instance_goes_to_the_cloud`.
Seen: ``c3_churn`` without ``clear_of_sweeps`` lost one request at each
of 11 seeds of 1–100, and none since.
"""

from __future__ import annotations

import pytest

from repro.net.host import ConnectionRefused
from repro.services.catalog import ASM, NGINX
from repro.testbed import C3Testbed, TestbedConfig


@pytest.mark.xfail(
    strict=True,
    raises=ConnectionRefused,
    reason="ROADMAP 2(c): FlowMemory.last_used only moves at packet-ins; a "
    "client that never idles refreshes its switch entries, never causes a "
    "second packet-in, and its memorized flow expires under it",
)
def test_busy_service_is_not_scaled_down():
    """One client requests every 5 s.  Its 10 s switch entries are
    always refreshed, so the controller hears of it exactly once
    (``packet_in == 1``) — and 60 s after that one packet-in FlowMemory
    declares the flow idle and scales the instance down under the
    busiest client there is.  The paper's invariant is "FlowMemory
    drives scale-down of *idle* services only".

    Today: 13 × 200, then ``ConnectionRefused`` at the 14th request
    (t ≈ 67.5 s) and at every one after it, ``scale_downs == 1``.
    """
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",), auto_scale_down=True))
    service = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, service)
    stats = tb.controller.stats
    for nth in range(1, 17):
        started = tb.env.now
        try:
            result = tb.run_request(tb.clients[0], service, NGINX.request)
        except ConnectionRefused:
            # The recorded shape of the defect; anything else is another bug.
            assert (nth, stats["scale_downs"], stats["packet_in"]) == (14, 1, 1)
            raise
        assert result.response.status == 200
        tb.env.run(until=started + 5.0)
    assert stats["scale_downs"] == 0


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
