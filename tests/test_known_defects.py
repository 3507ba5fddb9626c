"""The known defects, executable (ROADMAP item 2, step 0 (ii)).

Each test states an invariant the system breaks *today*, as a strict
``xfail``: it must fail, for the recorded reason, until the PR that
fixes the defect deletes the marker — and it breaks the suite if it
ever passes unnoticed.  When no ``xfail`` is left this file is a
regression file and is renamed for it.

All four known races are ordering bugs in the life of one redirect;
each sits in one transition of :class:`repro.core.controller.Redirect`
(DESIGN.md §7, "A redirect's life"):

(a) **Reverse rewrite expires under a response** — ``install``: the
    reverse and forward entries share a cookie but idle out on two
    independent timers, so the reverse one can lapse while forward
    hits keep the other alive, and the next response reaches the
    client from the instance's own address.  Seen: ``c3_replay``
    seeds 2, 4, 9 (1–2 packets of 34 160).  No directed reproduction
    yet.
(b) **Transparency across handover** — ``retire``:
    ``update_client_location`` deletes the client's entries outright
    while its own SYN-ACKs and responses are in flight; it should
    drain them as ``repoint`` does.  Seen: ``handover_storm``, 13–31
    packets of 40 000 over 80 seeds.  No directed reproduction yet (a
    federated ``move_client`` 0.2–1.2 ms into a warm request lost the
    request at 0.2 ms and leaked nothing later).
(c) **A busy service is scaled down** — ``retire`` (plus a barrier)
    does not precede the stop, and, first, the stop should not happen
    at all: :func:`test_busy_service_is_not_scaled_down`.
(d) **Endpoint comes up under a request** — ``repoint``: a request in
    flight in the ~40 ms of ``Dispatcher._background`` →
    ``on_endpoint_ready`` → ``repoint_service_flows`` hangs to its
    120 s ``ConnectionTimeout``.  Seen: ``fed_replay`` seeds 14, 26,
    29, 41 of 100.  No directed reproduction yet; the first
    deliverable is the packet-level story of the request lost at
    seed 14.
"""

from __future__ import annotations

import pytest

from repro.net.host import ConnectionRefused
from repro.services.catalog import NGINX
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
