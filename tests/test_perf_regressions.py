"""Regression tests for the hot-path overhaul.

Three contracts the optimisations must not bend:

* the indexed flow-table lookup returns exactly what a linear
  first-match scan in (priority, install order) returns, under any
  interleaving of installs and removals;
* the deadline-driven expiry wakeup emits FlowRemoved at the *same
  simulated times* as the old fixed-interval sweeper;
* a full trace replay is byte-identical across repeated runs (the
  determinism contract, now including the callback-based pipelines).

And budgets in exact counts, no host time: kernel events per warm
request and per Kubernetes first request, Kubernetes-model calls per
deployment, cancelled guards left on the guards' expiry heap, messages
up the control channel per redirect idle-out, server-side connections
left after a replay, Python-level ``__hash__`` / ``__eq__`` calls in a
replay.
"""

from __future__ import annotations

import collections
import contextlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import IPv4Address
from repro.net.openflow import Drop, FlowEntry, FlowMatch, FlowMod, FlowTable
from repro.net.openflow.switch import OpenFlowSwitch
from repro.net.packet import Packet, TCPFlags, TCPSegment
from repro.observe import tap
from repro.sim import Environment

from tests.flowtable_oracle import bare_table, matches, remove, sweep_expired, touch


def _packet(src, dst, sport, dport):
    if not isinstance(src, IPv4Address):
        src = IPv4Address(src)
    if not isinstance(dst, IPv4Address):
        dst = IPv4Address(dst)
    return Packet(
        ip_src=src,
        ip_dst=dst,
        tcp=TCPSegment(sport, dport, TCPFlags.SYN),
    )


def _linear_lookup(table: FlowTable, packet: Packet, mark=None) -> FlowEntry | None:
    """The O(n) semantics: first match by descending priority, earlier
    installs first within one."""
    for entry in sorted(table, key=lambda e: (-e.priority, e._order)):
        if matches(entry.match, packet, mark):
            return entry
    return None


# ---------------------------------------------------------------------------
# (a) indexed vs. linear lookup under installs *and* removals
# ---------------------------------------------------------------------------

_ips = st.integers(min_value=1, max_value=3).map(IPv4Address)
_ports = st.integers(min_value=1, max_value=3)
_maybe_ip = st.one_of(st.none(), _ips)
_maybe_port = st.one_of(st.none(), _ports)
_maybe_mark = st.one_of(st.none(), st.sampled_from(["a", "b"]))

_matches = st.builds(
    FlowMatch,
    ip_src=_maybe_ip,
    ip_dst=_maybe_ip,
    tcp_src=_maybe_port,
    tcp_dst=_maybe_port,
    ct_mark=_maybe_mark,
)

#: An op is either an install (match, priority) or a removal of the
#: i-th still-installed entry (install index modulo live count).
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), _matches, st.integers(0, 5)),
        st.tuples(st.just("remove"), st.integers(0, 30), st.just(0)),
    ),
    min_size=0,
    max_size=30,
)

_probe_packets = st.lists(
    st.tuples(
        st.builds(_packet, src=_ips, dst=_ips, sport=_ports, dport=_ports),
        _maybe_mark,
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops, packets=_probe_packets)
def test_indexed_lookup_matches_linear_scan(ops, packets):
    table = bare_table()
    live: list[FlowEntry] = []
    for i, (kind, arg, priority) in enumerate(ops):
        if kind == "install":
            entry = FlowEntry(arg, [Drop()], priority=priority)
            table.install(entry, now=float(i))
            live.append(entry)
        elif live:
            victim = live.pop(arg % len(live))
            assert remove(table, victim)
    assert table.marked == sum(entry.match.ct_mark is not None for entry in live)
    for packet, mark in packets:
        assert table.lookup(packet, mark) is _linear_lookup(table, packet, mark)


@settings(max_examples=100, deadline=None)
@given(ops=_ops)
def test_index_consistent_after_remove_matching(ops):
    table = bare_table()
    cookies = set()
    for i, (kind, arg, priority) in enumerate(ops):
        if kind == "install":
            cookie = f"c{priority % 3}"
            table.install(
                FlowEntry(arg, [Drop()], priority=priority, cookie=cookie),
                now=float(i),
            )
            cookies.add(cookie)
    if cookies:
        doomed = min(cookies)
        removed = table.remove_matching(doomed)
        assert removed and all(entry.cookie == doomed for entry in removed)
        assert not any(entry.cookie == doomed for entry in table)
        assert table.remove_matching(doomed) == []
    packet = _packet(1, 2, 1, 2)
    assert table.lookup(packet, None) is _linear_lookup(table, packet)


# ---------------------------------------------------------------------------
# (b) deadline-driven expiry == old fixed-interval sweeper
# ---------------------------------------------------------------------------


class _RemovalRecorder:
    """Stub control channel collecting (time, match) per FlowRemoved."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.removals: list[tuple[float, FlowMatch]] = []

    def send_to_controller(self, message) -> None:
        self.removals.append((self.env.now, message.match))


def _reference_sweeper(env: Environment, table: FlowTable, interval: float):
    """The seed's expiry loop: sweep every tick, even when idle."""
    removals: list[tuple[float, FlowMatch]] = []

    def loop():
        while True:
            yield env.timeout(interval)
            for entry in sweep_expired(table, env.now):
                removals.append((env.now, entry.match))

    env.process(loop())
    return removals


def _scripted_entries(rng: random.Random, n: int):
    """Installs (time, idle, touches) exercising every expiry mix."""
    script = []
    for i in range(n):
        t_install = round(rng.uniform(0.0, 5.0), 3)
        idle = rng.choice([0.0, 0.4, 1.0, 2.5])
        touches = sorted(
            round(t_install + rng.uniform(0.05, 4.0), 3)
            for _ in range(rng.randrange(0, 4))
        )
        script.append((t_install, idle, touches))
    return script


def _apply_script(env: Environment, table: FlowTable, script) -> None:
    for i, (t_install, idle, touches) in enumerate(script):

        def installer(t=t_install, idle=idle, touches=touches, i=i):
            yield env.timeout(t)
            entry = FlowEntry(
                FlowMatch(tcp_dst=i + 1),
                [Drop()],
                idle_timeout=idle,
            )
            table.install(entry, env.now)
            for t_touch in touches:
                yield env.timeout(t_touch - env.now)
                touch(entry, env.now)

        env.process(installer())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deadline_expiry_matches_interval_sweeper(seed):
    script = _scripted_entries(random.Random(seed), n=25)

    # Reference: a bare table swept by the seed's fixed-interval loop.
    ref_env = Environment()
    ref_table = bare_table()
    ref_removals = _reference_sweeper(ref_env, ref_table, interval=0.25)
    _apply_script(ref_env, ref_table, script)
    ref_env.run(until=20.0)

    # Under test: the switch's deadline-driven wakeup.
    env = Environment()
    switch = OpenFlowSwitch(env, "sw", datapath_id=1)
    recorder = _RemovalRecorder(env)
    switch.channel = recorder  # type: ignore[assignment]
    _apply_script(env, switch.table, script)
    env.run(until=20.0)

    assert recorder.removals == ref_removals
    assert len(switch.table) == len(ref_table)


def _bounded(expiry, table) -> bool:
    """A switch's expiry heap counts exactly the entries it holds for
    keys that left the table, and holds fewer entries than its
    compaction floor or no more of those than of live ones."""
    stale = sum(entry[2] not in table for entry in expiry.heap)
    return stale == expiry.stale and (len(expiry.heap) < 64 or 2 * stale <= len(expiry.heap))


def test_expiry_wakes_only_when_needed():
    """An idle switch schedules zero events; entries arm exactly the
    ticks needed (no quarter-second heartbeat), and FlowMod deletes and
    a power cycle leave its expiry heap bounded and its last wake with
    nothing to do."""
    env = Environment()
    switch = OpenFlowSwitch(env, "sw", datapath_id=1)
    assert len(env) == 0  # no sweeper process on an empty table

    switch.table.install(
        FlowEntry(FlowMatch(tcp_dst=80), [Drop()], idle_timeout=1.0), env.now
    )
    assert len(env) == 1  # exactly one armed wakeup
    env.run(until=10.0)
    assert len(switch.table) == 0
    # Table empty again: nothing left on the heap.
    assert len(env) == 0

    expiry = switch.table.expiry
    for i in range(100):
        switch.table.install(
            FlowEntry(FlowMatch(tcp_dst=i), [Drop()], idle_timeout=5.0, cookie=i % 10),
            env.now,
        )
    for cookie in range(7):  # ten deletes each: the sixth compacts
        switch.handle_controller_message(FlowMod(command="delete", cookie=cookie))
        assert _bounded(expiry, switch.table)
    assert (len(expiry.heap), expiry.stale) == (40, 10)
    switch.power_cycle()
    assert _bounded(expiry, switch.table) and expiry.heap == []
    assert len(env) == 1  # the armed wake, which finds nothing
    env.run()
    assert len(env) == 0 and env.now == 15.0


# ---------------------------------------------------------------------------
# (c) trace replays are byte-identical run over run
# ---------------------------------------------------------------------------


def test_trace_replay_latencies_byte_identical():
    from repro.workload import BigFlowsParams
    from tests.replayhelpers import replay_time_totals

    params = BigFlowsParams(
        n_services=6,
        n_requests=132,
        duration_s=45.0,
        min_requests_per_service=4,
        n_clients=5,
    )
    first = replay_time_totals(params=params, seed=7)
    assert len(first) == 132
    assert first == replay_time_totals(params=params, seed=7)  # full float precision


def test_cancelled_request_guards_do_not_pile_up():
    """A replay arms two 120 s guards per request (``Host.connect``,
    ``Connection.recv``) and, every request winning, cancels both; 20 s
    of trace end before the first guard is due, so no wakeup ever purges
    one.  What is left on the guards' expiry heap is fewer entries than
    its compaction floor, all of them cancelled — not two per request,
    each holding its guard's closure, the reply it guarded and that
    reply's packet (1 800 entries here when cancelling only flagged)."""
    from repro.workload import BigFlowsParams
    from tests.replayhelpers import replay

    params = BigFlowsParams(n_requests=900, duration_s=20.0)
    tb, summary = replay(params=params)
    assert summary.n_ok == 900
    heap = tb.env._deadlines.heap
    assert len(heap) < 64
    assert all(entry[2].cancelled for entry in heap)
    assert tb.env._deadlines.stale == len(heap)
    # The switch's own expiry heap stays bounded through the replay's
    # idle-outs, a FlowMod delete of everything timed left and a power
    # cycle; the last wake then finds nothing, and an idle switch holds
    # no main-heap entry.
    switch = tb.switch
    expiry = switch.table.expiry
    assert _bounded(expiry, switch.table)
    for cookie in {entry.cookie: None for entry in switch.table if entry.idle_timeout}:
        switch.handle_controller_message(FlowMod(command="delete", cookie=cookie))
        assert _bounded(expiry, switch.table)
    assert len(expiry.heap) < 64  # nothing timed is left
    switch.power_cycle()
    assert expiry.heap == [] and expiry.stale == 0
    if expiry.wake_at is not None:
        tb.env.run(until=expiry.wake_at + 0.01)
    assert expiry.wake_at is None and expiry.heap == []


def test_one_shot_requests_leave_no_server_side_connections():
    """A replayed request is one-shot: it half-closes with its request
    segment (FIN), the server answers with FIN and frees its half, and
    the client frees its own.  What is left in the edge and cloud hosts'
    connection tables is nothing — not one server-side ``Connection``
    per request (900 here when only the client freed its half)."""
    from repro.workload import BigFlowsParams
    from tests.replayhelpers import replay

    tb, summary = replay(params=BigFlowsParams(n_requests=900, duration_s=20.0))
    assert summary.n_ok == 900
    assert len(tb.egs._connections) + len(tb.cloud._connections) == 0


def test_no_python_level_hash_or_eq_in_a_replay():
    """Every key the switch, host and controller hash or compare is a
    built-in value — an address is an ``int``, an endpoint a tuple, the
    TCP flags int bits — so a replay of 900 requests calls no ``__hash__``
    or ``__eq__`` written in Python, a dataclass's generated ones (whose
    ``co_filename`` is ``<string>``) included.  While ``IPv4Address`` and
    ``ServiceEndpoint`` were dataclasses, this replay made 38 960 such
    ``__hash__`` calls and 659 such ``__eq__`` calls.

    The switch applies every action itself, so the same replay calls no
    function defined in ``repro/net/openflow/actions.py`` either.  While
    a rewrite was one ``SetField`` per header field, it made 7 200 calls
    of ``SetField.apply`` and 2 480 of ``SetField.__post_init__``."""
    from repro.net.openflow import actions
    from repro.workload import BigFlowsParams
    from tests.replayhelpers import replay

    called = collections.Counter()
    in_actions = actions.__file__

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (
            code.co_name in ("__hash__", "__eq__") or code.co_filename == in_actions
        ):
            called[f"{code.co_filename}:{code.co_firstlineno} {code.co_name}"] += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        _, summary = replay(params=BigFlowsParams(n_requests=900, duration_s=20.0))
    finally:
        sys.setprofile(outer)
    assert summary.n_ok == 900
    assert dict(called) == {}


# ---------------------------------------------------------------------------
# (d) a warm request's kernel events, exactly
# ---------------------------------------------------------------------------


def _warm_docker_testbed(monkeypatch):
    """A C³ testbed whose Docker instance of one service is running and
    whose first client has its flows installed, the (emptied) record of
    popped heap entries, and the service."""
    from repro.services.catalog import NGINX
    from repro.testbed import C3Testbed, TestbedConfig

    from tests.nethelpers import record_popped_entries

    popped = record_popped_entries(monkeypatch)
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
    service = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, service)
    assert tb.run_request(tb.clients[0], service).response.ok  # installs the flows
    del popped[:]
    return tb, popped, service


def _popped_names(popped) -> list[str]:
    return [getattr(entry, "__name__", type(entry).__name__) for entry in popped]


def _request_on_a_warm_testbed(monkeypatch, client: int):
    """One request from ``tb.clients[client]`` on
    :func:`_warm_docker_testbed`: ``(kernel events, popped entries by
    name, packets through the switch, time_total)`` and the testbed."""
    tb, popped, service = _warm_docker_testbed(monkeypatch)
    events, packets = tb.env.events_processed, tb.switch.stats["rx"]
    result = tb.run_request(tb.clients[client], service)
    assert result.response.ok
    assert tb.env.events_processed - events == len(popped)
    packets = tb.switch.stats["rx"] - packets
    return (len(popped), _popped_names(popped), packets, result.time_total), tb


def test_warm_request_event_budget(monkeypatch):
    """One request to a running, already-redirected service costs 10
    kernel events:

    * 8 — its 4 packets (SYN, SYN-ACK, request, response) cross 2 links
      each, one heap entry per packet per link: 4 arrivals at a host
      (``_deliver``) and 4 at the switch, each of them the arrival
      and the table lookup in one (``_ingress``) — no lookup is ever an
      entry of its own (``_pipeline``);
    * 1 — the client's process ending (``run_request`` waits on it; it
      started hot, ``Environment.run_process``, so no ``_Initialize``);
    * 1 — the server's service time.

    The handshake's last ACK is not a segment of its own: it rides on
    the request, which carries the ACK flag (``PSH|ACK|FIN``).  The
    client's resumptions when the connection opens and when the
    response is in happen inside the ``_deliver`` that brought the
    SYN-ACK / the response (``Event.succeed_tail``): no popped entry is
    the handshake ``Event`` or a ``StoreGet``.  The handler the server
    starts per request ends without an entry (``Environment.spawn``).
    """
    (events, names, packets, _), _ = _request_on_a_warm_testbed(monkeypatch, 0)
    assert events == 10
    assert packets == 4
    assert names.count("_deliver") == names.count("_ingress") == packets
    assert names.count("_pipeline") == 0
    # What is left: the service time, and the client's end.
    assert sorted(set(names) - {"_deliver", "_ingress"}) == ["Process", "Timeout"]


def test_flow_memory_miss_event_budget(monkeypatch):
    """A first request from a new client to an instance that already
    runs costs the warm request's 10 plus the control path's 2: the
    packet-in, landed when the controller's processing time ends
    (``_land_packet_in``: the channel hop and the processing delay in
    one entry), and one channel hop for both flow-mods
    (``_deliver_down``: the reverse entry, then the forward entry and
    the release, sent in one instant and landed in one batch).  It was
    3 while the packet-in's hop (``_deliver_up``) and the handler's
    processing-delay timer were two entries.  The handler starts
    inside the packet-in's entry and ends without an entry; with
    nothing to deploy ``Dispatcher.ensure_deployed`` is not a process —
    so nothing is started (``_Initialize``) and the only ``Process``
    that pops is the client's own, which ``run_request`` waits on."""
    (events, names, _, _), tb = _request_on_a_warm_testbed(monkeypatch, 1)
    deployments = tb.controller.dispatcher.recorder.series("deployments")
    assert len(deployments) == 1  # the first client's; none for this one
    assert events == 10 + 2
    assert names.count("_deliver") == names.count("_ingress") == 4
    assert names.count("_land_packet_in") == 1
    assert names.count("_deliver_up") == 0
    assert names.count("_deliver_down") == 1
    assert names.count("Timeout") == 1  # the service time
    assert names.count("Process") == 1
    assert names.count("_Initialize") == 0


def test_redirect_idle_out_costs_two_up_channel_messages(monkeypatch):
    """A redirect that idles out on the switch and is reinstalled from
    FlowMemory costs the control channel two entries up: the forward
    entry's FlowRemoved (``_deliver_up``) — the redirect's only timed
    entry, and what starts the memorized flow's clock — and the
    packet-in (``_land_packet_in``).  The reverse entry has no timer;
    the controller deletes it on the FlowRemoved, and a delete reports
    nothing.  It was one while no entry reported its idle-out, and 3
    when every entry did."""
    tb, popped, service = _warm_docker_testbed(monkeypatch)
    client = tb.clients[0]
    cookie = f"redirect:{service.name}:{client.ip}"
    assert sum(entry.cookie == cookie for entry in tb.switch.table) == 2
    tb.settle(tb.controller.calibration.switch_idle_timeout_s + 1.0)
    assert not any(entry.cookie == cookie for entry in tb.switch.table)
    assert _popped_names(popped).count("_deliver_up") == 1

    hits = tb.controller.stats["memory_hits"]
    assert tb.run_request(client, service).response.ok
    assert tb.controller.stats["memory_hits"] == hits + 1
    assert _popped_names(popped).count("_deliver_up") == 1
    assert _popped_names(popped).count("_land_packet_in") == 1


def _k8s_first_request(monkeypatch):
    """One first request to a Kubernetes service that was never
    requested: the popped entries, the processes the popped
    ``StoreGet``s resumed, the kernel events, the watch events and the
    request's ``time_total``."""
    from repro.services.catalog import NGINX
    from repro.testbed import C3Testbed, TestbedConfig

    from tests.nethelpers import record_popped_entries

    resumed: list[str] = []

    def note(item):
        if type(item[5]).__name__ == "StoreGet":
            resumed.extend(callback.__self__.name for callback in item[5].callbacks)

    tb = C3Testbed(TestbedConfig(cluster_types=("k8s",)))
    service = tb.register_template(NGINX)
    tb.settle(1.0)
    popped = record_popped_entries(monkeypatch, note)
    api = tb.kubernetes.api
    events, watch_events = tb.env.events_processed, api.stats["events"]
    result = tb.run_request(tb.clients[0], service)
    assert result.response.ok
    return (
        popped,
        resumed,
        tb.env.events_processed - events,
        api.stats["events"] - watch_events,
        result.time_total,
    )


def test_k8s_first_request_event_budget(monkeypatch):
    """A first request on Kubernetes costs 96 kernel events, 52 fewer
    than the 148 it cost with a relay process behind every informer
    handler, every work-queue wake-up a ``StoreGet`` entry and every
    delay of a chain its own ``Timeout`` (``tests/k8shelpers.relays_on_the_heap``
    composed with ``wakes_on_the_heap`` and ``delays_on_the_heap``: the
    control loops as they were, count for count).  Its 17 watch events
    — one per subscriber of each write — arrive in 7 delivery entries,
    one per write, and every handler runs inside its delivery: nothing
    else was due at any of those instants, so no fallback wake-up
    (``_wake``) pops.  What went:

    * 27 — per watch event a ``_fan_out`` onto the subscriber's channel
      (17 entries folded into 7) and a ``StoreGet`` resuming the relay
      that read it (17);
    * 14 — the ``StoreGet``s resuming the workers the work queues feed:
      each worker resumes inside the delivery that woke it, and no
      ``get`` is an entry;
    * 11 — the delays that only pushed the next one
      (``Environment.delays``): the replica-set controller's sync delay
      ahead of its first read (4 syncs), the deployment controller's
      (3) and the scheduler's (1), the kubelet's sync and sandbox ahead
      of the image check (2), and containerd's namespace setup ahead of
      the runtime spawn (1).

    The relay twin alone counts 133, 4 fewer than the three twins less
    the 11: the relays' reads of a non-empty channel at a quiet instant
    are in place too.  The fast count and the two single twins were 11
    higher (107, 144, 121; the full twin 148) while a chain of delays
    was one entry per delay.  Before that, all four (fast, full, relays,
    wakes) were six higher (113, 154, 150, 127) while the deployment's
    hand-offs were heap entries: the starts of the pipeline, the pod
    worker, the container's boot and its restart monitor, an ``AllOf``
    of the one container's ``ready`` and the ``AnyOf`` of
    ``wait_ready`` (``tests/controlhelpers.handoffs_on_the_heap``); one
    higher again (114, 155, 151, 128) while the packet-in's hop and the
    handler's processing timer were two entries; and 5 higher again
    (119, 160, 156, 133) while FlowMemory swept once a simulated second:
    five of its ticks fell inside the request.

    The control channel's part is the same in all four counts: the
    packet-in, landed when its processing time ends (``_land_packet_in``),
    and one hop down, which lands the reverse entry, the forward entry
    and the release together (``_deliver_down``)."""
    from tests.k8shelpers import delays_on_the_heap, relays_on_the_heap, wakes_on_the_heap

    with relays_on_the_heap(), wakes_on_the_heap(), delays_on_the_heap() as chains:
        _, heap_resumed, heap_events, heap_watch_events, _ = _k8s_first_request(
            monkeypatch
        )
        chained = chains()
    with relays_on_the_heap():
        relay_events = _k8s_first_request(monkeypatch)[2]
    with wakes_on_the_heap():
        _, woken, woken_events, _, _ = _k8s_first_request(monkeypatch)
    popped, _, events, watch_events, _ = _k8s_first_request(monkeypatch)
    assert watch_events == heap_watch_events == 17
    assert sum(name.startswith("relay:") for name in heap_resumed) == 17
    assert heap_events == 148
    assert chained == 11
    assert relay_events == heap_events - 4 - chained == 133
    assert woken_events == heap_events - 27 - chained == 110
    assert len(woken) == 14 and all(name.endswith("-worker") for name in woken)
    assert events == woken_events - 14 == 96

    kinds = [getattr(entry, "__qualname__", "") for entry in popped]
    assert kinds.count("ControlChannel._land_packet_in") == 1
    assert kinds.count("ControlChannel._deliver_up") == 0
    assert kinds.count("ControlChannel._deliver_down") == 1
    assert kinds.count("APIServer._deliver") == 7
    assert kinds.count("APIServer._wake") == 0
    assert not any(kind.endswith("_fan_out") for kind in kinds)
    assert not any(type(entry).__name__ == "StoreGet" for entry in popped)


@contextlib.contextmanager
def _every_boundary_tapped():
    """A no-op observer on every method the suite taps, class-wide.
    (``scheduler.policy``, tapped in ``test_local_scheduler.py``, is a
    per-instance callable, and no budget run has the local scheduler.)"""
    from repro.containers.containerd import Containerd
    from repro.core.controller import EdgeController
    from repro.core.dispatcher import Deployment
    from repro.k8s.apiserver import APIServer
    from repro.net import Host
    from repro.net.device import NetworkInterface
    from repro.net.openflow.switch import ControlChannel
    from repro.sim.events import Event

    boundaries = {
        Host: "receive open_port close_port",
        NetworkInterface: "send",
        OpenFlowSwitch: "_pipeline handle_controller_message",
        ControlChannel: "send_to_controller _deliver_up _land_packet_in send_to_switch _deliver_down",
        EdgeController: "repoint_service_flows",
        Deployment: "publish",
        Event: "_succeed_here",
        Containerd: "_boot_application",
        APIServer: "create get try_get update delete _notify",
    }
    with contextlib.ExitStack() as stack:
        for target, names in boundaries.items():
            for name in names.split():
                stack.callback(tap(target, name, lambda *args, **kwargs: None))
        yield


@pytest.mark.parametrize(
    "budget, events",
    [("warm_request", 10), ("flow_memory_miss", 10 + 2), ("k8s_first_request", 96)],
)
def test_event_budgets_hold_with_every_boundary_tapped(monkeypatch, budget, events):
    """The three event budgets above, run once more with a no-op
    observer tapped on every boundary the suite observes: the same
    kernel events, the same popped entries in the same order, and a
    ``time_total`` bit-equal to the untapped run's.  A tap is a wrapper
    frame that returns what the original returns, so an observer that
    schedules nothing moves nothing — the tail hand-off included."""

    def run():
        if budget == "k8s_first_request":
            popped, _, events, watch_events, time_total = _k8s_first_request(monkeypatch)
            return events, _popped_names(popped), watch_events, time_total
        client = {"warm_request": 0, "flow_memory_miss": 1}[budget]
        return _request_on_a_warm_testbed(monkeypatch, client)[0]

    untapped = run()
    with _every_boundary_tapped():
        tapped = run()
    assert tapped == untapped
    assert tapped[0] == events


def test_nothing_pops_to_do_nothing(request, monkeypatch):
    """Over a Kubernetes first request, then one first request /
    FlowMemory-expiry scale-down / re-scale-up cycle on Kubernetes and
    on Docker, each settled past the readiness deadline of its last
    deployment, every popped ``Event`` has somebody to tell — a callback
    that is not an already-fired condition's ``_check`` — except a
    latch: an event a *later* waiter may still yield, so it fires
    whether or not one is there yet.  There are two under ``src/``:
    ``Container.ready``, fired by ``Containerd._boot_application`` (the
    Docker adapter polls the port instead of yielding it; caught here by
    identity), and the ``done`` event ``MigrationManager.migrate`` hands
    out, fired by ``_run_admitted`` (no migration runs here).  A
    ``Store.put`` nobody can wait on, or the end of a process nobody
    holds, is not an entry at all (before that rule, each ``put`` popped
    an event of its own); nor is a readiness deadline a wait outlived
    (while ``wait_ready`` raced an ``AnyOf`` against a main-heap timer,
    that timer popped ``READY_TIMEOUT_S`` later to tell a condition that
    had fired)."""
    import dataclasses

    from repro.containers.containerd import Containerd
    from repro.core.dispatcher import READY_TIMEOUT_S
    from repro.services import DEFAULT_CALIBRATION
    from repro.services.catalog import NGINX
    from repro.sim.events import PENDING, Condition, Event
    from repro.testbed import C3Testbed, TestbedConfig

    from tests.nethelpers import record_popped_entries

    latches: list[Event] = []
    idle: list[Event] = []

    def told(callback) -> bool:
        condition = getattr(callback, "__self__", None)
        return not (isinstance(condition, Condition) and condition._value is not PENDING)

    def note(item):
        if isinstance(item[5], Event) and not any(map(told, item[5].callbacks or ())):
            idle.append(item[5])

    request.addfinalizer(
        tap(Containerd, "_boot_application", lambda _, container: latches.append(container.ready))
    )
    popped = record_popped_entries(monkeypatch, note)
    assert _k8s_first_requests(1)["watch_events"] == 17.0
    calibration = dataclasses.replace(
        DEFAULT_CALIBRATION, switch_idle_timeout_s=5.0, memory_idle_timeout_s=20.0
    )
    for kind in ("k8s", "docker"):
        tb = C3Testbed(
            TestbedConfig(cluster_types=(kind,), auto_scale_down=True),
            calibration=calibration,
        )
        service = tb.register_template(NGINX)
        tb.settle(1.0)
        assert tb.run_request(tb.clients[0], service).response.ok
        tb.settle(30.0)  # switch flows lapse, then memory: scale-down
        assert tb.controller.stats["scale_downs"] == 1
        assert not tb.clusters[0].is_running(service.plan)
        assert tb.run_request(tb.clients[0], service).response.ok
        tb.settle(READY_TIMEOUT_S + 1.0)
    assert len(popped) > 450  # 610: the run is long enough to be a check
    assert [event for event in idle if event not in latches] == []
    assert len(idle) == 2  # Docker's two boots


def _rebind_receive(host, observe) -> None:
    """The hand-rolled shape ``bench/workloads.spy_sources`` still uses."""

    def receive(packet, iface, _orig=host.receive):
        observe(packet, iface)
        _orig(packet, iface)

    host.receive = receive


def _connect_pairs(starts, spy_on=lambda host, observe: tap(host, "receive", observe)):
    """One client-server pair per start instant on identical links,
    each client connecting at its instant, its ``receive`` observed
    through ``spy_on``: the order in which packets were received
    (``"rx"``) and clients resumed (``"connected"``), the instants
    ``Event.succeed_tail`` handed off at, and the environment."""
    from tests.nethelpers import EchoApp, MiniNet, counted_handoffs

    env = Environment()
    net = MiniNet(env)
    order = []

    def connect(client, server):
        yield from client.connect(server.ip, 80)
        order.append(("connected", client.name))

    for i, start in enumerate(starts):
        client, server = net.host(f"client{i}"), net.host(f"server{i}")
        net.wire(client, server)
        server.open_port(80, EchoApp(env))
        spy_on(client, lambda packet, iface, name=client.name: order.append(("rx", name)))
        env.call_at(start, env.spawn, connect(client, server))
    with counted_handoffs() as taken:
        env.run()
    return order, taken, env


def test_simultaneous_syn_acks_fall_back_to_the_heap():
    """Two SYN-ACKs reaching two clients at one instant: each delivery
    finds something else due now (the other delivery, then the first
    wake-up), so both wake-ups are heap entries and the clients resume
    after both deliveries, in arrival order."""
    order, taken, env = _connect_pairs([0.0, 0.0])
    assert order == [
        ("rx", "client0"),
        ("rx", "client1"),
        ("connected", "client0"),
        ("connected", "client1"),
    ]
    assert taken == []
    # Per pair: launch, process start, SYN, SYN-ACK, the wake-up.
    assert env.events_processed == 2 * 5


def test_a_receive_spy_that_calls_the_original_last_keeps_the_handoff():
    """Apart by more than nothing, each client resumes inside the
    delivery of its SYN-ACK — through ``repro.observe.tap``, as every other
    ``receive`` spy under ``tests/`` is."""
    _assert_handoffs_kept()


def test_the_hand_rolled_receive_spy_keeps_the_handoff():
    """The same, through the wrapper ``bench/workloads.spy_sources``
    still rolls by hand: it calls the original last too."""
    _assert_handoffs_kept(_rebind_receive)


def _assert_handoffs_kept(*spy_on) -> None:
    order, taken, env = _connect_pairs([0.0, 1e-6], *spy_on)
    assert order == [
        ("rx", "client0"),
        ("connected", "client0"),
        ("rx", "client1"),
        ("connected", "client1"),
    ]
    assert len(taken) == 2
    assert env.events_processed == 2 * 4


# ---------------------------------------------------------------------------
# (e) Kubernetes host work per deployment does not grow with the cluster
# ---------------------------------------------------------------------------


def _k8s_first_requests(n_services: int, labels_of=None) -> dict[str, float]:
    """Fig. 12's protocol on Kubernetes — one first request at a time to
    never-requested services — under cProfile: exact counts per
    deployment, no host time.  ``labels_of(service name)`` replaces the
    labels (and so the selectors) the adapter would give the objects."""
    import contextlib
    import cProfile
    import pstats
    from unittest import mock

    from repro.cluster.k8s_cluster import K8sEdgeCluster
    from repro.services.catalog import NGINX
    from repro.testbed import C3Testbed, TestbedConfig

    build_deployment = K8sEdgeCluster.build_deployment
    build_service = K8sEdgeCluster.build_service

    def relabelled_deployment(self, plan):
        deployment = build_deployment(self, plan)
        for holder in (deployment.metadata, deployment.spec.template):
            holder.labels = labels_of(plan.service_name)
        deployment.spec.selector = labels_of(plan.service_name)
        return deployment

    def relabelled_service(self, plan, node_port):
        service = build_service(self, plan, node_port)
        service.metadata.labels = labels_of(plan.service_name)
        service.spec.selector = labels_of(plan.service_name)
        return service

    tb = C3Testbed(TestbedConfig(cluster_types=("k8s",)))
    services = [tb.register_template(NGINX) for _ in range(n_services)]
    tb.settle(1.0)
    profile = cProfile.Profile()
    relabel = mock.patch.multiple(
        K8sEdgeCluster,
        build_deployment=relabelled_deployment,
        build_service=relabelled_service,
    )
    with relabel if labels_of else contextlib.nullcontext():
        profile.enable()
        for service in services:
            assert tb.run_request(tb.clients[0], service).response.ok
            tb.settle(0.27)
        profile.disable()
    calls = {"k8s_calls": 0, "selector_matches": 0}
    for (filename, _line, name), row in pstats.Stats(profile).stats.items():
        if "repro/k8s/" in filename.replace("\\", "/"):
            calls["k8s_calls"] += row[1]
            if name == "matches_selector":
                calls["selector_matches"] += row[1]
    api = tb.kubernetes.api.stats
    return {
        "k8s_calls": calls["k8s_calls"] / n_services,
        "selector_matches": calls["selector_matches"] / n_services,
        "api_requests": api["requests"] / n_services,
        "watch_events": api["events"] / n_services,
    }


def test_k8s_calls_per_deployment_do_not_scale_with_services():
    """4x the services cost at most 1.15x the ``repro/k8s`` calls per
    deployment: a kube-proxy resync reprograms the services its journal
    names, not the cluster (a full resync three times per deployment
    made it 523 -> 703, 1.34x; the nested services x pods loop before
    that 861 -> 6 041, 7.0x), and API traffic per deployment is flat."""
    small, large = _k8s_first_requests(10), _k8s_first_requests(40)
    assert large["k8s_calls"] <= 1.15 * small["k8s_calls"], (small, large)
    assert large["watch_events"] == small["watch_events"] == 17.0
    # 22 requests per deployment, plus one try_get whenever the kubelet's
    # 1 s housekeeping tick lands in a pod's Pending window (about one
    # deployment in thirty, at any size: 220 and 881 requests).
    assert small["api_requests"] == 22.0
    assert 22.0 <= large["api_requests"] <= 22.05


def test_selectors_sharing_their_first_pair_cost_no_more_matches():
    """40 services whose selectors all *start* with ``tier=edge`` cost no
    more ``matches_selector`` calls per deployment than 40 whose first
    pairs are distinct: a changed pod finds its services through one
    pair per selector, the rarest, whichever comes first (keyed by the
    first pair, every ready pod met every service: services x pods)."""
    shared = _k8s_first_requests(
        40, lambda name: {"tier": "edge", "edge.service": name}
    )
    distinct = _k8s_first_requests(
        40, lambda name: {"edge.service": name, "tier": "edge"}
    )
    assert shared["selector_matches"] <= distinct["selector_matches"], (shared, distinct)
    assert distinct["selector_matches"] <= 10
