"""Cross-cutting property-based and determinism tests."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.controller import EdgeController
from repro.core.flow_memory import FlowMemory
from repro.core.federation import SharedStateHub
from repro.core.schedulers.base import ClientInfo
from repro.core.service_registry import EdgeService
from repro.core.state import ControlPlaneState, InstanceRecord, LinkStatsRecord
from repro.k8s import (
    APIServer,
    Conflict,
    K8sProfile,
    ObjectMeta,
    Pod,
    PodSpec,
    Service,
    ServicePort,
    ServiceSpec,
    matches_selector,
)
from repro.k8s.kubeproxy import KubeProxy
from repro.cluster.base import DeployError, ServiceEndpoint
from repro.net import (
    ConnectionRefused,
    ConnectionTimeout,
    Host,
    HTTPRequest,
    HTTPResponse,
)
from repro.net import link as link_module
from repro.net.addressing import IPAllocator, IPv4Address
from repro.net.device import NetDevice
from repro.net.link import Link, LinkEndpoint
from repro.net.openflow.messages import FlowRemoved, PacketIn
from repro.net.openflow.switch import ControlChannel
from repro.net.openflow import (
    Drop,
    FlowEntry,
    FlowMatch,
    OpenFlowSwitch,
    Output,
)
from repro.net.packet import HEADER_BYTES, Packet, TCPFlags, TCPSegment
from repro.observe import tap
from repro.sdnfw.app import SDNApp
from repro.services import DEFAULT_CALIBRATION
from repro.services.catalog import NGINX
from repro.sim import Environment, Resource, Store
from repro.testbed import C3Testbed, TestbedConfig
from repro.workload import BigFlowsParams, TraceDriver, generate_trace

from tests.controlhelpers import (
    counted_hot_starts,
    counted_shortcuts,
    deployments_on_the_heap,
)
from tests.flowmemory_oracle import ScannedMemory, service_in_use as scanned_in_use
from tests.flowtable_oracle import bare_table, matches
from tests.kernel_oracle import step
from tests.kubeproxy_oracle import (
    Backend,
    FullResync,
    RecordingNode,
    assert_nothing_left_to_program,
    assert_same_programming,
    serve,
)
from tests.link_oracle import TwoEventEndpoint
from tests.nethelpers import (
    Sink,
    counted_handoffs,
    guards_purged_at_the_top,
    handoff_on_the_heap,
)


# ---------------------------------------------------------------------------
# Flow-table semantics vs a brute-force oracle
# ---------------------------------------------------------------------------

_ips = st.integers(min_value=1, max_value=4).map(lambda i: IPv4Address(i))
_ports = st.integers(min_value=1, max_value=4)
_maybe_ip = st.one_of(st.none(), _ips)
_maybe_port = st.one_of(st.none(), _ports)
_maybe_mark = st.one_of(st.none(), st.sampled_from(["10.0.0.1:80", "10.0.0.2:80"]))

_matches = st.builds(
    FlowMatch,
    ip_src=_maybe_ip,
    ip_dst=_maybe_ip,
    tcp_src=_maybe_port,
    tcp_dst=_maybe_port,
    ct_mark=_maybe_mark,
)

_entries = st.lists(
    st.tuples(_matches, st.integers(min_value=0, max_value=5)),
    min_size=0,
    max_size=12,
)

_packets = st.builds(
    lambda src, dst, sport, dport: Packet(
        ip_src=src,
        ip_dst=dst,
        tcp=TCPSegment(sport, dport, TCPFlags.SYN),
    ),
    src=_ips,
    dst=_ips,
    sport=_ports,
    dport=_ports,
)


@settings(max_examples=200, deadline=None)
@given(entries=_entries, packet=_packets, mark=_maybe_mark)
def test_flow_table_lookup_matches_oracle(entries, packet, mark):
    """Lookup always returns the highest-priority, earliest-installed
    matching entry — the invariant transparent redirection rests on —
    for a packet whose connection holds ``mark`` (``None``: no mark)."""
    table = bare_table()
    installed = []
    for i, (match, priority) in enumerate(entries):
        entry = FlowEntry(match, [Drop()], priority=priority)
        table.install(entry, now=float(i))
        installed.append(entry)

    result = table.lookup(packet, mark)

    candidates = [e for e in installed if matches(e.match, packet, mark)]
    if not candidates:
        assert result is None
    else:
        best_priority = max(e.priority for e in candidates)
        oracle = next(e for e in candidates if e.priority == best_priority)
        assert result is oracle


# ---------------------------------------------------------------------------
# Simulation-kernel properties
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_timeouts_fire_in_nondecreasing_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=5),
    jobs=st.lists(
        st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=20
    ),
)
def test_resource_never_exceeds_capacity(capacity, jobs):
    env = Environment()
    resource = Resource(env, capacity)
    active = [0]
    peak = [0]

    def worker(env, hold):
        with resource.request() as req:
            yield req
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield env.timeout(hold)
            active[0] -= 1

    for hold in jobs:
        env.process(worker(env, hold))
    env.run()
    assert peak[0] <= capacity
    assert active[0] == 0


@settings(max_examples=50, deadline=None)
@given(
    items=st.lists(st.integers(), min_size=0, max_size=30),
    getters=st.integers(1, 4),
)
def test_store_preserves_fifo_order(items, getters):
    """Items leave in the order they entered — queued ahead of the
    getter or handed to it while it is blocked — and blocked getters are
    served oldest first (``put`` waking the *newest* one is the mutation
    this fails under, at ``getters=2``; no ``Store`` under ``src/`` has
    a second consumer to notice)."""
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env):
        for _ in items:
            received.append((yield store.get()))

    cut = len(items) // 2
    for item in items[:cut]:
        store.put(item)
    env.process(consumer(env))
    env.run()
    for item in items[cut:]:
        store.put(item)
        env.run()
    assert received == items

    blocked = [store.get() for _ in range(getters)]
    for served in range(getters):
        store.put(served)
    env.run()
    assert [get.value for get in blocked] == list(range(getters))


#: A guard: the instant it is created at, its delay (ties on purpose),
#: and how long after its creation it is cancelled — mostly at once, but
#: at its due instant and after it fired too — or never.  One draw per
#: guard: a schedule has up to 400, and of 3 000 drawn schedules 1 251
#: compact the expiry heap two to six times and 448 once.
_GUARD_INSTANTS = 12
_GUARD_DELAYS = (0, 1, 2, 3, 3, 5, 8, 13)
_GUARD_CANCELS = (None, 0, 0, 0, 0, 0, 1, 2, 4, 9)
_guards = st.integers(
    0, _GUARD_INSTANTS * len(_GUARD_DELAYS) * len(_GUARD_CANCELS) - 1
).map(
    lambda k: (
        k % _GUARD_INSTANTS,
        _GUARD_DELAYS[k // _GUARD_INSTANTS % len(_GUARD_DELAYS)],
        _GUARD_CANCELS[k // _GUARD_INSTANTS // len(_GUARD_DELAYS)],
    )
)


@st.composite
def _guard_schedules(draw):
    n = draw(st.integers(1, 400))
    return draw(st.lists(_guards, min_size=n, max_size=n))


def _guard_run(schedule):
    """Create and cancel the guards of ``schedule`` and run: the fire
    log ``(instant, guard)`` in firing order, the kernel events, the
    instant of every sequence number the main heap drew, in draw order,
    and the environment."""
    env = Environment()
    fired, draws = [], []
    seq = env._seq

    def drawing():
        for n in seq:
            draws.append(env.now)
            yield n

    env._seq = drawing()

    def create(i, delay, cancel_in):
        guard = env.deadline(delay, i)
        guard.callbacks.append(lambda g: fired.append((env.now, g.value)))
        if cancel_in is not None:
            env.call_later(cancel_in, guard.cancel)

    for i, (at, delay, cancel_in) in enumerate(schedule):
        env.call_at(at, create, i, delay, cancel_in)
    env.run()
    return fired, env.events_processed, draws, env


# 64 guards cancelled at once compact the expiry heap, at instant 0, with
# live guards on it: one due later; six due at two tied instants; one
# created after the cancels were scheduled and due at their instant.
_ONE_LIVE_GUARD = [(0, 5, None)] + [(0, 5, 0)] * 64
_TIED_LIVE_GUARDS = [(0, 1, None), (0, 2, None)] * 3 + [(0, 5, 0)] * 64
_LIVE_GUARD_DUE_NOW = [(0, 5, 0)] * 64 + [(0, 0, None)]


@settings(max_examples=150, deadline=None)
@given(schedule=_guard_schedules())
@example(schedule=_ONE_LIVE_GUARD)
@example(schedule=_TIED_LIVE_GUARDS)
@example(schedule=_LIVE_GUARD_DUE_NOW)
def test_compacted_side_heap_fires_the_guards_the_lazy_one_does(schedule):
    """Guards created over a few instants with tied due instants, most
    of them cancelled — before they are due, at their due instant ahead
    of and behind its wakeup, after they fired, or never — in numbers
    that cross the compaction floor again and again: every guard fires
    at the instant and in the order it fires when ``cancel`` only flags
    it (``tests/nethelpers.guards_purged_at_the_top``, the kernel as it
    was), with the same kernel events and the same sequence numbers
    drawn from the main heap at the same instants; and the guards'
    expiry heap (``env._deadlines``) and its stale count are empty at
    the end.

    Mutations of ``Expiry.discard``'s compaction this fails under (rows
    of ``tools/mutants.json``; the counts of 3 000 draws are in ROADMAP
    Verdicts):

    (a) re-arming the wakeup at the compacted heap's top —
        ``_ONE_LIVE_GUARD``: an extra main-heap entry and draw;
    (b) re-numbering the sequence while rebuilding, in the heap list's
        order — ``_TIED_LIVE_GUARDS``: guards due at one instant fire
        out of order;
    (c) dropping the live guards due at or before now as well —
        ``_LIVE_GUARD_DUE_NOW``: a guard due at the compaction's
        instant, whose wakeup has not popped yet, never fires.
    """
    with guards_purged_at_the_top():
        lazy = _guard_run(schedule)[:3]
    *compacted, env = _guard_run(schedule)
    assert compacted == list(lazy)
    assert env._deadlines.heap == [] and env._deadlines.stale == 0


# ---------------------------------------------------------------------------
# Kubernetes model: indexed reads vs brute-force oracles
# ---------------------------------------------------------------------------

_label_sets = st.dictionaries(
    st.sampled_from(["app", "tier", "edge.service"]),
    st.sampled_from(["x", "y"]),
    max_size=3,
)
_namespaces = st.sampled_from(["default", "other"])
_names = st.sampled_from(["a", "b", "c", "d"])
_owners = st.sampled_from([None, "rs-1", "rs-2"])

#: create also covers create-conflict and re-create of a deleted name;
#: the other three pick their victim by index into the live keys.
_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create"), _names, _namespaces, _label_sets, _owners),
        st.tuples(st.just("relabel"), st.integers(0, 7), _label_sets),
        st.tuples(st.just("replace"), st.integers(0, 7), _label_sets, _owners),
        st.tuples(st.just("delete"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=25,
)


def _call(env: Environment, generator):
    """Drive one API generator to completion."""
    return env.run(until=env.process(generator))


def _brute_force(model, namespace, selector, owner_uid=None):
    """The scan list_nowait used to be, over the test's own model."""
    found = [
        obj
        for (ns, _), obj in model.items()
        if (namespace is None or ns == namespace)
        and matches_selector(obj.metadata.labels, selector)
        and (owner_uid is None or obj.metadata.owner_uid == owner_uid)
    ]
    return sorted(found, key=lambda obj: obj.metadata.uid)


@settings(max_examples=150, deadline=None)
@given(
    ops=_store_ops,
    uid_order=st.permutations(range(25)),
    selectors=st.lists(_label_sets, min_size=1, max_size=4),
)
def test_indexed_list_matches_brute_force_scan(ops, uid_order, selectors):
    """After any create / relabel / replace / delete / re-create
    sequence, every indexed read equals a matches_selector scan sorted
    by uid — with uids deliberately out of insertion order."""
    env = Environment()
    api = APIServer(env)
    model: dict[tuple[str, str], Pod] = {}
    uids = (f"uid-t{n:04d}" for n in uid_order)

    def pod(name, namespace, labels, owner):
        meta = ObjectMeta(
            name, namespace, dict(labels), uid=next(uids), owner_uid=owner
        )
        return Pod(meta, PodSpec())

    for op in ops:
        keys = sorted(model)
        if op[0] == "create":
            new = pod(*op[1:])
            if new.metadata.key in model:
                with pytest.raises(Conflict):
                    _call(env, api.create(new))
            else:
                model[new.metadata.key] = _call(env, api.create(new))
        elif not keys:
            continue
        elif op[0] == "relabel":
            # The same object, relabelled in place, then updated.
            obj = model[keys[op[1] % len(keys)]]
            obj.metadata.labels.clear()
            obj.metadata.labels.update(op[2])
            _call(env, api.update(obj))
        elif op[0] == "replace":
            # A different object (new uid, labels, owner), same key.
            key = keys[op[1] % len(keys)]
            model[key] = _call(env, api.update(pod(key[1], key[0], op[2], op[3])))
        else:
            key = keys[op[1] % len(keys)]
            assert _call(env, api.delete("Pod", key[1], key[0])) is model.pop(key)

        for selector in [None, {}, *selectors]:
            for namespace in (None, "default", "other"):
                for owner in (None, "rs-1"):
                    got = api.list_nowait("Pod", namespace, selector, owner)
                    want = _brute_force(model, namespace, selector or {}, owner)
                    assert [id(o) for o in got] == [id(o) for o in want]
        for obj in model.values():
            assert api.by_uid_nowait("Pod", obj.metadata.uid) is obj
        assert api.by_uid_nowait("Pod", "uid-nobody") is None

    # Fresh lists: a caller may keep or edit what it was handed.
    first = api.list_nowait("Pod", None)
    first.append("scribble")
    assert "scribble" not in api.list_nowait("Pod", None)


#: Small alphabets, so that generated pods and services meet often.
_few_labels = st.dictionaries(
    st.sampled_from(["app", "tier"]), st.sampled_from(["x", "y"]), max_size=2
)
_node_names = st.sampled_from(["n0", "n0", "n1", None, "ghost"])  # ghost: no kubelet
_container_ports = st.sampled_from([{80}, {80, 81}, set()])
#: Few node ports, so that services collide on one and change to another's.
_node_ports = st.sampled_from([None, 30001, 30001, 30002, 30003])
_service_ports = st.lists(
    st.builds(ServicePort, st.just(80), st.sampled_from([80, 80, 81]), node_port=_node_ports),
    min_size=1,
    max_size=2,
)
_victim = st.integers(0, 7)
_proxy_ops = st.one_of(
    # A name from a small pool: create, re-create after a delete, or — if
    # the name is live — a different pod (new uid) under the same key.
    st.tuples(
        st.just("pod"), st.integers(0, 5), _few_labels, _node_names,
        st.booleans(), _container_ports,
    ),
    st.tuples(st.just("service"), _few_labels, _service_ports),
    st.tuples(st.just("flip-ready"), _victim),
    st.tuples(st.just("rebind"), _victim, _node_names),
    st.tuples(st.just("containers"), _victim, _container_ports),
    st.tuples(st.just("relabel"), _victim, _few_labels),
    st.tuples(st.just("reapply"), _victim, _few_labels),
    st.tuples(st.just("reselect"), _victim, _few_labels),
    st.tuples(st.just("node-ports"), _victim, _service_ports),
    st.tuples(st.just("delete-pod"), _victim),
    st.tuples(st.just("delete-service"), _victim),
    st.tuples(st.just("request"), _victim),
)


#: Ops of the kube-proxy property whose victim is a service.
_SERVICE_OPS = ("reselect", "node-ports", "delete-service")
#: Every example starts from a programmed cluster — two services behind
#: node ports, ready pods on both nodes, two replicas on one of them, a
#: rotation under way — so that the generated ops change bindings
#: instead of mostly missing each other.
_PROXY_PRELUDE = [
    [
        ("pod", 0, {"app": "x"}, "n0", True, {80}),
        ("pod", 1, {"app": "x", "tier": "y"}, "n0", True, {80, 81}),
        ("pod", 2, {"tier": "y"}, "n1", True, {80, 81}),
        ("service", {"app": "x"}, [ServicePort(80, 80, node_port=30001)]),
        ("service", {"tier": "y"}, [ServicePort(80, 81, node_port=30002)]),
    ],
    [("request", 0), ("request", 0), ("request", 1)],
]


def _nested_loop_backends(services, pods, nodes):
    """(service uid, node) -> backend apps: services x ports x pods, the
    loop kube-proxy's resync once was.  A later port of a service wins a
    node it shares with an earlier one."""
    want: dict[tuple[str, str], list] = {}
    for service in services:
        for port in service.spec.ports:
            if port.node_port is None:
                continue
            per_node: dict[str, list] = {}
            for pod in sorted(pods, key=lambda p: p.metadata.uid):
                if not pod.status.ready or pod.spec.node_name not in nodes:
                    continue
                if not matches_selector(pod.metadata.labels, service.spec.selector):
                    continue
                app = nodes[pod.spec.node_name].ready_app_for(pod, port.target_port)
                if app is not None:
                    per_node.setdefault(pod.spec.node_name, []).append(app)
            for node_name, apps in per_node.items():
                want[service.metadata.uid, node_name] = apps
    return want


@settings(max_examples=150, deadline=None)
@given(rounds=st.lists(st.lists(_proxy_ops, max_size=10), min_size=1, max_size=4))
def test_kubeproxy_join_matches_nested_loop(rounds):
    """After *every* resync the journal-driven reconciler has done what
    a full resync does on the same live store: the same ``open_port`` /
    ``close_port`` calls in the same order, the same bindings in the
    same order, the same backends and the same rotation position in
    every balancer (``FullResync``, the old code, is the oracle; the
    nested loop checks the oracle's backends in turn).

    The contract for an in-place write is exercised as the kubelet and
    the scheduler honour it: whoever writes ``status.ready``,
    ``spec.node_name``, a service's ``spec`` or the containers behind a
    pod on the stored object says so with ``api.touch(obj)`` in the same
    step.  Labels are different: the store indexes them, so they change
    with the ``update`` that re-indexes them, not before — the in-place
    relabel below first lets pending resyncs fire, so that no resync
    falls between the write and its ``update``."""
    env = Environment()
    api = APIServer(env)
    calls: list = []
    twin_calls: list = []
    nodes = {name: RecordingNode(name, calls) for name in ("n0", "n1")}
    twins = {
        name: RecordingNode(name, twin_calls, apps=node.apps)
        for name, node in nodes.items()
    }
    proxy = KubeProxy(env, api, nodes)
    oracle = FullResync(api, twins)
    pods: dict[str, Pod] = {}
    services: list[Service] = []
    serial = itertools.count()
    resyncs = itertools.count()
    journal_driven_resync = proxy._reconcile_all

    def checked_resync():
        journal_driven_resync()
        oracle.reconcile_all()
        next(resyncs)
        assert calls == twin_calls
        assert_same_programming(proxy, oracle)
        assert {
            key: balancer.backends for key, balancer in proxy._balancers.items()
        } == _nested_loop_backends(services, pods.values(), nodes)

    proxy._reconcile_all = checked_resync

    def set_apps(pod, container_ports):
        for node in nodes.values():
            for port in (80, 81):
                node.apps.pop((pod.metadata.uid, port), None)
            for port in container_ports:
                node.apps[pod.metadata.uid, port] = Backend()

    # Updating this port-less, select-everything service is what
    # triggers each round's resync.
    trigger = Service(ObjectMeta("trigger"), ServiceSpec(ports=[ServicePort(1, 1)]))
    services.append(_call(env, api.create(trigger)))

    for ops in (*_PROXY_PRELUDE, *rounds):
        for op in ops:
            live_pods = list(pods.values())
            victims = services[1:] if op[0] in _SERVICE_OPS else live_pods
            if op[0] == "pod":
                _, n, labels, node_name, ready, container_ports = op
                new = Pod(
                    ObjectMeta(f"pod-{n}", labels=dict(labels)),
                    PodSpec(node_name=node_name),
                )
                new.status.ready = ready
                set_apps(new, container_ports)
                write = api.update if new.metadata.name in pods else api.create
                pods[new.metadata.name] = _call(env, write(new))
            elif op[0] == "service":
                new = Service(
                    ObjectMeta(f"svc-{next(serial)}"),
                    ServiceSpec(selector=dict(op[1]), ports=list(op[2])),
                )
                services.append(_call(env, api.create(new)))
            elif op[0] == "request":
                open_ports = [
                    (name, port) for name in nodes for port in sorted(nodes[name].ports)
                ]
                if open_ports:
                    name, port = open_ports[op[1] % len(open_ports)]
                    assert serve(nodes[name].ports[port]) is serve(twins[name].ports[port])
            elif not victims:
                continue
            elif op[0] == "flip-ready":  # in place, as the kubelet does
                victim = victims[op[1] % len(victims)]
                victim.status.ready = not victim.status.ready
                api.touch(victim)
            elif op[0] == "rebind":  # in place, as the scheduler does
                victim = victims[op[1] % len(victims)]
                victim.spec.node_name = op[2]
                api.touch(victim)
            elif op[0] == "containers":  # the kubelet's pod_containers
                victim = victims[op[1] % len(victims)]
                set_apps(victim, op[2])
                api.touch(victim)
            elif op[0] == "relabel":
                victim = victims[op[1] % len(victims)]
                env.run(until=env.now + 1.0)  # no resync pending any more
                victim.metadata.labels = dict(op[2])
                _call(env, api.update(victim))
            elif op[0] == "reapply":  # a new object, same uid, same key
                victim = victims[op[1] % len(victims)]
                meta = dataclasses.replace(victim.metadata, labels=dict(op[2]))
                new = Pod(meta, victim.spec, victim.status)
                pods[meta.name] = _call(env, api.update(new))
            elif op[0] == "reselect":
                victim = victims[op[1] % len(victims)]
                victim.spec.selector = dict(op[2])
                api.touch(victim)
                _call(env, api.update(victim))
            elif op[0] == "node-ports":
                victim = victims[op[1] % len(victims)]
                victim.spec.ports = list(op[2])
                api.touch(victim)
                _call(env, api.update(victim))
            elif op[0] == "delete-pod":
                victim = victims[op[1] % len(victims)]
                del pods[victim.metadata.name]
                _call(env, api.delete("Pod", victim.metadata.name))
            else:
                victim = victims[op[1] % len(victims)]
                services.remove(victim)
                _call(env, api.delete("Service", victim.metadata.name))
        seen = next(resyncs)
        _call(env, api.update(trigger))
        env.run(until=env.now + 1.0)  # watch + endpoints + kube-proxy sync
        assert next(resyncs) > seen + 1  # the round ended on a checked resync


_cluster_ops = st.lists(
    st.tuples(
        st.floats(0.0, 1.5),  # simulated seconds before the op
        st.one_of(
            st.tuples(
                st.just("deploy"),
                st.integers(1, 2),  # replicas
                st.sampled_from([None, None, 0.7, 2.0]),  # crash_after_s
            ),
            st.tuples(st.just("scale"), _victim, st.integers(0, 3)),
            st.tuples(st.just("delete-pod"), _victim),
            st.tuples(st.just("crash-node"), st.integers(0, 1), st.floats(0.5, 3.0)),
        ),
    ),
    min_size=1,
    max_size=8,
)


def _resync_inputs(cluster, pods, services):
    """uid -> everything about the object a kube-proxy resync reads
    (``container.app`` aside: containerd sets it at boot, in the same
    instant the kubelet turns the pod ready and says so)."""
    api = cluster.api
    seen = {}
    for pod in pods:
        uid = pod.metadata.uid
        seen[uid] = (
            api.by_uid_nowait("Pod", uid) is pod,
            pod.status.ready,
            pod.spec.node_name,
            tuple(pod.metadata.labels.items()),
            [
                tuple(id(c) for c in kubelet.pod_containers.get(uid, ()))
                for kubelet in cluster.kubelets.values()
            ],
        )
    for service in services:
        uid = service.metadata.uid
        seen[uid] = (
            api.by_uid_nowait("Service", uid) is service,
            tuple(service.spec.selector.items()),
            [dataclasses.astuple(port) for port in service.spec.ports],
        )
    return seen


@settings(max_examples=25, deadline=None)
@given(ops=_cluster_ops)
def test_kubeproxy_follows_a_real_cluster(ops):
    """The same equivalence on the real thing — kubelets, scheduler,
    controllers, containerd — through deploys, scalings, crash-looping
    containers, pod deletes and node crashes.  At *every* simulated
    instant (not only when a resync happens to be due):

    * whatever a resync reads has been journaled if it changed — which
      is what a forgotten ``api.touch`` breaks, at any of the write
      sites, including those (the scheduler's bind, the kubelet's
      ``pod_containers``) whose effect on the bindings is nil as long as
      pods become ready last;
    * after a journal-driven resync, a full one would change nothing.
    """
    from tests.test_k8s import _cluster, _deployment, _image, _service
    from repro.k8s import ContainerDef, KubernetesClient, NotFound
    from tests.nethelpers import EchoApp

    env = Environment()
    cluster, registry, nodes = _cluster(env, node_count=2)
    api = cluster.api
    client = KubernetesClient(api)
    image = _image()
    registry.publish(image)
    deployed: list[str] = []

    def restore(runtime):
        runtime.down = False

    def driver():
        for delay, op in ops:
            yield env.timeout(delay)
            if op[0] == "deploy":
                name = f"web{len(deployed)}"
                labels = {"edge.service": name}
                containers = [
                    ContainerDef(
                        name="main", image=image, container_port=80,
                        boot_time_s=0.05, app_factory=EchoApp, crash_after_s=op[2],
                    )
                ]
                yield from client.create_deployment(
                    _deployment(name, image, labels, op[1], containers)
                )
                yield from client.create_service(
                    _service(name, labels, node_port=30080 + len(deployed))
                )
                deployed.append(name)
            elif op[0] == "scale" and deployed:
                yield from client.scale_deployment(deployed[op[1] % len(deployed)], op[2])
            elif op[0] == "delete-pod":
                live = api.list_nowait("Pod")
                if live:
                    try:
                        yield from api.delete("Pod", live[op[1] % len(live)].metadata.name)
                    except NotFound:
                        pass  # its ReplicaSet was quicker
            elif op[0] == "crash-node":
                runtime = nodes[op[1]][1]
                runtime.down = True
                runtime.kill_all()
                env.call_later(op[2], restore, runtime)

    journals = {"Pod": api.journal("Pod"), "Service": api.journal("Service")}
    known: dict[str, dict] = {"Pod": {}, "Service": {}}
    before: dict = {}
    driving = env.process(driver())
    settled_at = None
    while settled_at is None or env.peek() < settled_at:
        if settled_at is None and driving.triggered:
            settled_at = env.now + 8.0
        instant = env.peek()
        while env.peek() == instant:
            step(env)
        for kind, objects in known.items():
            objects.update((o.metadata.uid, o) for o in api.list_nowait(kind, None))
        after = _resync_inputs(cluster, known["Pod"].values(), known["Service"].values())
        written = {uid for journal in journals.values() for uid in journal}
        changed = {uid for uid, inputs in after.items() if before.get(uid) != inputs}
        assert changed <= written, (env.now, changed - written)
        for journal in journals.values():
            journal.clear()
        before = after
        assert_nothing_left_to_program(cluster.kube_proxy)


# ---------------------------------------------------------------------------
# Kubernetes watch handlers: the relay processes they replace
# ---------------------------------------------------------------------------

_k8s_grid = st.integers(0, 25).map(lambda n: n / 100)  # 0-250 ms, 10 ms apart
_k8s_profiles = st.one_of(
    st.none(),
    st.builds(
        K8sProfile,
        **{
            field.name: _k8s_grid
            for field in dataclasses.fields(K8sProfile)
            if field.name != "kubelet_loop_period_s"
        },
        kubelet_loop_period_s=st.integers(1, 100).map(lambda n: n / 100),
    ),
)
_k8s_op = st.one_of(
    st.tuples(
        st.just("deploy"),
        st.integers(1, 3),  # replicas
        st.sampled_from([None, None, 0.7, 2.0]),  # crash_after_s
    ),
    st.tuples(st.just("scale"), _victim, st.integers(0, 3)),
    st.tuples(st.just("delete-deployment"), _victim),
    st.tuples(st.just("delete-pod"), _victim),
    st.tuples(st.just("crash-node"), _victim, st.sampled_from([0.5, 2.0])),
    st.tuples(st.just("add-node")),
)
_k8s_burst = st.lists(
    st.tuples(st.just("scale"), _victim, st.integers(0, 3)), min_size=2, max_size=4
)
#: (nodes, profile or None for the default, [(delay before the step,
#: the ops the step starts in one instant)]).
_k8s_schedules = st.tuples(
    st.integers(1, 3),
    _k8s_profiles,
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 0.006, 0.012, 0.018, 0.036, 0.1, 0.25, 1.0]),
            st.one_of(_k8s_op.map(lambda op: [op]), _k8s_burst),
        ),
        min_size=1,
        max_size=8,
    ),
)


def _k8s_schedule(nodes, profile, steps):
    """Run one schedule on a real ``KubernetesCluster``: ``(log, pod
    table, events processed)``.  The log holds, in order, every API call
    as it is made (instant, verb, kind, key), every watch notification
    (instant, kind, type, name, resource version) and every node port
    opened or closed."""
    from repro.containers import Containerd
    from repro.k8s import ContainerDef, KubernetesClient, NotFound, controllers, objects
    from tests.nethelpers import EchoApp
    from tests.test_k8s import _cluster, _deployment, _image, _service

    log: list[tuple] = []

    def logged(verb):
        def observe(api, *args, lead=0.0):
            # At the instant the request is issued: after its lead.
            if verb in ("create", "update"):
                kind, key = args[0].kind, args[0].metadata.name
            else:
                kind, key = args[0], args[1:2]
            log.append((api.env.now + lead, verb, kind, key))

        return observe

    def notified(api, kind, event_type, obj):
        meta = obj.metadata
        log.append((api.env.now, "notify", kind, event_type, meta.name, meta.resource_version))

    env = Environment()
    with contextlib.ExitStack() as stack:
        # Process-global counters: each run starts them afresh.
        stack.enter_context(mock.patch.object(objects, "_uids", itertools.count(1)))
        stack.enter_context(mock.patch.object(controllers, "_pod_suffix", itertools.count(1)))
        stack.callback(tap(APIServer, "_notify", notified))
        for verb in ("create", "get", "try_get", "update", "delete"):
            stack.callback(tap(APIServer, verb, logged(verb)))
        cluster, registry, hosts = _cluster(env, nodes, profile)
        runtimes = [runtime for _, runtime in hosts]
        for host, _ in hosts:
            _log_ports(host, log)
        client = KubernetesClient(cluster.api)
        image = _image()
        registry.publish(image)
        deployed: list[str] = []

        def restore(runtime):
            runtime.down = False

        def run(op):
            if op[0] == "deploy":
                name = f"web{len(deployed)}"
                labels = {"edge.service": name}
                deployed.append(name)
                containers = [
                    ContainerDef(
                        name="main", image=image, container_port=80,
                        boot_time_s=0.05, app_factory=EchoApp, crash_after_s=op[2],
                    )
                ]
                yield from client.create_deployment(
                    _deployment(name, image, labels, op[1], containers)
                )
                yield from client.create_service(
                    _service(name, labels, node_port=30080 + len(deployed))
                )
            elif op[0] == "scale" and deployed:
                yield from client.scale_deployment(deployed[op[1] % len(deployed)], op[2])
            elif op[0] == "delete-deployment" and deployed:
                yield from client.delete_deployment(deployed[op[1] % len(deployed)])
            elif op[0] == "delete-pod":
                live = cluster.api.list_nowait("Pod")
                if live:
                    yield from cluster.api.delete("Pod", live[op[1] % len(live)].metadata.name)
            elif op[0] == "crash-node":
                runtime = runtimes[op[1] % len(runtimes)]
                runtime.down = True
                runtime.kill_all()
                env.call_later(op[2], restore, runtime)
            elif op[0] == "add-node":
                n = len(runtimes)
                name = f"node{n}"
                host = Host(env, name, IPv4Address(0x0A_00_01_00 + n))
                _log_ports(host, log)
                runtimes.append(Containerd(env, host))
                cluster.add_node(name, host, runtimes[-1])

        def guarded(op):
            try:
                yield from run(op)
            except NotFound:
                pass  # scaled or deleted what was not (or no longer) there

        def driver():
            for delay, ops in steps:
                yield env.timeout(delay)
                for op in ops:
                    env.spawn(guarded(op))

        env.spawn(driver())
        env.run(until=sum(delay for delay, _ in steps) + 10.0)
    pods = sorted(
        (pod.metadata.name, pod.spec.node_name, pod.status.phase, pod.status.ready)
        for pod in cluster.api.list_nowait("Pod", None)
    )
    return log, pods, env.events_processed


# One node, a 2-replica deployment at 0, API and watch latency 60 ms,
# replica-set and scheduler syncs 50 ms: a pod's ADDED is delivered while
# an entry is due at that instant, and the two workers woken from it must
# read in the order their relays would have (0.70 s: replica set, pod).
_TWO_WORKERS_AT_ONE_INSTANT = (
    1,
    K8sProfile(
        api_latency_s=0.06, watch_latency_s=0.06,
        replicaset_sync_s=0.05, scheduler_sync_s=0.05,
    ),
    [(0.0, [("deploy", 2, None)])],
)
# The default profile on one node: web0 (2 replicas) at 24 ms, web1 (3;
# both crash-looping after 2 s) at 204 ms, four scalings started at 240
# ms — web0 -> 3, web0 -> 1, web1 -> 2, web0 -> 0.  The deployment
# controller's two handlers feed one work queue from deliveries that land
# at one instant; at 0.588 s it must reconcile web0 before web1.
_ONE_QUEUE_TWO_HANDLERS = (
    1,
    None,
    [
        (0.024, [("deploy", 2, 2.0)]),
        (0.18, [("deploy", 3, 2.0)]),
        (0.036, [("scale", 0, 3), ("scale", 0, 1), ("scale", 1, 2), ("scale", 0, 0)]),
    ],
)


@settings(max_examples=150, deadline=None)
@given(schedule=_k8s_schedules)
@example(schedule=_TWO_WORKERS_AT_ONE_INSTANT)
@example(schedule=_ONE_QUEUE_TWO_HANDLERS)
def test_watch_handlers_are_the_relays_they_replace(schedule):
    """A real ``KubernetesCluster`` of 1-3 nodes, on the default profile
    or one drawn on a 10 ms grid, under deploys, scalings, deployment
    and pod deletes, node crashes, a node joining mid-run and bursts of
    2-4 scalings started in one instant, steps apart by delays that
    include 0.  The ordered log — every API call, every watch
    notification, every node port opened or closed — and the final pod
    table are equal whether the API server calls each handler where its
    event's delivery lands or every handler sits behind a channel read
    by a relay process (``tests/k8shelpers.relays_on_the_heap``, the API
    server as it was); and the handlers cost no more kernel events.

    Mutations of ``APIServer._deliver`` this fails under (scratch copies,
    3 000 random schedules each; the examples above are the shrunk
    cases, random search is too slow for the first two):

    (a) no ``quiet_now`` guard, handlers always in place — 17 of 3 000,
        ``_TWO_WORKERS_AT_ONE_INSTANT``: the handlers run ahead of an
        entry due at the delivery instant, and the replica-set and
        scheduler workers read in the other order.
    (b) the fallback as one entry running every handler, no mailboxes —
        1 of 3 000, ``_ONE_QUEUE_TWO_HANDLERS``: a subscriber whose
        wake-up is pending runs its next event too early, and the
        deployment controller reconciles web1 before web0.
    (c) handlers in reverse subscription order — 510 of 3 000.

    Every bench digest stays equal under (a) and (b): the md5s cannot
    see them.  Composed with ``wakes_on_the_heap`` (the property below),
    the twin equals the relay code it replaced (``Watch`` and
    ``_fan_out`` as they were under ``src/``) on 3 000 of 3 000
    schedules, event counts included."""
    from tests.k8shelpers import relays_on_the_heap

    with relays_on_the_heap():
        heap_log, heap_pods, heap_events = _k8s_schedule(*schedule)
    log, pods, events = _k8s_schedule(*schedule)
    assert log == heap_log
    assert pods == heap_pods
    assert events <= heap_events


#: Every latency and sync 0, the kubelet's housekeeping every 10 ms: one
#: instant holds a whole chain of writes and wake-ups.
_ALL_AT_ONCE = K8sProfile(
    **{
        field.name: 0.0
        for field in dataclasses.fields(K8sProfile)
        if field.name != "kubelet_loop_period_s"
    },
    kubelet_loop_period_s=0.01,
)
# One node, one 1-replica deployment at 0: the pod's MODIFIED wakes the
# kubelet worker, then the replica-set worker; they must read the API in
# that order (at 0 s: Pod, then ReplicaSet).
_WAKES_IN_PUT_ORDER = (1, _ALL_AT_ONCE, [(0.0, [("deploy", 1, None)])])
# The same with 2 replicas: a worker's get on a non-empty queue while a
# zero-delay entry is due at that instant must stand behind it (at 0 s
# a pod's update goes ahead of the replica-set worker's read).
_GET_BEHIND_AN_ENTRY_DUE_NOW = (1, _ALL_AT_ONCE, [(0.0, [("deploy", 2, None)])])


# One node, API latency 200 ms, watch 90 ms: web0 deployed at 0.25 s,
# scaled to 1 at 0.5 s and deleted at 0.6 s.  At 0.8 s the deployment
# controller's fused sync-and-read must land after the Deployment's
# delete, whose request was issued inside the sync delay.
_READ_BEHIND_A_DELETE = (
    1,
    K8sProfile(api_latency_s=0.2, watch_latency_s=0.09),
    [(0.25, [("deploy", 1, None)]), (0.25, [("scale", 0, 1)]), (0.1, [("delete-deployment", 0)])],
)


@settings(max_examples=150, deadline=None)
@given(schedule=_k8s_schedules)
@example(schedule=_WAKES_IN_PUT_ORDER)
@example(schedule=_GET_BEHIND_AN_ENTRY_DUE_NOW)
@example(schedule=_READ_BEHIND_A_DELETE)
def test_work_queue_wakeups_are_the_entries_they_replace(schedule):
    """The schedules above, on a real ``KubernetesCluster``.  The
    ordered log and the final pod table are equal whether a worker woken
    inside a quiet watch delivery resumes there after the last handler,
    and a ``get`` on a non-empty work queue at a quiet instant is
    processed on the spot (``Store.put``, ``StoreGet``), or every
    wake-up and every such ``get`` is a ``StoreGet`` entry
    (``tests/k8shelpers.wakes_on_the_heap``, the store as it was); and
    the in-place wake-ups cost no more kernel events.

    Mutations this fails under (scratch copies, 3 000 random schedules
    each; the examples above are their shrunk cases):

    (a) each worker resumed at its put (``succeed_tail`` in
        ``Store.put``) instead of after the last handler — 16 of 3 000,
        ``_WAKES_IN_PUT_ORDER``: the replica-set worker reads before the
        kubelet worker.
    (b) the collected wake-ups resumed in reverse order — 901 of 3 000.
    (c) the in-place ``get`` without ``Environment.quiet_now()`` — 6 of
        3 000, ``_GET_BEHIND_AN_ENTRY_DUE_NOW``: the replica-set worker
        reads ahead of a pod's update.

    All six ``cold_deploy`` digests stay equal under each of (a), (b)
    and (c): the md5s cannot see them.  The twin equals the store it
    replaced (``Store.put`` / ``StoreGet`` as they were under ``src/``)
    on 3 000 of 3 000 schedules, event counts included.

    Composed with ``delays_on_the_heap`` — every chain of delays
    (``Environment.delays``) one ``Timeout`` per delay, every lead of a
    read (``APIServer._latency``) a ``Timeout`` of its own — the heap
    side is also the control loops before chains were fused, on every
    schedule inside the fused key's exactness boundary.  A schedule
    beyond it (the twin pushed a chain's last link behind an entry
    pushed at the same instant and due with it: 24 of 1 000 random
    schedules, of which 9 then log otherwise) is held to the wake-ups'
    twin alone.  Mutations of ``Environment.delays`` this fails under,
    on 976 schedules inside the boundary:

    (d) the fused entry keyed at the chain's first instant, not its
        last skipped one — 1 of 976, ``_READ_BEHIND_A_DELETE``: the
        deployment controller reads ahead of a delete it read after.
    (e) the delays summed as ``t0 + (d1 + d2)`` — 469 of 976.

    A stall read at the fused entry's pop instead of the read's issue
    instant is not this property's to see (no schedule stalls the API
    server): ``tests/test_k8s.py`` holds it
    (``test_a_stall_delays_a_read_issued_after_a_lead_as_of_its_issue``)."""
    from tests.k8shelpers import delays_on_the_heap, wakes_on_the_heap

    with wakes_on_the_heap(), delays_on_the_heap() as chains:
        heap_log, heap_pods, heap_events = _k8s_schedule(*schedule)
    if chains.met:
        # Beyond the fused key (``Environment.delays``): the wake-ups
        # alone are held to the store as it was.
        with wakes_on_the_heap():
            heap_log, heap_pods, heap_events = _k8s_schedule(*schedule)
    log, pods, events = _k8s_schedule(*schedule)
    assert log == heap_log
    assert pods == heap_pods
    assert events <= heap_events


# ---------------------------------------------------------------------------
# Control-plane state: a replica is the plain state plus replication
# ---------------------------------------------------------------------------

_sites = st.sampled_from(["site0", "site1"])
_state_writes = st.one_of(
    st.tuples(st.sampled_from(["put_service", "remove_service"]), _ips, _ports),
    st.tuples(st.just("put_client"), _ips, _ports, st.floats(0.0, 9.0)),
    st.tuples(st.just("publish_instance"), _names, _sites, st.booleans()),
    st.tuples(st.just("publish_link_stats"), _sites, _names, st.floats(0.0, 1.0)),
)
_state_ops = st.lists(
    st.one_of(_state_writes, st.tuples(st.just("settle"))),
    min_size=1,
    max_size=30,
)


def _state_argument(op, now):
    """The record one generated write carries (a service's name is a
    function of its address, as the annotator guarantees)."""
    if op[0] in ("put_service", "remove_service"):
        return EdgeService(f"edge-{op[1]}-{op[2]}", op[1], op[2], None, "", "")
    if op[0] == "put_client":
        return ClientInfo(op[1], datapath_id=op[2], in_port=1, last_seen=op[3])
    if op[0] == "publish_instance":
        return InstanceRecord(op[1], "docker", op[2], op[3], None, 0, now)
    return LinkStatsRecord(op[1], op[2], now, 1.0, 0.0, 0.0, op[3])


def _nine_reads(state):
    addresses = [IPv4Address(i) for i in range(1, 5)]
    return [
        [state.service_at(ip, port) for ip in addresses for port in range(1, 5)],
        [state.service_named(service.name) for service in state.services()],
        state.services(),
        [state.client(ip) for ip in addresses],
        state.client_map,
        [state.instances_for(name) for name in "abcd"],
        state.link_stats(),
        state.flows,
        state.breakers,
    ]


@settings(max_examples=150, deadline=None)
@given(ops=_state_ops)
def test_lone_replica_reads_equal_the_plain_state(ops):
    """The same writes applied to a ``ControlPlaneState`` and to a
    ``SiteReplica`` whose hub has no other site: after every step all
    nine reads agree.  (Bites: drop the ``else`` branch of
    ``SiteReplica.put_client`` and a ``last_seen`` refresh is lost.)"""
    env = Environment()
    plain, replica = ControlPlaneState(), SharedStateHub(env).connect("site0")
    for op in ops:
        if op[0] == "settle":  # the hub delivers; nothing echoes back
            env.run(until=env.now + 0.1)
            continue
        argument = _state_argument(op, env.now)
        getattr(plain, op[0])(argument)
        getattr(replica, op[0])(argument)
        assert _nine_reads(replica) == _nine_reads(plain)


def _replicated_reads(state):
    """What replication promises to make equal: every replicated store,
    a client by its location only (a ``last_seen`` refresh stays home)."""
    return [
        state.services(),
        {ip: info.datapath_id for ip, info in state.client_map.items()},
        [state.instances_for(name) for name in "abcd"],
        state.link_stats(),
    ]


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.one_of(
                _state_writes,
                st.tuples(st.just("cut_or_heal")),
                st.tuples(st.just("settle"), st.sampled_from([0.01, 0.025, 0.06])),
            ),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_replicas_converge_after_heal(steps):
    """Three sites write, are cut off from the hub and healed at random
    instants; once every link is up and the last write has landed, all
    replicas read the same.  (Bites: a heal that forgets the inbox, or
    an ``accept`` that stops witnessing remote clocks, so a site's later
    write can lose to the one it overwrote.)"""
    env = Environment()
    hub = SharedStateHub(env, propagation_delay_s=0.025)
    replicas = [hub.connect(f"site{i}") for i in range(3)]
    for site, op in steps:
        replica = replicas[site]
        if op[0] == "cut_or_heal":
            replica.link.down = not replica.link.down
        elif op[0] == "settle":
            env.run(until=env.now + op[1])
        else:
            getattr(replica, op[0])(_state_argument(op, env.now))
    for replica in replicas:
        replica.link.down = False
    env.run(until=env.now + 1.0)
    first, *others = [_replicated_reads(replica) for replica in replicas]
    for reads in others:
        assert reads == first


# ---------------------------------------------------------------------------
# wait_ready: the deadline on the poll grid
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    start=st.floats(0.0, 5000.0),
    timeout_s=st.one_of(st.just(120.0), st.floats(0.0, 300.0)),
    interval=st.one_of(st.just(0.02), st.floats(0.005, 1.0)),
)
def test_wait_ready_gives_up_on_the_poll_loops_tick(start, timeout_s, interval):
    """A wait on a port that never opens gives up at the very instant
    (bit for bit) at which the literal poll loop does — the first tick
    of ``start + interval + interval + ...`` at or after the deadline —
    although it sleeps through the grid until the deadline wakes it."""
    import types

    from repro.cluster.base import EdgeCluster
    from tests.nethelpers import MiniNet
    from tests.test_dispatcher_unit import FakeCluster

    class PortCluster(FakeCluster):
        is_running = EdgeCluster.is_running  # readiness is the port again

    def gave_up_at(cluster_type):
        env = Environment(initial_time=start)
        cluster = cluster_type(env, "edge", MiniNet(env).host("egs"))
        plan = types.SimpleNamespace(service_name="svc")  # all a FakeCluster reads
        cluster._ports[plan.service_name] = 12345  # an endpoint, never a listener
        wait = cluster.wait_ready(plan, poll_interval_s=interval, timeout_s=timeout_s)
        assert env.run(until=env.process(wait)) is False
        return env.now

    assert gave_up_at(PortCluster) == gave_up_at(FakeCluster)


# ---------------------------------------------------------------------------
# Link transmitter: one event per hop vs the two-event chain
# ---------------------------------------------------------------------------

#: A byte serializes in 1/1024 s — a binary fraction, so boundaries that
#: coincide on paper coincide float for float — and the wire sizes add
#: up to one another, so partial sums of different links do coincide.
_LINK_BPS = 8 * 1024.0
_WIRE_BYTES = (100, 200, 300)
#: Hand-over instants and latencies are multiples of half the smallest
#: serialization time.
_SLOT_S = 50 / 1024
_wire_sequences = st.lists(st.sampled_from(_WIRE_BYTES), min_size=1, max_size=4)


@st.composite
def _link_bursts(draw):
    """``(latency slots per link, [(slot, link, wire bytes), ...])``:
    the transmit calls of one burst on 2-4 links into one receiver, in
    call order."""
    links = range(draw(st.integers(2, 4)))
    latency = [draw(st.sampled_from((0, 1, 2))) for _ in links]
    shared = draw(_wire_sequences)
    packets = []  # per link: (slot, wire bytes) in FIFO order
    for _ in links:
        burst = shared if draw(st.booleans()) else draw(_wire_sequences)
        # The burst is handed over at slot 1, in lockstep with the
        # other links (offset 0) or staggered ...
        start = 1 + draw(st.sampled_from((0, 0, 0, 1, 2, 3, 5)))
        # ... to an idle line, or to one busy with an earlier packet.
        earlier = draw(st.sampled_from((0, 0) + _WIRE_BYTES))
        packets.append(
            [(0, earlier)] * bool(earlier) + [(start, wire) for wire in burst]
        )
    # Calls of one instant interleave the links in drawn order.
    turns = draw(st.permutations([i for i in links for _ in packets[i]]))
    calls = [(*packets[link].pop(0), link) for link in turns]
    calls.sort(key=lambda call: call[0])
    return latency, [(slot, link, wire) for slot, wire, link in calls]


def _beyond_the_key(latency, calls) -> bool:
    """Whether two arrivals tie deeper than ``LinkEndpoint``'s key
    looks (see its docstring): same instant, same last two
    serialization boundaries, out of busy periods that did not run in
    lockstep from their first packet."""
    free_at, boundaries, rows = {}, {}, []
    for slot, link, wire in calls:
        now = slot * _SLOT_S
        if link not in free_at or now > free_at[link]:
            begin, boundaries[link] = now, (now,)
        else:
            begin = free_at[link]
            if now == begin:
                # Handed over the instant the line fell free: a chain
                # of events may or may not have seen the line idle.
                boundaries[link] = None
        free_at[link] = end = begin + wire * 8 / _LINK_BPS
        if boundaries[link] is not None:
            boundaries[link] += (end,)
        rows.append(
            (end + latency[link] * _SLOT_S, end, begin, link, boundaries[link])
        )
    return any(
        a[:3] == b[:3] and a[3] != b[3] and (a[4] is None or a[4] != b[4])
        for a, b in itertools.combinations(rows, 2)
    )


def _burst_packet(tag: int, wire: int, tcp_dst: int = 2) -> Packet:
    """A packet tagged by its segment's ``conn_id``, which no hop reads."""
    return Packet(
        ip_src=IPv4Address(1),
        ip_dst=IPv4Address(2),
        tcp=TCPSegment(
            1, tcp_dst, TCPFlags.PSH, payload_bytes=wire - HEADER_BYTES, conn_id=tag
        ),
    )


def _arrivals(endpoint_type, latency, calls):
    env = Environment()
    sink = Sink(env)
    ends = []
    with mock.patch.object(link_module, "LinkEndpoint", endpoint_type):
        for i, slots in enumerate(latency):
            sender = NetDevice(env, f"sender{i}")
            link = Link(
                env,
                sender.add_interface(),
                sink.add_interface(),
                _LINK_BPS,
                slots * _SLOT_S,
            )
            ends.append(link.end_a)
    for tag, (slot, link, wire) in enumerate(calls):
        env.call_at(slot * _SLOT_S, ends[link].transmit, _burst_packet(tag, wire))
    env.run()
    return sink.arrivals


@settings(max_examples=300, deadline=None)
@given(burst=_link_bursts())
# Two links in lockstep whose calls interleave 0, 1, 1, 0: link 0 stays
# first at every depth (a sequence number drawn per transmit call would
# put link 1's second packet first).
@example(burst=([0, 0], [(0, 0, 100), (0, 1, 100), (0, 1, 100), (0, 0, 100)]))
# Two serializations ending together, the busy period that started
# first holding the packet that started last: order is by serialization
# start (a key without ``begin`` would go by busy period).
@example(burst=([0, 0], [(0, 0, 300), (0, 0, 100), (4, 1, 200)]))
def test_one_event_link_delivers_in_the_two_event_order(burst):
    """The ``(packet, time)`` sequence at a receiver fed by several
    links is equal, float for float, whether each hop is one heap entry
    (``LinkEndpoint``) or the chain of two it replaces (the oracle) —
    wherever the endpoint's tie key is documented to decide."""
    latency, calls = burst
    assume(not _beyond_the_key(latency, calls))
    assert _arrivals(LinkEndpoint, latency, calls) == _arrivals(
        TwoEventEndpoint, latency, calls
    )


# ---------------------------------------------------------------------------
# Into a switch: arrival + lookup in one entry vs the chain of three
# ---------------------------------------------------------------------------

#: A packet's ``tcp_dst`` picks its fate in the switch: forwarded out of
#: the one egress port, a table miss punted to the controller, dropped.
_FORWARD, _MISS, _DROP = 2, 3, 4


class _PuntLog:
    """Stub control channel: ``(time, conn id)`` per packet-in."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.punts: list[tuple[float, int]] = []

    def send_to_controller(self, message) -> None:
        self.punts.append((self.env.now, message.packet.tcp.conn_id))


@st.composite
def _switch_bursts(draw):
    """A ``_link_bursts`` burst aimed at a switch: a fate per packet,
    the lookup delay in slots, and up to two ``link.down`` flips as
    ``(slot, link, down)``."""
    latency, calls = draw(_link_bursts())
    fates = draw(
        st.lists(
            st.sampled_from((_FORWARD, _FORWARD, _MISS, _DROP)),
            min_size=len(calls),
            max_size=len(calls),
        )
    )
    # Half a slot keeps lookups off the grid of hand-overs and flips;
    # one or two put them on it.
    lookup = draw(st.sampled_from((0.5, 1, 2)))
    flips = draw(
        st.lists(
            st.tuples(
                st.integers(0, 20),
                st.integers(0, len(latency) - 1),
                st.booleans(),
            ),
            max_size=2,
        )
    )
    return latency, calls, fates, lookup, flips


def _through_a_switch(endpoint_type, latency, calls, fates, lookup, flips):
    env = Environment()
    switch = OpenFlowSwitch(env, "sw", 1, lookup_delay_s=lookup * _SLOT_S)
    switch.channel = punts = _PuntLog(env)
    far = Sink(env, "far")
    looked_up = []
    tap(switch, "_pipeline", lambda packet, in_port: looked_up.append((env.now, packet.tcp.conn_id)))
    links = []
    with mock.patch.object(link_module, "LinkEndpoint", endpoint_type):
        out_port, out_iface = switch.add_port()
        Link(env, out_iface, far.add_interface(), _LINK_BPS, _SLOT_S)
        for i, slots in enumerate(latency):
            sender = NetDevice(env, f"sender{i}")
            links.append(
                Link(
                    env,
                    sender.add_interface(),
                    switch.add_port()[1],
                    _LINK_BPS,
                    slots * _SLOT_S,
                )
            )
    switch.table.install(FlowEntry(FlowMatch(tcp_dst=_FORWARD), [Output(out_port)]), 0.0)
    switch.table.install(FlowEntry(FlowMatch(tcp_dst=_DROP), [Drop()]), 0.0)
    for slot, link, down in flips:
        env.call_at(slot * _SLOT_S, setattr, links[link], "down", down)
    for tag, ((slot, link, wire), fate) in enumerate(zip(calls, fates)):
        env.call_at(
            slot * _SLOT_S,
            links[link].end_a.transmit,
            _burst_packet(tag, wire, tcp_dst=fate),
        )
    env.run()
    return looked_up, far.arrivals, punts.punts, switch.stats


@settings(max_examples=300, deadline=None)
@given(burst=_switch_bursts())
# Two arrivals at slot 6, the packet handed over *later* (slot 2, done
# serializing at 4) ahead of the one handed over first (slot 0, done at
# 6): lookups go in arrival order — the arrival's own key.  A sequence
# number drawn per transmit call with ``now, now`` goes by hand-over
# order, and ``(arrival, arrival, busy-period seq)`` by busy period;
# both put packet 0 first.
@example(
    burst=([0, 2], [(0, 0, 300), (2, 1, 100)], [_FORWARD, _FORWARD], 1, [])
)
# The link goes down at the lookup instant (slot 3) of a packet that
# arrived at slot 2: delivered, the link was up when it arrived
# (reading ``link.down`` in the ingress loses it).
@example(burst=([0, 0], [(0, 0, 100)], [_FORWARD], 1, [(3, 0, True)]))
# ... and down at the arrival instant itself, up again by the lookup:
# lost.
@example(
    burst=([0, 0], [(0, 0, 100)], [_MISS], 1, [(2, 0, True), (3, 0, False)])
)
def test_fused_switch_ingress_is_the_two_event_arrival_then_lookup(burst):
    """Through a real ``OpenFlowSwitch`` fed by several links, the
    ``(time, packet)`` sequence at the table lookup and at the host
    behind the switch, the punt order and the switch's counters are
    equal, float for float, whether a link schedules the switch's
    ingress directly (``LinkEndpoint``) or delivers to
    ``switch.receive`` at the arrival instant, which then schedules the
    lookup (the oracle) — with links going down and up under packets in
    flight, wherever the endpoint's tie key is documented to decide."""
    latency, calls, *_ = burst
    assume(not _beyond_the_key(latency, calls))
    assert _through_a_switch(LinkEndpoint, *burst) == _through_a_switch(
        TwoEventEndpoint, *burst
    )


# ---------------------------------------------------------------------------
# Tail hand-off: a wake-up inside the delivery vs a heap entry of its own
# ---------------------------------------------------------------------------

#: A bare segment (SYN, SYN-ACK) serializes in one unit, a payload
#: of ``u`` units in ``u + 1``; latencies, the lookup delay, service and
#: think times are whole or half units.  Every instant is then a whole
#: number of 1/2048 s, and instants that coincide on paper — at
#: different hosts, at different stages of their conversations —
#: coincide float for float.
_UNIT_S = HEADER_BYTES * 8 / _LINK_BPS
#: The status of a response nobody asked for (the courier's).
_PUSHED = 299

_rounds = st.lists(
    st.tuples(
        st.sampled_from((1, 2, 3)),  # request, units
        st.sampled_from((1, 2, 3)),  # response, units
        # Think time between sending and ``recv``: long enough for the
        # response to be in first.
        st.sampled_from((0, 0, 0, 12)),
        # The ``recv`` deadline, relative to the instant the response
        # arrives when nothing is planted.
        st.sampled_from((None, None, "exact", "late", "early")),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def _conversations(draw):
    """2-4 clients holding keep-alive conversations with a server over
    equal links, and up to two things planted at instants replies
    arrive at: ``(topology, latency, service, clients, plants)``."""
    topology = draw(st.sampled_from(("direct", "switch", "reactive")))
    latency = draw(st.sampled_from((1, 2)))
    service = draw(st.sampled_from((0, 1, 3)))
    shared = draw(_rounds)
    clients = []
    for _ in range(draw(st.integers(2, 4))):
        # In lockstep with the others (offset 0), or staggered.
        start = draw(st.sampled_from((0, 0, 0, 1, 2, 4)))
        rounds = shared if draw(st.booleans()) else draw(_rounds)
        # One round may go through ``http_request`` (curl's samples).
        curl = len(rounds) == 1 and draw(st.booleans())
        clients.append((start, curl, rounds))
    plants = draw(
        st.lists(
            st.tuples(
                st.integers(0, 40),  # which arrival at a client
                # At that very instant, scheduled from time 0 — ahead
                # of the delivery it meets — or from inside the
                # packet's propagation: behind it, where the heap puts
                # the wake-up too.  Or a quarter unit later, an instant
                # nothing else on the grid shares.
                st.sampled_from(("ahead", "behind", "apart")),
                st.sampled_from(("mark", "push")),
                st.integers(0, len(clients) - 1),  # whom to push to
            ),
            max_size=2,
        )
    )
    return topology, latency, service, clients, plants


class _SizedApp:
    """Answers with as many units as the request's path says."""

    def __init__(self, env: Environment, service: int) -> None:
        self.env = env
        self.service = service

    def handle(self, request):
        if self.service:
            yield self.env.timeout(self.service * _UNIT_S)
        return HTTPResponse(
            200, body_bytes=int(request.path) * HEADER_BYTES, header_bytes=0
        )


class _Installer(SDNApp):
    """Controller stub: a table miss installs the entry towards the
    packet's destination, waits for the barrier, releases the packet."""

    def __init__(self, env: Environment, ports, log) -> None:
        super().__init__(env)
        self.ports = ports
        self.log = log

    def on_packet_in(self, datapath, message) -> None:
        self.log.append((self.env.now, "ctl", "packet-in"))
        self.env.spawn(self._install(datapath, message))

    def _install(self, datapath, message):
        actions = [Output(self.ports[message.packet.ip_dst])]
        datapath.add_flow(FlowMatch(ip_dst=message.packet.ip_dst), actions)
        yield datapath.barrier()
        self.log.append((self.env.now, "ctl", "barrier-reply"))
        datapath.packet_out(actions, buffer_id=message.buffer_id)


def _log_traffic(host: Host, log) -> None:
    """Every packet in and out of ``host``."""
    env, name = host.env, host.name

    def logged(direction):
        def observe(packet, *_iface):
            tcp = packet.tcp
            log.append((env.now, name, direction, tcp.flags, tcp.payload_bytes))

        return observe

    tap(host, "receive", logged("rx"))
    tap(host.iface, "send", logged("tx"))


def _conversation(host, server_ip, rounds, deadlines, log, samples):
    env, name = host.env, host.name
    start = env.now
    conn = yield from host.connect(server_ip, 80)
    time_connect = env.now - start
    log.append((env.now, name, "connected"))
    for index, (request, response, think, _deadline) in enumerate(rounds):
        sent = env.now
        conn.send_payload(
            HTTPRequest("GET", str(response), request * HEADER_BYTES, 0),
            request * HEADER_BYTES,
        )
        if think:
            yield env.timeout(think * _UNIT_S)
            log.append((env.now, name, "thought"))
        deadline = deadlines.get(index)
        if deadline is not None and deadline < env.now:
            deadline = None
        try:
            got = yield from conn.recv(
                timeout=None if deadline is None else deadline - env.now
            )
        except ConnectionTimeout:
            log.append((env.now, name, "timeout"))
            break
        log.append((env.now, name, "response", got.status))
        samples.append((name, index, env.now - sent, time_connect))
    conn.close()


def _curl(host, server_ip, round_, deadline, log, samples):
    env, name = host.env, host.name
    request, response, _think, _deadline = round_
    try:
        result = yield from host.http_request(
            server_ip,
            80,
            HTTPRequest("GET", str(response), request * HEADER_BYTES, 0),
            timeout=None if deadline is None else deadline - env.now,
        )
    except ConnectionTimeout:
        log.append((env.now, name, "timeout"))
        return
    log.append((env.now, name, "response", result.response.status))
    samples.append((name, 0, result.time_total, result.time_connect))


def _courier(env: Environment, at: float, client: Host, log):
    """A process that hands ``client`` a payload nobody asked for —
    straight to ``receive``, as its last act — on whatever connection
    the client has open at ``at``."""
    yield env.timeout_at(at)
    conn = next(iter(client._connections.values()), None)
    log.append((env.now, "courier", conn is not None))
    if conn is not None:
        client.receive(
            Packet(
                ip_src=conn.remote_ip,
                ip_dst=client.ip,
                tcp=TCPSegment(
                    conn.remote_port,
                    conn.local_port,
                    TCPFlags.PSH | TCPFlags.ACK,
                    payload_bytes=HEADER_BYTES,
                    payload=HTTPResponse(_PUSHED),
                    conn_id=conn.conn_id,
                ),
            ),
            client.iface,
        )


def _converse(topology, latency, service, clients, plants, replies=None):
    """Run the conversations; ``(log, samples, events processed)`` —
    the log in the order things happened, the samples sorted.

    ``replies`` is ``(arrivals, response_at)`` of a run without it —
    the instants packets reached clients, and ``{(client, round):
    instant}`` of each response — which is where deadlines and plants
    are aimed; without it nothing is planted and nothing has a
    deadline."""
    env = Environment()
    log: list[tuple] = []
    samples: list[tuple] = []
    ips = IPAllocator("10.0.0.0")
    lat = latency * _UNIT_S

    def host(name: str) -> Host:
        made = Host(env, name, ip=ips.allocate())
        _log_traffic(made, log)
        return made

    hosts = [host(f"c{i}") for i in range(len(clients))]
    if topology == "direct":
        servers = [host(f"s{i}") for i in range(len(clients))]
        for client, server in zip(hosts, servers):
            Link(env, client.iface, server.iface, _LINK_BPS, lat)
    else:
        servers = [host("s")] * len(clients)
        switch = OpenFlowSwitch(env, "sw", 1, lookup_delay_s=_UNIT_S / 2)
        ports = {}
        for attached in (*hosts, servers[0]):
            ports[attached.ip], iface = switch.add_port()
            Link(env, attached.iface, iface, _LINK_BPS, lat)
        # Two units: over one-unit links, a down batch that lands at a
        # table lookup's instant was sent before the looked-up packet
        # left its host and pops first, so a barrier reply can share an
        # up batch with a packet-in behind it.
        _Installer(env, ports, log).attach(switch, latency_s=2 * _UNIT_S)
        tap(
            switch,
            "handle_controller_message",
            lambda message: log.append((env.now, "sw", type(message).__name__)),
        )
        if topology == "switch":
            for ip, port in ports.items():
                switch.table.install(
                    FlowEntry(FlowMatch(ip_dst=ip), [Output(port)]), 0.0
                )
    for server in set(servers):
        server.open_port(80, _SizedApp(env, service))

    arrivals, response_at = replies or ([], {})
    for i, (client, server, (start, curl, rounds)) in enumerate(
        zip(hosts, servers, clients)
    ):
        deadlines = {}
        for index, round_ in enumerate(rounds):
            if round_[3] is not None and (i, index) in response_at:
                shift = {"early": -1, "exact": 0, "late": 1}[round_[3]]
                deadlines[index] = response_at[i, index] + shift * _UNIT_S
        if curl:
            talk = _curl(client, server.ip, rounds[0], deadlines.get(0), log, samples)
        else:
            talk = _conversation(client, server.ip, rounds, deadlines, log, samples)
        env.call_at(start * _UNIT_S, env.spawn, talk)
    for which, where, kind, target in plants if arrivals else ():
        at = arrivals[which % len(arrivals)] + (where == "apart") * _UNIT_S / 4
        if kind == "mark":
            plant = (env.call_at, at, log.append, (at, "mark"))
        else:
            plant = (env.spawn, _courier(env, at, hosts[target], log))
        env.call_at(at - _UNIT_S / 2 if where == "behind" else 0.0, *plant)
    env.run()
    return log, sorted(samples), env.events_processed


def _client_replies(log, n_clients):
    """``replies`` for :func:`_converse`, out of a run's log."""
    names = {f"c{i}": i for i in range(n_clients)}
    arrivals, response_at, seen = [], {}, dict.fromkeys(names.values(), 0)
    for at, name, what, *detail in log:
        if what == "rx" and name in names:
            arrivals.append(at)
            if detail[1]:  # a payload: the next response
                client = names[name]
                response_at[client, seen[client]] = at
                seen[client] += 1
    return arrivals, response_at


_ONE_ROUND = [(1, 1, 0, None)]
# Two clients in lockstep, host to host: their SYN-ACKs (and responses)
# land at one instant, so the first delivery finds the second due now
# and must go through the heap — rx, rx, connected, connected.  Without
# the guard the first client resumes between the two deliveries.
_LOCKSTEP = ("direct", 1, 0, [(0, False, _ONE_ROUND)] * 2, [])
# A mark planted from inside the propagation of the first client's
# SYN-ACK, at its arrival instant: it pops after the delivery and
# before the wake-up.
_MARK_BEHIND = (
    "direct", 1, 0, [(0, False, _ONE_ROUND), (1, False, _ONE_ROUND)],
    [(0, "behind", "mark", 0)],
)
# A courier pushes a payload to a client blocked in ``recv``, a quarter
# unit after its SYN-ACK came in — an instant of its own: the client
# resumes inside the courier's process.
_PUSH_TO_READER = (
    "direct", 1, 0, [(0, False, _ONE_ROUND)] * 2, [(0, "apart", "push", 0)],
)
# Table misses in lockstep: three packet-ins land in one batch, and
# three flow-mod + barrier pairs go down in one.
_REACTIVE = (
    "reactive", 1, 0, [(0, False, _ONE_ROUND)] * 3 + [(4, False, _ONE_ROUND)], [],
)
# A barrier reply and a packet-in sent up at one instant land in one
# batch, the reply first: the waiter resumes after the packet-in is
# dispatched, not between the two.
_BARRIER_REPLY_THEN_PACKET_IN = (
    "reactive", 1, 0, [(0, False, _ONE_ROUND), (4, False, _ONE_ROUND)], [],
)


@settings(max_examples=300, deadline=None)
@given(scenario=_conversations())
@example(scenario=_LOCKSTEP)
@example(scenario=_MARK_BEHIND)
@example(scenario=_PUSH_TO_READER)
@example(scenario=_REACTIVE)
@example(scenario=_BARRIER_REPLY_THEN_PACKET_IN)
def test_tail_handoff_is_the_heap_entry_it_replaces(scenario):
    """Real hosts on real links (host to host, or through a real switch
    with entries installed ahead or by a controller stub on table
    miss), conversations in lockstep and staggered, several rounds per
    connection, ``recv`` deadlines that fire exactly when the response
    arrives, payloads that are in before ``recv`` is called, entries
    planted exactly at a reply's arrival instant ahead of and behind
    the delivery, and a courier process calling ``receive`` itself: the
    full trace — every packet in and out of every host, every
    resumption, every control message, in the order things happened,
    and every sample's ``time_total`` / ``time_connect`` — is equal
    whether ``Event.succeed_tail`` hands off or always goes through the
    heap (``tests/nethelpers.handoff_on_the_heap``, the kernel as it
    was), and the event counts differ by exactly the hand-offs taken.

    Mutations of ``succeed_tail`` this fails under (run on a scratch
    copy; the examples above are what hypothesis shrank them to):

    (a) no "nothing else due now" guard — ``_LOCKSTEP``: the first
        client is connected before the second's SYN-ACK is received.
        Every bench digest stays equal under it (six workloads at seed
        42, five at seed 7), though event counts move: the latency md5s
        cannot tell.
    (b) the guard letting an entry due exactly now through
        (``Environment.quiet_now`` with ``>=``) — the same example.
        Nothing on the heap is ever due before now, so this removes
        every ``quiet_now`` guard at once: at seed 42 it moves the
        latency md5s of ``c3_replay``, ``c3_churn`` and ``fed_replay``,
        to the same digests as the deployment shortcut without its
        guard (the property below), while ``succeed_tail``'s guard
        alone made ``>=`` is (a).
    (c) the hand-off used for the barrier reply
        (``SDNApp.dispatch_switch_message``, the one ``succeed``
        reached from ``ControlChannel._deliver_up``, which goes on to
        dispatch the rest of its batch) —
        ``_BARRIER_REPLY_THEN_PACKET_IN``: the waiter resumes ahead of
        the packet-in behind the reply in its batch instead of after
        it.  With the stub's channel at one unit no example can catch
        it: a down batch landing at a lookup's instant pops after the
        lookup, so no packet-in ever follows a reply in a batch.  The
        same 12 digests stay equal, trivially: nothing under ``src/``
        sends a barrier, only this stub does.
    """
    n_clients = len(scenario[3])
    with handoff_on_the_heap():
        replies = _client_replies(_converse(*scenario)[0], n_clients)
        heap_log, heap_samples, heap_events = _converse(*scenario, replies)
    with counted_handoffs() as taken:
        log, samples, events = _converse(*scenario, replies)
    assert log == heap_log
    assert samples == heap_samples
    assert heap_events - events == len(taken)


# ---------------------------------------------------------------------------
# Nothing to deploy, no process: the shortcut vs the process it replaces
# ---------------------------------------------------------------------------

#: The step first requests are launched on: a quarter of a handler's
#: processing delay (800 µs), so packet-ins four steps apart put the
#: later one's delivery on the earlier handler's timer instant.
_HOP_S = 200e-6

_storm_clients = st.lists(
    st.tuples(
        st.booleans(),  # behind the second switch, when there is one
        st.sampled_from((0, 0, 0, 1, 2, 3, 4, 5)),  # first SYN, steps after the launch
    ),
    min_size=2,
    max_size=4,
)
_storm_plants = st.lists(
    st.tuples(
        st.integers(0, 7),  # which handler's instant
        st.sampled_from(("observe", "scale-down", "flow-removed")),
        # Scheduled from the launch — ahead of the handler — from half
        # a channel hop after its packet-in was sent — ahead of it too,
        # since its timer would have been armed at the landing — or from
        # half a hop before the instant: behind it.
        st.sampled_from(("ahead", "in-hop", "behind")),
    ),
    max_size=2,
)
_storms = st.tuples(
    # The cluster the storm deploys to: a Docker engine, or Kubernetes
    # (a pod worker, its lone container's ``ready``, a restart monitor).
    st.sampled_from(("docker", "k8s")),
    st.booleans(),  # a second switch (a gNB trunked to the first)
    # The instance when the SYNs arrive: up; created but scaled down (the
    # first packet-in deploys, the others join it); its port open this
    # instant with ``wait_ready`` still to poll; or refusing to start, a
    # farther cluster running it.
    st.sampled_from(("running", "running", "created", "opening", "failing")),
    _storm_clients,
    _storm_plants,
)


def _message_summary(message) -> tuple:
    return (
        type(message).__name__,
        getattr(message, "cookie", None),
        getattr(message, "buffer_id", None),
    )


@contextlib.contextmanager
def _logged_channels(log, packet_in_batches):
    """Every control message of every channel, when sent and when
    delivered, in both directions: a delivery lands a batch, and logs
    one line per message in it, in send order.  A packet-in is logged
    where its handler starts, and each batch that held only packet-ins
    appends its instant to ``packet_in_batches``."""

    def logged(name):
        def observe(channel, operand):
            for message in operand if name.startswith("_deliver") else (operand,):
                if name != "_deliver_up" or type(message) is not PacketIn:
                    log.append(
                        (channel.env.now, channel.switch.name, name, *_message_summary(message))
                    )
            if name == "_deliver_up" and all(type(m) is PacketIn for m in operand):
                packet_in_batches.append(channel.env.now)

        return observe

    def handled(controller, datapath, message):
        log.append(
            (controller.env.now, datapath.switch.name, "handled", *_message_summary(message))
        )

    with contextlib.ExitStack() as stack:
        for name in (
            "send_to_controller", "_deliver_up", "send_to_switch", "_deliver_down"
        ):
            stack.callback(tap(ControlChannel, name, logged(name)))
        stack.callback(tap(EdgeController, "_handle_packet_in", handled))
        yield


def _log_ports(host: Host, log) -> None:
    for name in ("open_port", "close_port"):
        tap(
            host,
            name,
            lambda port, *_, name=name: log.append((host.env.now, host.name, name, port)),
        )


def _sent_to_land_at(at: float, delay: float) -> float | None:
    """The instant ``x`` with ``x + delay == at`` float for float."""
    for x in (at - delay, math.nextafter(at - delay, 0.0), math.nextafter(at - delay, math.inf)):
        if x + delay == at:
            return x
    return None


def _looking(observe):
    """A process whose whole life is one look (no scale-down)."""
    observe(False)
    yield from ()


def _packet_in_storm(kind, two_switches, state, clients, plants, handler_instants=()):
    """Run one storm of first requests on a real C³ control plane;
    ``(log, samples, events processed, packet-ins, handler instants,
    landings of batches that held only packet-ins, deadlines still armed
    at the end)``.

    ``handler_instants`` are those of a run without them — where the
    plants are aimed; without them nothing is planted."""
    log: list[tuple] = []
    samples: list[tuple] = []
    packet_in_batches: list[float] = []
    with _logged_channels(log, packet_in_batches):
        tb = C3Testbed(
            TestbedConfig(n_clients=1, cluster_types=(kind,)),
            # 35 ms: a boot (60 ms) ends between two polls, not on one.
            calibration=dataclasses.replace(
                DEFAULT_CALIBRATION, port_poll_interval_s=0.035
            ),
        )
        env, controller = tb.env, tb.controller
        dispatcher, cluster = controller.dispatcher, tb.clusters[0]
        gnb = tb.add_gnb() if two_switches else None
        service = tb.register_template(NGINX)
        tb.prepare_created(cluster, service)
        hosts = [tb.new_client(gnb if on_gnb else None) for on_gnb, _ in clients]
        _log_ports(tb.egs, log)
        # A phase call is logged where the pipeline makes it: in its
        # first segment, when the instance is created already.
        tap(cluster, "scale_up", lambda plan: log.append((env.now, cluster.name, "scale_up")))
        if state == "running":
            env.run_process(dispatcher.ensure_deployed(service, cluster))
        elif state == "failing":
            far = tb.add_far_edge()
            tb.prepare_created(far, service)
            env.run_process(dispatcher.ensure_deployed(service, far))

            def refuse(plan):
                yield env.timeout(0.05)
                raise DeployError(f"{plan.service_name}: will not start")

            cluster._start_instance = refuse
        del log[:]

        def curl(host):
            try:
                result = yield from tb.http_request(host, service, timeout=5.0)
            except (ConnectionTimeout, ConnectionRefused) as exc:
                samples.append((host.name, type(exc).__name__))
            else:
                samples.append((host.name, result.time_total))

        def launch():
            for host, (_, steps) in zip(hosts, clients):
                env.call_at(env.now + steps * _HOP_S, env.spawn, curl(host))

        def observe(scale_down):
            log.append(
                (
                    env.now,
                    "observer",
                    sorted(
                        (str(flow.client_ip), flow.cluster_name)
                        for flow in controller.flow_memory.flows_for_service(service)
                    ),
                    sorted(
                        (str(ip), sorted(owned, key=str))  # tcp_src: None or a port
                        for ip, owned in controller._redirects.items()
                    ),
                    cluster.is_running(service.plan),
                )
            )
            if scale_down:
                dispatcher.scale_down_idle(service)

        if state == "opening":
            dispatcher.deploy_in_background(service, cluster)
            # Another process started in the same step: its urgent start
            # is due, and runs first, when the background deploy starts
            # its pipeline.
            env.spawn(_looking(observe))
            open_port = tb.egs.open_port

            def open_then_launch(port, *args):
                open_port(port, *args)
                launch()

            tb.egs.open_port = open_then_launch
        else:
            launch()
        for which, kind, where in plants if handler_instants else ():
            at = handler_instants[which % len(handler_instants)]
            if kind == "flow-removed":
                # Up the first switch's channel, for a client of this
                # storm: delivered at the instant, it is scheduled a hop
                # before it — behind the handler's timer.
                host = hosts[which % len(hosts)]
                channel = tb.switch.channel
                sent = _sent_to_land_at(at, channel.latency_s)
                if sent is not None:
                    env.call_at(
                        sent,
                        channel.send_to_controller,
                        FlowRemoved(FlowMatch(ip_src=host.ip)),
                    )
            else:
                planted_at = {
                    "ahead": env.now,
                    # Half a hop after the send: behind it, and ahead of
                    # the landing.
                    "in-hop": at
                    - controller.packet_in_processing_s
                    - tb.switch.channel.latency_s / 2,
                    "behind": at - _HOP_S / 2,
                }[where]
                env.call_at(planted_at, env.call_at, at, observe, kind == "scale-down")
        env.run(until=env.now + 8.0)
    return (
        log,
        sorted(samples),
        env.events_processed,
        controller.stats["packet_in"],
        [entry[0] for entry in log if entry[2] == "handled"],
        packet_in_batches,
        sum(not guard.cancelled for _, _, guard in env._deadlines.heap),
    )


# Two clients four launch steps (800 µs) apart behind one switch, the
# instance running: the second packet-in's channel hop ends at the
# instant the first handler runs.  In the twin its landing is due there,
# so the first handler's deploy is a process; on the channel that lands
# packet-ins when their processing ends nothing is due, and it answers
# on the spot: the same trace, the landing and the process's two
# entries fewer.
_TIMER_MEETS_PACKET_IN = ("docker", False, "running", [(False, 0), (False, 4)], [])
# Two clients in lockstep: both packet-ins are sent in one instant, and
# both handlers run at one instant, the second due while the first runs.
_LOCKSTEP_STORM = ("docker", False, "running", [(False, 0), (False, 0)], [])
# An observer planted behind a handler's timer at its instant reads
# FlowMemory before the handler writes it.
_OBSERVER_BEHIND = (
    "docker", False, "running", [(False, 0), (False, 2)], [(0, "observe", "behind")],
)
# An observer planted from half a channel hop after the packet-ins were
# sent, at the first handler's instant: it runs before the handler, as
# it would before a timer armed at the landing.
_OBSERVER_IN_HOP = (
    "docker", False, "running", [(False, 0), (False, 0)], [(0, "observe", "in-hop")],
)
# Two switches' packet-ins sent in one instant, two up one channel and
# one up the other: their handlers run at one instant, in send order.
_TWO_CHANNELS_IN_LOCKSTEP = (
    "docker", True, "running", [(False, 0), (False, 0), (True, 0)], [],
)
# The port is open and ``wait_ready`` has 10 ms to its next poll: both
# requests join the deployment in flight and are released when it ends.
# The background deploy started its pipeline cold: the process started
# in its step was due first, and looked first.
_PORT_OPEN_NOT_READY = ("docker", False, "opening", [(False, 0), (False, 0)], [])
# Two requests wait for a deployment that fails; both re-resolve to the
# farther cluster at one instant, sharing one process in the twin.
_FAILS_WITH_TWO_WAITERS = ("docker", True, "failing", [(False, 0), (True, 0)], [])
# Two first requests to a Kubernetes service created but scaled down:
# the pipeline, the pod worker, the boot and the restart monitor start
# hot, and the pod waits on its one container's ``ready`` itself.
_KUBERNETES_SCALES_UP = ("k8s", False, "created", [(False, 0), (False, 0)], [])


@settings(max_examples=150, deadline=None)
@given(storm=_storms)
@example(storm=_TIMER_MEETS_PACKET_IN)
@example(storm=_LOCKSTEP_STORM)
@example(storm=_OBSERVER_BEHIND)
@example(storm=_PORT_OPEN_NOT_READY)
@example(storm=_FAILS_WITH_TWO_WAITERS)
@example(storm=_OBSERVER_IN_HOP)
@example(storm=_TWO_CHANNELS_IN_LOCKSTEP)
@example(storm=_KUBERNETES_SCALES_UP)
def test_deployment_shortcut_is_the_process_it_replaces(storm):
    """A real ``EdgeController`` and ``Dispatcher`` over one or two real
    switches and a Docker or a Kubernetes cluster; 2-4 clients' first requests in
    lockstep and one or more launch steps apart, so that handlers meet
    packet-in landings and each other; the instance running, scaled
    down, its port open with ``wait_ready`` still polling, or failing
    to start under two waiters; a ``FlowRemoved`` for a client's entry
    delivered at a handler's instant, and an observer planted at one —
    ahead of the handler, from inside its packet-in's channel hop, or
    behind it — that reads FlowMemory, ``_redirects`` and
    ``is_running`` and in some draws calls ``scale_down_idle``; while
    the port opens, a second process started in the background deploy's
    step.  The ordered log — every control message, sent and delivered,
    both directions, with its instant, a packet-in where its handler
    starts; every ``scale_up`` call; every ``open_port`` /
    ``close_port``; the observer's readings — the sorted
    ``time_total``s and the deadlines still armed at the end are equal
    whether ``ensure_deployed`` answers on the spot, packet-ins land
    when their processing ends and handlers start hot there, and a
    deployment's hand-offs cost no entry, or every answer is a process,
    every packet-in lands in its batch, every handler starts cold behind
    a processing timer and every hand-off and every link of a chain of
    delays is an entry (``tests/controlhelpers.deployments_on_the_heap``,
    the control plane as it was); and the event counts differ by
    exactly two per shortcut taken, one per handler, one per batch that
    held only packet-ins, one per hot start and one per condition,
    timer or chained delay the twin popped.  (No storm of 1 300 random
    ones met the fused delays' exactness boundary.)

    Mutations this fails under (run on a scratch copy; the examples
    above are what hypothesis shrank them to):

    (a) no "nothing else due now" guard in ``ensure_deployed`` —
        ``_LOCKSTEP_STORM`` (and ``_OBSERVER_BEHIND``): the first
        handler's flow-mods are sent before the second packet-in is
        handled, not after.  On the pipelined control channel it
        moves the latency md5s of ``c3_replay``, ``c3_churn`` and
        ``fed_replay`` at seed 42 (``cold_deploy``, ``handover_storm``
        and ``shard_replay`` stay equal); while the channel was
        stop-and-wait, 4 of 4 digests tried stayed equal.
    (b) ``Environment.quiet_now`` with ``>=`` for ``>`` — the same
        example, the same way.  Nothing on the heap is ever due before
        now, so this is every ``quiet_now`` guard removed at once; at
        seed 42 it moves the same three latency md5s, to the same
        digests as (a).
    (c) the shortcut ahead of the in-flight join —
        ``_PORT_OPEN_NOT_READY``: both requests are released to an
        instance whose deployment has not finished (§VI's reason for
        polling), 9 ms early.  It moves the latency md5s of
        ``c3_replay`` and ``c3_churn`` at seed 42.
    (d) ``Store.put`` waking the *newest* blocked getter — not this
        property's to see (a Docker cluster has no ``Store``, and every
        ``Store`` under ``src/`` has one consumer):
        ``test_store_preserves_fifo_order`` holds it, at ``getters=2``.
    (e) all packet-ins of one instant handed over in one pop
        (``ControlChannel._land_packet_in`` pushing nothing back) —
        ``_LOCKSTEP_STORM``: nothing is due while the first handler
        runs, so it answers on the spot and sends its flow-mods before
        the second packet-in is handled; and ``_PORT_OPEN_NOT_READY``:
        the same trace, one entry short of the count.
    (f) the fused entry keyed at its send instant (``sched_at`` and
        ``parent_sched_at`` the send, not the landing, on the first push
        and the push-back alike) — ``_OBSERVER_IN_HOP``: the handler
        runs before the observer planted inside its channel hop.
        Keyed so on its first push only, ``_TWO_CHANNELS_IN_LOCKSTEP``:
        the other channel's handler runs between the two of this one.
    (g) the rest pushed back after the handler, not before — the same
        as (e) at ``_LOCKSTEP_STORM``.
    (h) the pipeline started hot while an urgent entry is due now
        (``hot=True`` for ``hot=not env.urgent_now()``) —
        ``_PORT_OPEN_NOT_READY``: its ``scale_up`` runs before the
        process started in its step takes its look.
    (i) the readiness guard never cancelled — every example: a guard
        is left armed.
    (j) the readiness wait returning at the port's opening, off the
        poll grid — every example.
    (k) the delays of a chain summed as ``t0 + (d1 + d2)`` — random
        draws: containerd's start lands off the chain's instant.
    It cannot see a boot started hot at a zero boot time (no caller
    pushes anything due now after ``Containerd.start``):
    ``tests/test_containers.py`` holds that
    (``test_a_zero_boot_starts_behind_what_its_caller_pushes_next``).
    """
    with deployments_on_the_heap():
        instants = _packet_in_storm(*storm)[4]
    with deployments_on_the_heap() as paid:
        heap_log, heap_samples, heap_events, _, _, landings, heap_armed = _packet_in_storm(
            *storm, instants
        )
        conditions = paid()
    with counted_shortcuts() as taken, counted_hot_starts() as hot:
        log, samples, events, handlers, _, fast_landings, armed = _packet_in_storm(
            *storm, instants
        )
    assert log == heap_log
    assert samples == heap_samples
    assert armed == heap_armed
    assert fast_landings == []
    assert heap_events - events == (
        2 * len(taken) + handlers + len(landings) + len(hot) + conditions
    )


# ---------------------------------------------------------------------------
# FlowMemory: a per-service count vs the scan it replaced
# ---------------------------------------------------------------------------

_memory_ops = st.lists(
    st.one_of(
        st.tuples(st.just("remember"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("release"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("hold"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("forget"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("forget_client"), st.integers(0, 2)),
        # Past 0, 1 or 2 idle timeouts: expiries at their own deadlines.
        st.tuples(st.just("advance"), st.sampled_from((0.5, 1.0, 2.5))),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=_memory_ops)
def test_service_in_use_is_the_scan_it_replaced(ops):
    """Three clients, three services, and random sequences of
    ``remember``, ``release`` (the clock started now), ``hold``,
    ``forget``, ``forget_client`` and runs of the clock that expire
    flows: after every step, for every service, ``service_in_use``
    answers what a scan of every memorized flow answers
    (``tests/flowmemory_oracle.service_in_use``) — and so it does
    inside ``on_expire``, which the controller's scale-down asks."""
    env = Environment()
    clients = [IPv4Address(10 + i) for i in range(3)]
    services = [
        EdgeService(f"edge-{i}", IPv4Address(100 + i), 80, None, "", "")
        for i in range(3)
    ]
    endpoint = ServiceEndpoint(IPv4Address(200), 30000)
    seen: list[tuple] = []

    def in_use():
        return [(memory.service_in_use(s), scanned_in_use(memory, s)) for s in services]

    memory = FlowMemory(
        env, idle_timeout_s=1.0, on_expire=lambda flow: seen.append(tuple(in_use()))
    )
    for op in ops:
        if op[0] == "remember":
            memory.remember(clients[op[1]], services[op[2]], "docker", endpoint)
        elif op[0] == "forget_client":
            memory.forget_client(clients[op[1]])
        elif op[0] == "advance":
            env.run(until=env.now + op[1])
        else:
            flow = memory.lookup(clients[op[1]], services[op[2]])
            if flow is not None:
                if op[0] == "release":
                    memory.release(flow, env.now)
                elif op[0] == "hold":
                    memory.hold(flow)
                else:
                    memory.forget(flow)
        for fast, scanned in in_use():
            assert fast == scanned
    for answers in seen:
        for fast, scanned in answers:
            assert fast == scanned


#: As ``_memory_ops``, and a release may start the clock in the past, so
#: deadlines come out of release order and supersede the armed wake.
_clock_ops = st.lists(
    st.one_of(
        st.tuples(st.just("remember"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(
            st.just("release"), st.integers(0, 2), st.integers(0, 2),
            st.sampled_from((0.0, 0.0, 0.25, 0.5)),
        ),
        st.tuples(st.just("hold"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("forget"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("forget_client"), st.integers(0, 2)),
        st.tuples(st.just("advance"), st.sampled_from((0.25, 0.5, 1.0, 2.5))),
    ),
    max_size=40,
)
# The later release's deadline is the earlier one: the wake it arms
# re-arms at the instant of the wake it superseded.
_REARMED_AT_A_SUPERSEDED_WAKE = [
    ("remember", 0, 0), ("remember", 1, 0), ("release", 0, 0, 0.0),
    ("release", 1, 0, 0.5), ("advance", 2.5),
]
# Released, held and released again at one deadline: it expires once.
_RELEASED_TWICE_AT_ONE_DEADLINE = [
    ("remember", 0, 0), ("release", 0, 0, 0.0), ("hold", 0, 0),
    ("release", 0, 0, 0.0), ("advance", 2.5),
]
# Two flows due at one wake, the later-memorized one released first.
_DUE_TOGETHER = [
    ("remember", 0, 1), ("remember", 0, 0), ("release", 0, 0, 0.0),
    ("release", 0, 1, 0.0), ("advance", 2.5),
]


def _memory_run(ops, scanned):
    """Run ``ops`` on a FlowMemory (``scanned``: its two-scan reference):
    the expiry log ``(instant, client, service)`` in ``on_expire`` order,
    the flows left with their deadlines, every ``call_at`` as ``(instant,
    due)``, and the kernel events.  An expiry of a flow of service 0
    restarts the clock of its client's held flow of service 1, as a
    callback that writes the memory would."""
    env = Environment()
    clients = [IPv4Address(10 + i) for i in range(3)]
    services = [
        EdgeService(f"edge-{i}", IPv4Address(100 + i), 80, None, "", "")
        for i in range(3)
    ]
    endpoint = ServiceEndpoint(IPv4Address(200), 30000)
    log: list[tuple] = []
    calls: list[tuple[float, float]] = []

    def expired(flow):
        log.append((env.now, str(flow.client_ip), flow.service.name))
        if flow.service is services[0]:
            other = memory.lookup(flow.client_ip, services[1])
            if other is not None and other.deadline is None:
                memory.release(other, env.now)

    memory = (ScannedMemory if scanned else FlowMemory)(
        env, idle_timeout_s=1.0, on_expire=expired
    )
    detach = tap(env, "call_at", lambda at, fn, *args: calls.append((env.now, at)))
    try:
        for op in ops:
            if op[0] == "remember":
                memory.remember(clients[op[1]], services[op[2]], "docker", endpoint)
            elif op[0] == "forget_client":
                memory.forget_client(clients[op[1]])
            elif op[0] == "advance":
                env.run(until=env.now + op[1])
            else:
                flow = memory.lookup(clients[op[1]], services[op[2]])
                if flow is None:
                    continue
                if op[0] == "release":
                    memory.release(flow, env.now - op[3])
                elif op[0] == "hold":
                    memory.hold(flow)
                else:
                    memory.forget(flow)
        env.run()
    finally:
        detach()
    left = [(str(flow.client_ip), flow.service.name, flow.deadline) for flow in memory._flows.values()]
    return log, left, calls, env.events_processed


@settings(max_examples=300, deadline=None)
@given(ops=_clock_ops)
@example(ops=_REARMED_AT_A_SUPERSEDED_WAKE)
@example(ops=_RELEASED_TWICE_AT_ONE_DEADLINE)
@example(ops=_DUE_TOGETHER)
def test_memory_expiry_is_the_scans_it_replaced(ops):
    """Random sequences of ``remember``, ``release`` (the clock started
    now or in the past), ``hold``, ``forget``, ``forget_client`` and runs
    of the clock, with an ``on_expire`` that restarts another flow's
    clock: FlowMemory on its expiry heap expires the flows the two scans
    expired (``tests/flowmemory_oracle.ScannedMemory``), at the same
    instants and in the memory's order, leaves the same flows, and arms
    its wakes at the same instants for the same deadlines, at the same
    kernel events."""
    assert _memory_run(ops, scanned=False) == _memory_run(ops, scanned=True)


# ---------------------------------------------------------------------------
# End-to-end determinism
# ---------------------------------------------------------------------------


def _run_small_trace(seed: int):
    params = BigFlowsParams(n_services=6, n_requests=132, duration_s=45.0)
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
    services = [tb.register_template(NGINX) for _ in range(params.n_services)]
    for svc in services:
        tb.prepare_created(tb.docker_cluster, svc)
    events = generate_trace(params, seed=seed)
    driver = TraceDriver(
        tb.env, tb.clients, services, recorder=tb.recorder
    )
    summary = driver.run(events)
    return [round(s.time_total, 12) for s in summary.samples]


def test_full_system_is_deterministic():
    """Two independent runs with the same seed produce byte-identical
    latency sequences — the reproducibility claim of DESIGN.md §6."""
    assert _run_small_trace(seed=11) == _run_small_trace(seed=11)


def test_different_seeds_differ():
    assert _run_small_trace(seed=11) != _run_small_trace(seed=12)


def test_full_system_is_the_same_on_the_two_event_transmitter(monkeypatch):
    """The whole testbed on the oracle's links — two events per hop and
    a third for every switch lookup — gives every request the latency
    it has on the real ones."""
    real = _run_small_trace(seed=11)
    monkeypatch.setattr(link_module, "LinkEndpoint", TwoEventEndpoint)
    assert _run_small_trace(seed=11) == real
