"""Cross-cutting property-based and determinism tests."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.k8s import (
    APIServer,
    Conflict,
    ObjectMeta,
    Pod,
    PodSpec,
    Service,
    ServicePort,
    ServiceSpec,
    matches_selector,
)
from repro.k8s.kubeproxy import KubeProxy
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.openflow import Drop, FlowEntry, FlowMatch, FlowTable, Output
from repro.net.packet import Packet, TCPFlags, TCPSegment
from repro.services.catalog import NGINX
from repro.sim import Environment, Resource, Store
from repro.testbed import C3Testbed, TestbedConfig
from repro.workload import BigFlowsParams, TraceDriver, generate_trace


# ---------------------------------------------------------------------------
# Flow-table semantics vs a brute-force oracle
# ---------------------------------------------------------------------------

_ips = st.integers(min_value=1, max_value=4).map(lambda i: IPv4Address(i))
_ports = st.integers(min_value=1, max_value=4)
_maybe_ip = st.one_of(st.none(), _ips)
_maybe_port = st.one_of(st.none(), _ports)

_matches = st.builds(
    FlowMatch,
    ip_src=_maybe_ip,
    ip_dst=_maybe_ip,
    tcp_src=_maybe_port,
    tcp_dst=_maybe_port,
)

_entries = st.lists(
    st.tuples(_matches, st.integers(min_value=0, max_value=5)),
    min_size=0,
    max_size=12,
)

_packets = st.builds(
    lambda src, dst, sport, dport: Packet(
        eth_src=MACAddress(1),
        eth_dst=MACAddress(2),
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
@given(entries=_entries, packet=_packets)
def test_flow_table_lookup_matches_oracle(entries, packet):
    """Lookup always returns the highest-priority, earliest-installed
    matching entry — the invariant transparent redirection rests on."""
    table = FlowTable()
    installed = []
    for i, (match, priority) in enumerate(entries):
        entry = FlowEntry(match, [Drop()], priority=priority)
        table.install(entry, now=float(i))
        installed.append(entry)

    result = table.lookup(packet)

    candidates = [e for e in installed if e.match.matches(packet)]
    if not candidates:
        assert result is None
    else:
        best_priority = max(e.priority for e in candidates)
        oracle = next(e for e in candidates if e.priority == best_priority)
        assert result is oracle


@settings(max_examples=100, deadline=None)
@given(entries=_entries)
def test_flow_table_is_priority_sorted(entries):
    table = FlowTable()
    for i, (match, priority) in enumerate(entries):
        table.install(FlowEntry(match, [Drop()], priority=priority), float(i))
    priorities = [e.priority for e in table]
    assert priorities == sorted(priorities, reverse=True)


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
@given(items=st.lists(st.integers(), min_size=0, max_size=30))
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            received.append((yield store.get()))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items


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


class _Node:
    """Stands in for a kubelet and its host: what kube-proxy calls."""

    def __init__(self) -> None:
        self.node_host = self
        self.ports: dict[int, object] = {}
        #: (pod uid, container port) -> the app listening there.
        self.apps: dict[tuple[str, int], object] = {}

    def port_is_open(self, port):
        return port in self.ports

    def open_port(self, port, handler):
        self.ports[port] = handler

    def close_port(self, port):
        del self.ports[port]

    def ready_app_for(self, pod, target_port):
        return self.apps.get((pod.metadata.uid, target_port))


#: Small alphabets, so that generated pods and services meet often.
_few_labels = st.dictionaries(
    st.sampled_from(["app", "tier"]), st.sampled_from(["x", "y"]), max_size=2
)
_node_names = st.sampled_from(["n0", "n0", "n1", None, "ghost"])  # ghost: no kubelet
_proxy_ops = st.one_of(
    st.tuples(
        st.just("pod"),
        _few_labels,
        _node_names,
        st.booleans(),
        st.sampled_from([{80}, {80, 81}, set()]),
    ),
    st.tuples(
        st.just("service"),
        _few_labels,
        st.sampled_from([80, 80, 81]),
        st.sampled_from([True, True, False]),
    ),
    st.tuples(st.just("flip-ready"), st.integers(0, 7)),
    st.tuples(st.just("rebind"), st.integers(0, 7), _node_names),
    st.tuples(st.just("relabel"), st.integers(0, 7), _few_labels),
    st.tuples(st.just("delete-pod"), st.integers(0, 7)),
    st.tuples(st.just("delete-service"), st.integers(0, 7)),
)


def _nested_loop_backends(services, pods, nodes):
    """node -> node port -> backend apps: services x pods, the loop
    kube-proxy's resync used to be."""
    want: dict[str, dict[int, list]] = {name: {} for name in nodes}
    for service in sorted(services, key=lambda s: s.metadata.uid):
        port = service.spec.ports[0]
        if port.node_port is None:
            continue
        for pod in sorted(pods, key=lambda p: p.metadata.uid):
            if not pod.status.ready or pod.spec.node_name not in nodes:
                continue
            if not matches_selector(pod.metadata.labels, service.spec.selector):
                continue
            app = nodes[pod.spec.node_name].ready_app_for(pod, port.target_port)
            if app is not None:
                want[pod.spec.node_name].setdefault(port.node_port, []).append(app)
    return want


@settings(max_examples=150, deadline=None)
@given(rounds=st.lists(st.lists(_proxy_ops, max_size=10), min_size=1, max_size=4))
def test_kubeproxy_join_matches_nested_loop(rounds):
    """Per-node backend lists after each full resync equal the
    services x pods nested loop — pods ready and not, bound, unbound
    and bound to an unknown node, readiness and binding flipped in
    place without an update, selectors empty, multi-key and unmatched."""
    env = Environment()
    api = APIServer(env)
    nodes = {"n0": _Node(), "n1": _Node()}
    KubeProxy(env, api, nodes)
    pods: list[Pod] = []
    services: list[Service] = []
    serial = itertools.count()
    # Updating this port-less service is what triggers each resync.
    trigger = Service(ObjectMeta("trigger"), ServiceSpec(ports=[ServicePort(1, 1)]))
    _call(env, api.create(trigger))

    for ops in rounds:
        for op in ops:
            victims = services if op[0] == "delete-service" else pods
            if op[0] == "pod":
                _, labels, node_name, ready, container_ports = op
                new = Pod(
                    ObjectMeta(f"pod-{next(serial)}", labels=dict(labels)),
                    PodSpec(node_name=node_name),
                )
                new.status.ready = ready
                for node in nodes.values():
                    for container_port in container_ports:
                        node.apps[new.metadata.uid, container_port] = object()
                pods.append(_call(env, api.create(new)))
            elif op[0] == "service":
                _, selector, target_port, exposed = op
                n = next(serial)
                node_port = 30000 + n if exposed else None
                new = Service(
                    ObjectMeta(f"svc-{n}"),
                    ServiceSpec(
                        selector=dict(selector),
                        ports=[ServicePort(target_port, target_port, node_port=node_port)],
                    ),
                )
                services.append(_call(env, api.create(new)))
            elif not victims:
                continue
            elif op[0] == "flip-ready":  # in place, as the kubelet does
                victim = victims[op[1] % len(victims)]
                victim.status.ready = not victim.status.ready
            elif op[0] == "rebind":  # in place, as the scheduler does
                victims[op[1] % len(victims)].spec.node_name = op[2]
            elif op[0] == "relabel":
                victim = victims[op[1] % len(victims)]
                victim.metadata.labels = dict(op[2])
                _call(env, api.update(victim))
            else:
                victim = victims.pop(op[1] % len(victims))
                _call(env, api.delete(victim.kind, victim.metadata.name))
        _call(env, api.update(trigger))
        env.run(until=env.now + 1.0)  # watch + endpoints + kube-proxy sync
        got = {
            name: {port: handler.backends for port, handler in node.ports.items()}
            for name, node in nodes.items()
        }
        assert got == _nested_loop_backends(services, pods, nodes)


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
