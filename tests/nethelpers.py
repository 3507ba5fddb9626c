"""Shared helpers: miniature topologies for network-layer tests."""

from __future__ import annotations

import contextlib
import heapq
import types
import typing as _t
from unittest import mock

from repro.net import Host, HTTPRequest, HTTPResponse, Link
from repro.net.addressing import IPAllocator
from repro.net.device import NetDevice
from repro.net.link import GBPS
from repro.net.openflow import OpenFlowSwitch
from repro.observe import tap
from repro.sim import Environment, Event, environment
from repro.sim.environment import Deadline


class EchoApp:
    """Responds 200 with a fixed body size after a fixed service time."""

    def __init__(self, env: Environment, service_time: float = 0.0, body_bytes: int = 100):
        self.env = env
        self.service_time = service_time
        self.body_bytes = body_bytes
        self.requests_seen: list[HTTPRequest] = []

    def handle(self, request: HTTPRequest):
        self.requests_seen.append(request)
        if self.service_time:
            yield self.env.timeout(self.service_time)
        return HTTPResponse(status=200, body_bytes=self.body_bytes)
        # generator form required even when service_time == 0
        yield  # pragma: no cover


class Sink(NetDevice):
    """A device that only logs what reaches it: ``(conn id, time)``;
    a test tags each packet it sends by its segment's ``conn_id``."""

    def __init__(self, env: Environment, name: str = "sink") -> None:
        super().__init__(env, name)
        self.arrivals: list[tuple[int, float]] = []

    def receive(self, packet, iface) -> None:
        self.arrivals.append((packet.tcp.conn_id, self.env.now))


class MiniNet:
    """Builder for small host/switch topologies."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.ips = IPAllocator("10.0.0.0")
        self.hosts: dict[str, Host] = {}

    def host(self, name: str) -> Host:
        h = Host(self.env, name, ip=self.ips.allocate())
        self.hosts[name] = h
        return h

    def wire(
        self,
        a: Host,
        b: Host,
        bandwidth_bps: float = GBPS,
        latency_s: float = 100e-6,
    ) -> Link:
        """Direct host-to-host link."""
        return Link(self.env, a.iface, b.iface, bandwidth_bps, latency_s)

    def switch(self, name: str = "sw1", datapath_id: int = 1) -> OpenFlowSwitch:
        return OpenFlowSwitch(self.env, name, datapath_id)

    def attach(
        self,
        switch: OpenFlowSwitch,
        host: Host,
        bandwidth_bps: float = GBPS,
        latency_s: float = 100e-6,
    ) -> int:
        """Attach a host to a switch; returns the switch port number."""
        port_no, iface = switch.add_port()
        Link(self.env, host.iface, iface, bandwidth_bps, latency_s)
        return port_no


def run_request(env: Environment, client: Host, dst_ip, dst_port, request=None, timeout=None):
    """Drive one http_request to completion and return the HTTPResult."""
    request = request or HTTPRequest("GET", "/", body_bytes=0)
    proc = env.process(client.http_request(dst_ip, dst_port, request, timeout=timeout))
    return env.run(until=proc)


def record_popped_entries(monkeypatch, note=None) -> list:
    """Every heap entry any ``Environment`` pops from here on, as its
    payload (the event, or the slim callback's function), in pop order.
    ``note(item)`` sees each whole entry as it pops — before the loop
    takes the event's callbacks."""
    popped: list = []

    def recording_pop(queue):
        item = heapq.heappop(queue)
        if len(item) >= 6:  # not the deadline side-heap's 3-tuples
            popped.append(item[5])
            if note is not None:
                note(item)
        return item

    monkeypatch.setattr(
        environment,
        "heapq",
        types.SimpleNamespace(heappush=heapq.heappush, heappop=recording_pop),
    )
    return popped


@contextlib.contextmanager
def handoff_on_the_heap():
    """The tail hand-off's slow twin: ``Event.succeed_tail`` always
    takes its ``succeed`` branch, so every wake-up is a heap entry of
    its own — the kernel as it was before the hand-off existed."""
    with mock.patch.object(Event, "succeed_tail", Event.succeed):
        yield


@contextlib.contextmanager
def guards_purged_at_the_top():
    """The deadline side heap's lazy twin: ``Deadline.cancel`` only
    flags the guard — fired or not, twice or once — so a cancelled guard
    leaves the side heap when it surfaces at the top at a wakeup, never
    earlier: the kernel as it was before compaction.  Nothing counts the
    flags up; the count ``_deadline_fire`` counts down goes negative and
    is never read."""

    def flag(deadline) -> None:
        deadline.cancelled = True

    with mock.patch.object(Deadline, "cancel", flag):
        yield


@contextlib.contextmanager
def counted_handoffs() -> _t.Iterator[list[float]]:
    """The instants at which an event resumed its waiters on the spot
    (``Event._succeed_here``) rather than through ``succeed`` and the
    heap.  With no API server in the run (whose quiet watch deliveries
    resume the workers they woke with it), these are the hand-offs
    ``Event.succeed_tail`` took."""
    taken: list[float] = []
    detach = tap(Event, "_succeed_here", lambda event, value: taken.append(event.env.now))
    try:
        yield taken
    finally:
        detach()
