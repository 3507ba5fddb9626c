"""One site stack, two wirings (`repro.testbed.site`).

The federation's sites and backbone are built by the same code whether
they share one event loop (`FederatedTestbed`) or get a partition each
(`repro.sim.parallel.testbed`); the cut trunk is `LinkEndpoint`'s own
transmitter with the propagation leg handed to a callable.  Two
differentials hold the wirings together:

* the same plan, request for request, takes the same time on both;
* the same packet burst arrives at the same instants through a whole
  `Link` and through a `HalfLinkEndpoint`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.net.addressing import IPv4Address
from repro.net.link import GBPS, Link
from repro.net.packet import Packet, TCPFlags, TCPSegment
from repro.services.catalog import template_by_key
from repro.sim import Environment
from repro.sim.parallel.coordinator import SerialExecutor
from repro.sim.parallel.testbed import (
    REQUEST_TIMEOUT_S,
    HalfLinkEndpoint,
    SitePartitionModel,
    build_replay,
    build_replay_specs,
    build_site_partition,
    service_ip,
)
from repro.testbed import FederatedTestbed, FederationConfig

from tests.nethelpers import Sink

# -- monolithic ≡ sharded ----------------------------------------------------


def _own_service_plan(site1_shift_s: float):
    """200 requests at 2 sites, site *s* asking only for service *s*.

    No two sites ever pull the same image at once, so the one thing the
    wirings do differently on purpose — the monolith's sites share a
    `Registry` and its download slots, partitions have one each — stays
    out of the picture.
    """
    replay = build_replay(
        FederationConfig(n_sites=2, clients_per_site=3), n_requests=200, seed=7
    )
    shifts = (0.0, site1_shift_s)
    return dataclasses.replace(
        replay,
        requests_by_site=tuple(
            tuple(
                (at + shifts[site], client, site, req_id)
                for at, client, _service, req_id in requests
            )
            for site, requests in enumerate(replay.requests_by_site)
        ),
        horizon_s=replay.horizon_s + site1_shift_s,
    )


def _recording(http_request, times):
    def observed(*args, **kwargs):
        try:
            result = yield from http_request(*args, **kwargs)
        except Exception as exc:
            times.append(type(exc).__name__)
            raise
        times.append(result.time_total)
        return result

    return observed


class _TimedSite(SitePartitionModel):
    """Reports every request's latency, in completion order."""

    def setup(self, partition):
        super().setup(partition)
        self.times = []
        for client in self.clients:
            client.http_request = _recording(client.http_request, self.times)

    def result(self):
        return {**super().result(), "times": self.times}


def _sharded_times(replay):
    specs = [
        dataclasses.replace(spec, builder=_TimedSite)
        if spec.builder is build_site_partition
        else spec
        for spec in build_replay_specs(replay)
    ]
    results = SerialExecutor(specs).run(until=replay.horizon_s).results
    return [results[f"site{site}"]["times"] for site in range(replay.n_sites)]


def _monolithic_times(replay):
    """The plan's registrations and requests, at the plan's instants
    and service addresses, on one `FederatedTestbed`."""
    tb = FederatedTestbed(replay.config)
    env = tb.env
    times = [[] for _ in tb.sites]
    for site, recorded in zip(tb.sites, times):
        for client in site.clients:
            client.http_request = _recording(client.http_request, recorded)

    def register(spec):
        template = template_by_key(spec.key)
        ip = service_ip(spec.index)
        tb.sites[spec.origin_site].controller.register_service(
            template.definition_yaml, ip, 80, template_key=template.key
        )
        tb.serve_from_cloud(tb.cloud, template, ip)

    def request(site, client, service):
        template = template_by_key(replay.services[service].key)
        env.process(
            tb.sites[site].clients[client].http_request(
                service_ip(service),
                80,
                template.request,
                timeout=REQUEST_TIMEOUT_S,
            )
        )

    for spec in replay.services:
        env.call_at(spec.register_at_s, register, spec)
    for site, requests in enumerate(replay.requests_by_site):
        for at, client, service, _req_id in requests:
            env.call_at(at, request, site, client, service)
    env.run(until=replay.horizon_s)
    return times


@pytest.mark.parametrize("site1_shift_s", [0.0, 20.0])
def test_monolithic_and_sharded_wiring_agree_request_for_request(site1_shift_s):
    replay = _own_service_plan(site1_shift_s)
    monolithic = _monolithic_times(replay)
    sharded = _sharded_times(replay)
    # Not vacuous: (nearly) every request finished inside the horizon.
    assert all(len(times) >= 95 for times in sharded)
    for site in range(replay.n_sites):
        differing = sum(
            a != b for a, b in zip(monolithic[site], sharded[site])
        )
        assert monolithic[site] == sharded[site], (
            f"site{site}: {differing} of {len(sharded[site])} requests took "
            f"a different time on the two wirings"
        )


# -- whole link ≡ cut half-link ----------------------------------------------

BANDWIDTH_BPS = 1 * GBPS
LATENCY_S = 0.002
#: (send time, payload bytes): three back to back behind a busy line,
#: one on an idle line, two more queued behind a jumbo payload.
BURST = [(0.0, 1400), (0.0, 0), (0.0, 700), (0.5, 64), (0.9, 9000), (0.9, 1), (0.9, 1400)]


def _burst():
    a, b = IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2")
    return [
        Packet(
            a,
            b,
            TCPSegment(40000, 80, TCPFlags.ACK, payload_bytes=size, conn_id=i),
        )
        for i, (_at, size) in enumerate(BURST)
    ]


def _transmit_burst(env, iface):
    for (at, _size), packet in zip(BURST, _burst()):
        env.call_at(at, iface.send, packet)
    env.run(until=2.0)


def test_half_link_delivers_when_the_whole_link_does():

    env = Environment()
    near, far = Sink(env, "near"), Sink(env, "far")
    Link(
        env,
        near.add_interface(),
        far.add_interface(),
        BANDWIDTH_BPS,
        LATENCY_S,
    )
    _transmit_burst(env, near.interfaces[0])

    env = Environment()
    near = Sink(env, "near")
    sent = []

    def send(packet, arrival_ts):
        sent.append((packet.tcp.conn_id, arrival_ts))

    half = HalfLinkEndpoint(
        env, near.add_interface(), BANDWIDTH_BPS, LATENCY_S, send
    )
    _transmit_burst(env, near.interfaces[0])

    assert len(sent) == len(BURST)
    assert sent == far.arrivals  # same packets, same order, same floats
    # The line really was busy: queued packets left later than they came.
    assert [ts for _id, ts in sent[:3]] == sorted({ts for _id, ts in sent[:3]})
    # One heap entry per packet (beside its send and the run's stop
    # entry), each popped at its hand-off.
    assert env.events_processed == 2 * len(BURST) + 1 and len(env) == 0


def test_half_link_is_its_own_link():
    env = Environment()
    near = Sink(env, "near")
    iface = near.add_interface()
    half = HalfLinkEndpoint(env, iface, BANDWIDTH_BPS, LATENCY_S, lambda *a, **k: None)
    assert iface.endpoint is half and half.link is half
    assert half.peer is None
    assert (half.down, half.bandwidth_bps) == (False, BANDWIDTH_BPS)
