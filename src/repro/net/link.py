"""Point-to-point links with latency and bandwidth.

Each direction of a link is an independent FIFO transmitter: packets
serialize at the link's bandwidth one after another, then propagate for
the link's latency.  This reproduces the store-and-forward behaviour
of the testbed's switched Ethernet without per-byte events.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush

from repro.net.packet import HEADER_BYTES
from repro.sim import Environment
from repro.sim.events import NORMAL

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.device import NetworkInterface
    from repro.net.packet import Packet

#: Convenience bandwidth constants (bits per second).
GBPS = 1_000_000_000
MBPS = 1_000_000


class LinkEndpoint:
    """One side of a link; the FIFO transmitter for its direction.

    One packet is on the wire at a time and propagation is pipelined,
    but serialization is arithmetic, not an event: the endpoint keeps
    the instant its line falls free, and ``transmit`` computes ::

        begin = max(now, free_at)
        end = begin + (HEADER_BYTES + payload) * 8 / bandwidth
        free_at = end

    and schedules the packet's *arrival* at ``end + latency`` — one
    heap entry per packet-hop.  The float sums are those of an event at
    ``begin`` scheduling one at ``end`` scheduling the arrival (the
    expression keeps the exact ``wire_size * 8 / bandwidth``
    association), so every timestamp downstream is bit for bit what
    that chain would produce.

    **Tie order.**  Among entries firing at the same instant the heap
    orders by ``(sched_at, parent_sched_at, seq)``
    (:class:`repro.sim.Environment`).  An arrival is pushed at
    ``transmit`` but stores ``sched_at = end``, ``parent_sched_at =
    begin`` and the sequence number drawn when the line last went from
    idle to busy (queued packets draw none; a packet handed over at
    the very instant the line falls free finds it idle): the order it
    would have had if an end-of-serialization event, itself scheduled
    at ``begin``, had scheduled it at ``end``.  That is exact against any
    entry scheduled at another instant than ``end``, and among link
    arrivals whenever their last two serialization boundaries differ or
    their busy periods run in lockstep from the first packet (same
    boundaries at every depth: the busy period that started first stays
    first).  What it leaves undetermined needs float-exact coincidence
    more than two boundaries deep — two arrivals with equal ``end`` and
    ``begin`` out of busy periods that did *not* start together — or a
    non-link entry scheduled exactly at ``end`` that fires exactly at
    the arrival instant; there the key decides (the arrival first)
    where an event chain would have gone by its own pop order.
    ``tests/test_properties.py`` holds the endpoint to the two-event
    reference (``tests/link_oracle.py``) inside that boundary.

    **Link changes under a packet.**  ``latency_s`` is sampled when the
    packet is handed to ``transmit``; a later change applies to later
    packets.  ``down`` is the parameter that does change with traffic in
    flight (handover, fault injection) and is read at the arrival
    instant: a packet is dropped iff the link is down at ``end +
    latency``, whatever it was at ``transmit``.

    **Into a switch.**  When the far end is an OpenFlow switch (it
    answered :meth:`~repro.net.device.NetDevice.fused_ingress` when the
    link was built), the arrival and the switch's table lookup are one
    entry: ``transmit`` schedules the switch's ingress at ``(end +
    latency) + lookup_delay_s`` — the two float additions an arrival
    that then scheduled the lookup would perform, ``lookup_delay_s``
    sampled at ``transmit`` like bandwidth and latency — under the
    *arrival's* key ``(end, begin, busy-period seq)``.  Lookups whose
    arrivals coincide therefore run in the order the arrivals would
    have popped and pushed them, which is the whole guarantee: a fresh
    sequence number drawn at ``transmit`` reorders them.  The boundary
    is the one above, one step on: exact among switch lookups whose
    arrivals coincide; decided, not derived, against a non-link entry
    scheduled inside ``[end, arrival]`` that fires exactly at the lookup
    instant (the lookup goes first).  A weaker key, ``(arrival,
    arrival, busy-period seq)``, keeps every bench digest it was tried
    on (20 of 20), so the latency md5s cannot tell it from this one;
    ``tests/test_properties.py`` can, and holds the fused ingress to
    the two-event reference through a real switch.  The ingress obeys
    the arrival rule itself (``Link.down_at(arrival)``): it runs after
    the arrival instant, so the link may have changed since.

    Heap entries are pushed inline (env internals poked directly, like
    ``events.py`` does): this is one of the two hottest scheduling
    sites in the simulator.  The link's bandwidth/latency/down state is
    mirrored into endpoint slots (refreshed by the Link property
    setters) so the expressions read locals, not a property chain.
    """

    __slots__ = (
        "link",
        "iface",
        "peer",
        "_free_at",
        "_period_seq",
        "_env",
        "_bw",
        "_lat",
        "_down",
        "_recv_dev",
        "_recv_iface",
        "_deliver_cb",
        "_ingress",
    )

    def __init__(self, link: "Link", iface: "NetworkInterface") -> None:
        self.link = link
        self.iface = iface
        self.peer: "LinkEndpoint | None" = None
        self._env = link.env
        #: When the line falls free, and the sequence number drawn when
        #: it last went from idle to busy.
        self._free_at = self._env._now
        self._period_seq = 0
        # Hot-parameter mirror (the latency and state kept in sync by the
        # Link setters; the bandwidth is fixed).
        self._bw = link.bandwidth_bps
        self._lat = link.latency_s
        self._down = link.down
        # Delivery target (peer device + interface), bound by
        # Link.__init__ once both endpoints exist.  The device, not its
        # bound ``receive``, is cached: tests monkey-patch ``receive``
        # on device instances and must keep seeing deliveries.
        self._recv_dev = None
        self._recv_iface: "NetworkInterface | None" = None
        self._deliver_cb = self._deliver
        #: The far device's fused ingress (a switch), or ``None``.
        self._ingress: _t.Callable[..., None] | None = None

    def transmit(self, packet: "Packet") -> None:
        """Hand a packet to the transmitter; schedules its arrival."""
        env = self._env
        begin = self._free_at
        if begin <= env._now:
            begin = env._now
            self._period_seq = next(env._seq)
        # The wire size is inlined to skip the property descriptor.
        self._free_at = end = (
            begin + (HEADER_BYTES + packet.tcp.payload_bytes) * 8 / self._bw
        )
        arrival = end + self._lat
        ingress = self._ingress
        if ingress is None:
            at, fn, args = arrival, self._deliver_cb, (packet,)
        else:
            at = arrival + self._recv_dev.lookup_delay_s
            fn, args = ingress, (packet, self._recv_iface.port_no, arrival)
        heappush(
            env._queue, (at, NORMAL, end, begin, self._period_seq, fn, args)
        )

    def _deliver(self, packet: "Packet") -> None:
        if self._recv_dev is not None and not self._down:
            self._recv_dev.receive(packet, self._recv_iface)


class Link:
    """A bidirectional point-to-point link between two interfaces.

    ``latency_s`` / ``down`` are properties whose setters refresh the
    per-endpoint parameter mirrors the hot transmit path reads;
    ``bandwidth_bps`` is fixed at construction.  ``down`` changes are
    also recorded with their instant (:attr:`down_changes`,
    :meth:`down_at`): a packet handed to a switch's fused ingress acts
    after its arrival instant and obeys the state the link had *at*
    that instant.
    """

    def __init__(
        self,
        env: Environment,
        a: "NetworkInterface",
        b: "NetworkInterface",
        bandwidth_bps: float = GBPS,
        latency_s: float = 50e-6,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self._latency_s = float(latency_s)
        self._down = False
        #: ``(instant, down)`` per change of the administrative state;
        #: empty (falsy) on a link that never changed it.
        self.down_changes: list[tuple[float, bool]] = []

        self.end_a = LinkEndpoint(self, a)
        self.end_b = LinkEndpoint(self, b)
        self.end_a.peer = self.end_b
        self.end_b.peer = self.end_a
        a.endpoint = self.end_a
        b.endpoint = self.end_b
        for end in (self.end_a, self.end_b):
            peer = end.peer
            assert peer is not None
            end._recv_dev = peer.iface.device
            end._recv_iface = peer.iface
            end._ingress = peer.iface.device.fused_ingress()

    def _sync_endpoints(self) -> None:
        for end in (self.end_a, self.end_b):
            end._lat = self._latency_s
            end._down = self._down

    @property
    def latency_s(self) -> float:
        return self._latency_s

    @latency_s.setter
    def latency_s(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency must be >= 0, got {value}")
        self._latency_s = float(value)
        self._sync_endpoints()

    @property
    def down(self) -> bool:
        """Administrative state; a downed link silently drops packets,
        used by failure-injection tests."""
        return self._down

    @down.setter
    def down(self, value: bool) -> None:
        self._down = bool(value)
        self.down_changes.append((self.env.now, self._down))
        self._sync_endpoints()

    def down_at(self, when: float) -> bool:
        """The administrative state at instant ``when`` (a change made
        at ``when`` itself counts: it was scheduled before the arrival
        it meets there, so it ran first)."""
        for at, down in reversed(self.down_changes):
            if at <= when:
                return down
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Link {self.end_a.iface.device.name}<->{self.end_b.iface.device.name} "
            f"{self.bandwidth_bps / 1e9:g}Gbps {self._latency_s * 1e6:g}us>"
        )
