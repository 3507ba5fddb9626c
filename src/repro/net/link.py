"""Point-to-point links with latency and bandwidth.

Each direction of a link is an independent FIFO transmitter: packets
serialize at the link's bandwidth one after another, then propagate for
the link's latency.  This reproduces the store-and-forward behaviour
of the testbed's switched Ethernet without per-byte events.
"""

from __future__ import annotations

import typing as _t
from collections import deque
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
    """One side of a link; owns the transmit queue for its direction.

    The transmitter is callback-driven: while the line is busy,
    packets queue in a plain deque; each packet costs exactly two slim
    scheduled callbacks (end of serialization, end of propagation)
    instead of a store hand-off plus a propagation process.  The
    serialization timeline — one packet on the wire at a time,
    propagation pipelined — is unchanged.

    (A one-event-per-packet variant that schedules delivery directly
    at transmit time — tracking only a ``busy-until`` timestamp — was
    tried and rejected: it moves the delivery's heap sequence number
    from serialization end to transmit time, which reorders
    same-timestamp events and breaks byte-identical replay.)

    Heap entries are pushed inline (env internals poked directly, like
    ``events.py`` does) and the per-hop callbacks are pre-bound: at two
    pushes per packet-hop this is one of the two hottest scheduling
    sites in the simulator.  The link's bandwidth/latency/down state is
    mirrored into endpoint slots (refreshed by the Link property
    setters) so the serialization expression reads locals, not a
    property chain; the float expression itself is unchanged, keeping
    the exact ``wire_size * 8 / bandwidth`` rounding of the replay
    fingerprint.

    Fast-path dispatch: when a packet carries a memoized next hop
    recorded for *this* endpoint (see ``repro.net.route_cache``), the
    end-of-serialization callback fuses the propagation delay and the
    switch's lookup delay into a single scheduled ``_fast_hop`` call,
    skipping the delivery callback and ``switch.receive`` entirely.
    The fire time is composed as ``(now + latency) + lookup_delay`` —
    the same two float additions the unfused path performs — so
    delivery-chain timestamps stay byte-identical.  The fusion is
    declined (falling back to the plain delivery callback) when the
    link is down or its epoch moved, so parameter changes invalidate
    the route and re-enter the slow path.
    """

    __slots__ = (
        "link",
        "iface",
        "peer",
        "_pending",
        "_busy",
        "_env",
        "_bw",
        "_lat",
        "_down",
        "_recv_dev",
        "_recv_iface",
        "_serialized_cb",
        "_deliver_cb",
    )

    def __init__(
        self, link: "Link | HalfLinkEndpoint", iface: "NetworkInterface"
    ) -> None:
        self.link = link
        self.iface = iface
        self.peer: "LinkEndpoint | None" = None
        self._pending: deque["Packet"] = deque()
        self._busy = False
        self._env = link.env
        # Hot-parameter mirror, kept in sync by the Link setters.
        self._bw = link.bandwidth_bps
        self._lat = link.latency_s
        self._down = link.down
        # Delivery target (peer device + interface), bound by
        # Link.__init__ once both endpoints exist.  The device, not its
        # bound ``receive``, is cached: tests monkey-patch ``receive``
        # on device instances and must keep seeing deliveries.
        self._recv_dev = None
        self._recv_iface: "NetworkInterface | None" = None
        self._serialized_cb = self._serialized
        self._deliver_cb = self._deliver

    def _serialize(self, packet: "Packet") -> None:
        # Serialization at line rate, then propagation.  Pre-bound
        # method + operand on the heap entry: no per-packet closure.
        # The delay keeps the exact ``wire_size * 8 / bandwidth``
        # association (a precomputed 8/bandwidth factor would change
        # the float rounding and with it the replay fingerprint); the
        # wire size is inlined to skip the property descriptor.
        env = self._env
        heappush(
            env._queue,
            (
                env._now
                + (HEADER_BYTES + packet.tcp.payload_bytes) * 8 / self._bw,
                NORMAL,
                next(env._seq),
                self._serialized_cb,
                (packet,),
            ),
        )

    def transmit(self, packet: "Packet") -> None:
        """Enqueue a packet for transmission towards the peer."""
        if self._busy:
            self._pending.append(packet)
        else:
            self._busy = True
            self._serialize(packet)

    def _serialized(self, packet: "Packet") -> None:
        env = self._env
        hop = packet._fp_next
        if (
            hop is not None
            and hop.src_ep is self
            and not self._down
            and hop.in_epoch == self.link.epoch
        ):
            # Fused fast hop: one event for propagation + switch lookup.
            # ``(now + lat) + lookup`` reproduces the unfused float sums.
            heappush(
                env._queue,
                (
                    (env._now + self._lat) + hop.switch.lookup_delay_s,
                    NORMAL,
                    next(env._seq),
                    hop.fire,
                    (packet, hop),
                ),
            )
        else:
            if hop is not None:
                # Link state moved under the route: discard it so the
                # next packet of the flow re-records on the slow path.
                hop.route.invalidate()
                packet._fp_next = None
            heappush(
                env._queue,
                (
                    env._now + self._lat,
                    NORMAL,
                    next(env._seq),
                    self._deliver_cb,
                    (packet,),
                ),
            )
        if self._pending:
            self._serialize(self._pending.popleft())
        else:
            self._busy = False

    def _deliver(self, packet: "Packet") -> None:
        if self._recv_dev is not None and not self._down:
            self._recv_dev.receive(packet, self._recv_iface)


class HalfLinkEndpoint(LinkEndpoint):
    """The near side of a link cut at its propagation leg.

    The far side lives in another event loop (a partition of the
    sharded kernel).  ``transmit`` and ``_serialize`` are inherited, so
    the FIFO discipline and the serialization float are
    :class:`LinkEndpoint`'s by construction.  Only the end of
    serialization differs: instead of scheduling a local delivery, the
    packet goes to ``send(packet, arrival_ts=now + latency)`` — the
    instant ``_deliver`` would have fired.  Route-cache state is
    stripped first: a recording holds env-bound hops (unpicklable, and a
    traversal across event loops is not replayable), so flows through a
    cut link stay on the slow path.

    There is no two-ended :class:`Link` to belong to, so the endpoint is
    its own ``link``: it carries the ``epoch``, ``down`` and
    ``bandwidth_bps`` that the route cache, a handover and the
    flow-stats collector read there.  The parameters are fixed for life
    (``epoch`` never moves), and ``peer`` stays ``None``, which makes an
    inbound ``_record_hop`` abort its recording.
    """

    __slots__ = ("send", "env", "epoch", "bandwidth_bps", "latency_s", "down")

    def __init__(
        self,
        env: Environment,
        iface: "NetworkInterface",
        bandwidth_bps: float,
        latency_s: float,
        send: _t.Callable[..., None],
    ) -> None:
        self.send = send
        self.env = env
        self.epoch = 0
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.down = False
        super().__init__(self, iface)
        iface.endpoint = self

    def _serialized(self, packet: "Packet") -> None:
        hop = packet._fp_next
        if hop is not None:
            # A fused fast hop can never target a cut link (recordings
            # through it never finalize), but a stale pointer from an
            # upstream invalidation may survive: kill it before pickling.
            hop.route.invalidate()
            packet._fp_next = None
        packet._fp_rec = None
        self.send(packet, arrival_ts=self._env._now + self._lat)
        if self._pending:
            self._serialize(self._pending.popleft())
        else:
            self._busy = False


class Link:
    """A bidirectional point-to-point link between two interfaces.

    ``bandwidth_bps`` / ``latency_s`` / ``down`` are epoch-guarded
    properties: any change bumps :attr:`epoch`, which invalidates every
    memoized route crossing the link (cached routes store the epoch
    they were recorded under and fall back to the slow path on
    mismatch).  The setters also refresh the per-endpoint parameter
    mirrors the hot transmit path reads.
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
        self._bandwidth_bps = float(bandwidth_bps)
        self._latency_s = float(latency_s)
        self._down = False
        #: Parameter-change counter consulted by the route cache.
        self.epoch = 0

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

    def _sync_endpoints(self) -> None:
        self.epoch += 1
        for end in (self.end_a, self.end_b):
            end._bw = self._bandwidth_bps
            end._lat = self._latency_s
            end._down = self._down

    @property
    def bandwidth_bps(self) -> float:
        return self._bandwidth_bps

    @bandwidth_bps.setter
    def bandwidth_bps(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"bandwidth must be positive, got {value}")
        self._bandwidth_bps = float(value)
        self._sync_endpoints()

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
    def lookahead_s(self) -> float:
        """The conservative-synchronization window this link provides.

        A partitioned run (``repro.sim.parallel``) cuts the topology at
        backbone links; a message entering the link at time ``t``
        cannot influence the far side before ``t + latency_s``, so the
        propagation latency *is* the lookahead the null-message
        synchronizer advances by.  Zero means "unusable as a cut edge"
        — the partitioner rejects such links up front.
        """
        return self._latency_s

    @property
    def down(self) -> bool:
        """Administrative state; a downed link silently drops packets,
        used by failure-injection tests."""
        return self._down

    @down.setter
    def down(self, value: bool) -> None:
        self._down = bool(value)
        self._sync_endpoints()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Link {self.end_a.iface.device.name}<->{self.end_b.iface.device.name} "
            f"{self._bandwidth_bps / 1e9:g}Gbps {self._latency_s * 1e6:g}us>"
        )
