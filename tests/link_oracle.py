"""The two-event link transmitter, kept as the oracle for the one-event one.

:class:`TwoEventEndpoint` is ``LinkEndpoint`` as it stood while
serialization was an event: a packet costs one scheduled callback at
the end of its serialization and one at the end of its propagation,
and packets handed over while the line is busy wait in a deque.  It is
verbatim but that heap entries have the kernel's present shape (both
scheduling instants are ``now``).  It delivers through the device's
``receive`` at the arrival instant — into a switch too, whose
``receive`` then schedules the lookup as a third event — so it is also
the reference for the ingress ``LinkEndpoint`` fuses with the arrival.
Whatever order this chain gives simultaneous arrivals and lookups *is*
the order: sequence numbers are drawn when each event runs, nothing is
computed ahead.

A :class:`~repro.net.link.Link` builds its ends from the module global
``repro.net.link.LinkEndpoint``; tests patch that name to this class.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush

from repro.net.link import LinkEndpoint
from repro.net.packet import HEADER_BYTES
from repro.sim.events import NORMAL


class TwoEventEndpoint(LinkEndpoint):
    __slots__ = ("_pending", "_busy", "_serialized_cb")

    def __init__(self, link, iface) -> None:
        super().__init__(link, iface)
        self._pending = deque()
        self._busy = False
        self._serialized_cb = self._serialized

    def _serialize(self, packet) -> None:
        env = self._env
        now = env._now
        heappush(
            env._queue,
            (
                now + (HEADER_BYTES + packet.tcp.payload_bytes) * 8 / self._bw,
                NORMAL,
                now,
                now,
                next(env._seq),
                self._serialized_cb,
                (packet,),
            ),
        )

    def transmit(self, packet) -> None:
        """Enqueue a packet for transmission towards the peer."""
        if self._busy:
            self._pending.append(packet)
        else:
            self._busy = True
            self._serialize(packet)

    def _serialized(self, packet) -> None:
        env = self._env
        now = env._now
        heappush(
            env._queue,
            (
                now + self._lat,
                NORMAL,
                now,
                now,
                next(env._seq),
                self._deliver_cb,
                (packet,),
            ),
        )
        if self._pending:
            self._serialize(self._pending.popleft())
        else:
            self._busy = False
