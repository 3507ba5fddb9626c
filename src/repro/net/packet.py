"""Packet and payload types.

A :class:`Packet` carries IPv4/TCP headers plus an optional
application payload.  L2 is not modelled (switches match on L3/L4
only); its framing counts in :data:`HEADER_BYTES` alone.  Data volume
is modelled, not byte content: every packet has a ``wire_size`` used
by links to compute serialization delay, and HTTP payloads declare
their size in bytes.

Large transfers are modelled as a single "burst" segment whose size is
the full byte count — the bottleneck-link serialization time then
approximates streaming throughput without simulating every MSS-sized
segment (see DESIGN.md §2).

Packets and TCP segments are ``__slots__`` classes, not dataclasses:
they are the highest-volume allocations in the simulator (one segment
+ one packet per hop-traversing message), and the slotted layout both
shrinks them and speeds up the header-field access on the switch
lookup path.  A packet also caches its match-key tuple — the
(ip_src, ip_dst, src_port, dst_port) values every flow-table lookup
needs — so the key is computed once at first lookup and reused by
every subsequent switch hop; *set-field* rewrites invalidate it.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.net.addressing import IPv4Address

#: Header overhead per packet on the wire, in bytes: Ethernet framing
#: (counted, not modelled) + IPv4 + TCP.
HEADER_BYTES = 66


class TCPFlags:
    """The TCP flag bits the connection model uses, as plain ints: a
    segment's ``flags`` is their ``|``, tested with ``&`` and ``==``."""

    SYN = 1
    ACK = 2
    FIN = 4
    RST = 8
    PSH = 16


def flag_names(flags: int) -> str:
    """``"SYN|ACK"`` for ``TCPFlags.SYN | TCPFlags.ACK``; ``"NONE"`` for 0."""
    names = ("SYN", "ACK", "FIN", "RST", "PSH")
    return "|".join(n for n in names if flags & getattr(TCPFlags, n)) or "NONE"


@dataclasses.dataclass(frozen=True, slots=True)
class HTTPRequest:
    """An application-layer request (content size only, no bytes)."""

    method: str
    path: str
    body_bytes: int = 0
    header_bytes: int = 200

    @property
    def total_bytes(self) -> int:
        return self.body_bytes + self.header_bytes


@dataclasses.dataclass(frozen=True, slots=True)
class HTTPResponse:
    """An application-layer response."""

    status: int
    body_bytes: int = 0
    header_bytes: int = 200

    @property
    def total_bytes(self) -> int:
        return self.body_bytes + self.header_bytes

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclasses.dataclass(frozen=True, slots=True)
class DataResponse(HTTPResponse):
    """An application-layer response that also carries content.

    Data volume stays size-modelled on the wire (``body_bytes`` should
    be set to the encoded size of ``payload`` so serialization delay is
    faithful), but in-simulation consumers — the ops CLI, tests — can
    read the structured ``payload`` straight off the response object
    the server handler returned.
    """

    payload: _t.Any = None


class TCPSegment:
    """TCP header fields plus payload metadata.

    Mutable on purpose: OpenFlow *set-field* port rewrites patch
    ``src_port`` / ``dst_port`` in place instead of allocating a
    replacement segment per switch hop.  Every packet owns its segment
    exclusively — hosts build a fresh one per transmission — so
    in-place rewrites never leak into another packet.
    """

    __slots__ = (
        "src_port",
        "dst_port",
        "flags",
        "payload_bytes",
        "payload",
        "conn_id",
    )

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        flags: int,
        payload_bytes: int = 0,
        payload: _t.Any = None,
        conn_id: int = 0,
    ) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.flags = flags
        self.payload_bytes = payload_bytes
        self.payload = payload
        #: Connection identifier assigned by the initiating host; lets
        #: the endpoints demultiplex without modelling sequence numbers.
        self.conn_id = conn_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TCPSegment({self.src_port}, {self.dst_port}, {flag_names(self.flags)}, "
            f"payload_bytes={self.payload_bytes}, conn_id={self.conn_id})"
        )


class Packet:
    """A simulated IPv4/TCP packet.

    Mutable on purpose: OpenFlow rewrite actions (``Nat``, ``SetSrc``)
    rewrite header fields in place as the packet traverses a switch,
    exactly like the paper's transparent redirection does.
    """

    __slots__ = (
        "ip_src",
        "ip_dst",
        "tcp",
        "_mk",
    )

    def __init__(
        self,
        ip_src: IPv4Address,
        ip_dst: IPv4Address,
        tcp: TCPSegment,
    ) -> None:
        self.ip_src = ip_src
        self.ip_dst = ip_dst
        self.tcp = tcp
        #: Cached (ip_src, ip_dst, src_port, dst_port) match-key tuple;
        #: ``None`` until the first flow-table lookup and after any
        #: header rewrite (``OpenFlowSwitch._apply_actions``).
        self._mk: tuple | None = None

    @property
    def wire_size(self) -> int:
        """Bytes on the wire: headers plus payload."""
        return HEADER_BYTES + self.tcp.payload_bytes

    def match_values(self) -> tuple:
        """The (ip_src, ip_dst, src_port, dst_port) tuple, cached.

        Computed at most once per packet between header rewrites; every
        switch hop's flow-table lookup slices its match key out of this
        tuple instead of re-reading the header fields.
        """
        mk = self._mk
        if mk is None:
            tcp = self.tcp
            mk = self._mk = (
                self.ip_src,
                self.ip_dst,
                tcp.src_port,
                tcp.dst_port,
            )
        return mk

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet {self.ip_src}:{self.tcp.src_port} -> "
            f"{self.ip_dst}:{self.tcp.dst_port} [{flag_names(self.tcp.flags)}] "
            f"{self.tcp.payload_bytes}B>"
        )
