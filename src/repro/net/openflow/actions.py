"""OpenFlow actions.

Actions are applied in list order; *set-field* rewrites happen before
a subsequent *output*, which is how the transparent redirection
rewrites the destination (client → edge) and the source (edge →
client) addresses.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.net.addressing import IPv4Address
from repro.net.packet import Packet

#: Fields a :class:`SetField` action may rewrite: the IPv4/TCP
#: addresses the transparent redirection swaps.
REWRITABLE_FIELDS = frozenset({"ip_src", "ip_dst", "tcp_src", "tcp_dst"})


class Action:
    """Base class; concrete actions are plain frozen dataclasses."""


@dataclasses.dataclass(frozen=True)
class Output(Action):
    """Forward the packet out of a switch port."""

    port: int

    def __str__(self) -> str:
        return f"output:{self.port}"


@dataclasses.dataclass(frozen=True)
class SetField(Action):
    """Rewrite one header field.

    The field/value pair is validated once at construction; ``apply``
    is then a bare in-place assignment — no type checks, no
    replacement-segment allocation — because it runs once per rewrite
    action per switch hop, the hottest write in the data plane.
    """

    field: str
    value: _t.Any

    def __post_init__(self) -> None:
        if self.field not in REWRITABLE_FIELDS:
            raise ValueError(f"cannot rewrite field {self.field!r}")
        if self.field in ("ip_src", "ip_dst"):
            if not isinstance(self.value, IPv4Address):
                raise TypeError(f"{self.field} needs an IPv4Address")
        else:  # tcp_src / tcp_dst
            # Normalise once so apply() can assign without int().
            object.__setattr__(self, "value", int(self.value))

    def apply(self, packet: Packet) -> None:
        field = self.field
        if field == "ip_dst":
            packet.ip_dst = self.value
        elif field == "ip_src":
            packet.ip_src = self.value
        elif field == "tcp_dst":
            packet.tcp.dst_port = self.value
        else:
            packet.tcp.src_port = self.value
        packet._mk = None  # invalidate the cached match-key tuple

    def __str__(self) -> str:
        return f"set_field:{self.field}={self.value}"


@dataclasses.dataclass(frozen=True)
class Commit(Action):
    """Connection tracking (OVS ``ct(commit, exec(set_field:<mark>->ct_mark))``):
    a SYN records ``mark``, opaque to the switch, for its connection —
    keyed by the 4-tuple it carries here, so this goes before any
    rewrite — and a FIN or RST ends the connection.  Its later packets
    match a ``FlowMatch.ct_mark`` of that mark."""

    mark: _t.Any

    def __str__(self) -> str:
        return f"ct(commit,mark={self.mark})"


@dataclasses.dataclass(frozen=True)
class ToController(Action):
    """Punt the packet to the controller (buffered packet-in)."""

    def __str__(self) -> str:
        return "controller"


@dataclasses.dataclass(frozen=True)
class Drop(Action):
    """Discard the packet."""

    def __str__(self) -> str:
        return "drop"
