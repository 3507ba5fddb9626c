"""OpenFlow actions.

Actions are applied in list order; a rewrite happens before a
subsequent *output*, which is how the transparent redirection sends a
client's connection to an edge instance (:class:`Nat`) and makes the
instance's answers the cloud address's (:class:`SetSrc`).  The switch
applies every action itself; none has a method it calls.
"""

from __future__ import annotations

import dataclasses

from repro.net.addressing import IPv4Address


class Action:
    """Base class; concrete actions are plain frozen dataclasses."""


@dataclasses.dataclass(frozen=True)
class Output(Action):
    """Forward the packet out of a switch port."""

    port: int

    def __str__(self) -> str:
        return f"output:{self.port}"


@dataclasses.dataclass(frozen=True)
class Nat(Action):
    """Destination NAT of a tracked connection (OVS
    ``ct(commit,nat(dst=<ip>:<port>))``): a SYN records its connection —
    keyed by the 4-tuple it carries before the rewrite — with ``endpoint``
    as its mark, a FIN or RST ends the connection, and the packet is
    readdressed to ``endpoint``.  Its later packets match a
    ``FlowMatch.ct_mark`` of that endpoint.  ``endpoint`` is an ``(ip,
    port)`` pair, a ``ServiceEndpoint`` as the controller sends it."""

    endpoint: tuple[IPv4Address, int]

    def __str__(self) -> str:
        ip, port = self.endpoint
        return f"ct(commit,nat(dst={ip}:{port}))"


@dataclasses.dataclass(frozen=True)
class SetSrc(Action):
    """Rewrite the packet's source address and port to ``endpoint``, an
    ``(ip, port)`` pair."""

    endpoint: tuple[IPv4Address, int]

    def __str__(self) -> str:
        ip, port = self.endpoint
        return f"set_src:{ip}:{port}"


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
