"""Control-channel messages between switch and controller."""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.net.openflow.actions import Action
from repro.net.openflow.match import FlowMatch
from repro.net.packet import Packet

_xids = itertools.count(1)


def next_xid() -> int:
    return next(_xids)


@dataclasses.dataclass
class PacketIn:
    """Switch → controller: a packet punted to the control plane.

    The full packet accompanies the message (as with OFPCML_NO_BUFFER)
    *and* it stays buffered on the switch under ``buffer_id`` so the
    controller can later release exactly the held packet — this is the
    mechanism behind *on-demand deployment with waiting*.
    """

    datapath_id: int
    buffer_id: int
    packet: Packet
    in_port: int
    reason: str = "no_match"


@dataclasses.dataclass
class FlowMod:
    """Controller → switch: add an entry, or delete entries by cookie.

    An "add" installs one entry that idles out after ``idle_timeout``
    seconds without traffic (0: never); the switch reports the idle-out
    with a :class:`FlowRemoved`.  A "delete" removes every entry
    carrying ``cookie`` — the only selector the controller uses — so a
    delete without one is rejected here: it can never flush a table.
    The deleter knows what it deleted, so a delete reports nothing.
    """

    command: str  # "add" | "delete"
    match: FlowMatch | None = None
    actions: _t.Sequence[Action] = ()
    priority: int = 1
    idle_timeout: float = 0.0
    cookie: _t.Any = None
    #: If set on an "add", the buffered packet is run through the new
    #: entry's actions immediately after installation.
    buffer_id: int | None = None
    xid: int = dataclasses.field(default_factory=next_xid)

    def __post_init__(self) -> None:
        if self.command not in ("add", "delete"):
            raise ValueError(f"unknown FlowMod command {self.command!r}")
        if self.command == "delete" and self.cookie is None:
            raise ValueError("a FlowMod delete selects by cookie; none given")


@dataclasses.dataclass
class PacketOut:
    """Controller → switch: release the packet held under ``buffer_id``
    through ``actions``."""

    actions: _t.Sequence[Action]
    buffer_id: int
    xid: int = dataclasses.field(default_factory=next_xid)


@dataclasses.dataclass
class FlowRemoved:
    """Switch → controller: an entry idled out.  Its channel names the
    switch; its match and priority name the entry."""

    match: FlowMatch
    priority: int


@dataclasses.dataclass
class BarrierRequest:
    """Controller → switch: fence message ordering."""

    xid: int = dataclasses.field(default_factory=next_xid)


@dataclasses.dataclass
class BarrierReply:
    """Switch → controller: all prior messages have been processed."""

    datapath_id: int
    xid: int
