"""OpenFlow data plane: matches, actions, flow tables, and the switch.

Models the OpenFlow 1.5 subset the paper's controller sends (§V, fig.
2): priority-ordered exact/wildcard matches on the IPv4/TCP 4-tuple,
destination NAT of a tracked connection (one action commits it at its
SYN, marked with the endpoint it goes to, and rewrites its destination;
a match on that mark), source rewrites of the answers, output actions,
packet-in with buffering, flow-mod adds with idle timeouts and deletes
by cookie, packet-out releasing a buffered packet, barriers, and
flow-removed notifications of idle-outs.
"""

from repro.net.openflow.match import FlowMatch
from repro.net.openflow.actions import Drop, Nat, Output, SetSrc, ToController
from repro.net.openflow.table import FlowEntry, FlowTable
from repro.net.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowRemoved,
    PacketIn,
    PacketOut,
)
from repro.net.openflow.switch import ControlChannel, OpenFlowSwitch

__all__ = [
    "BarrierReply",
    "BarrierRequest",
    "ControlChannel",
    "Drop",
    "FlowEntry",
    "FlowMatch",
    "FlowMod",
    "FlowRemoved",
    "FlowTable",
    "Nat",
    "OpenFlowSwitch",
    "Output",
    "PacketIn",
    "PacketOut",
    "SetSrc",
    "ToController",
]
