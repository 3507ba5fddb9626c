"""OpenFlow data plane: matches, actions, flow tables, and the switch.

Models the OpenFlow 1.5 subset the paper's controller sends (§V, fig.
2): priority-ordered exact/wildcard matches on the IPv4/TCP 4-tuple,
*set-field* rewrites of those fields, connection tracking (a commit
that marks a connection at its SYN, a match on that mark), output
actions, packet-in with buffering, flow-mod adds with idle timeouts and
deletes by cookie, packet-out releasing a buffered packet, barriers,
and flow-removed notifications of idle-outs.
"""

from repro.net.openflow.match import FlowMatch
from repro.net.openflow.actions import Commit, Drop, Output, SetField, ToController
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
    "Commit",
    "ControlChannel",
    "Drop",
    "FlowEntry",
    "FlowMatch",
    "FlowMod",
    "FlowRemoved",
    "FlowTable",
    "OpenFlowSwitch",
    "Output",
    "PacketIn",
    "PacketOut",
    "SetField",
    "ToController",
]
