"""The two-pass flow-table expiry, kept as the oracle for the fused one.

``FlowTable.sweep_and_deadline`` is what the switch's expiry wake runs:
one loop over inlined timeout arithmetic that both removes what idled
out and finds the earliest deadline among the survivors.  These are the
two passes it replaced, written per entry (``expired`` here,
``FlowEntry.next_deadline``) over ``remove``: what expired, in table
order, and when the next entry *could* expire.  ``touch`` is a matched
packet as the switch's pipeline accounts for it, and ``matches`` the
field-by-field semantics the table's indexed lookup implements, the
connection mark among them.
"""

from __future__ import annotations

from repro.net.openflow import FlowEntry, FlowMatch, FlowTable
from repro.net.packet import Packet


def matches(match: FlowMatch, packet: Packet, mark=None) -> bool:
    """Whether every non-wildcard field of ``match`` equals the packet's,
    ``mark`` standing for the mark its switch holds for its connection."""
    if match.ct_mark is not None and mark != match.ct_mark:
        return False
    if match.ip_src is not None and packet.ip_src != match.ip_src:
        return False
    if match.ip_dst is not None and packet.ip_dst != match.ip_dst:
        return False
    if match.tcp_src is not None and packet.tcp.src_port != match.tcp_src:
        return False
    if match.tcp_dst is not None and packet.tcp.dst_port != match.tcp_dst:
        return False
    return True


def remove(table: FlowTable, entry: FlowEntry) -> bool:
    """Drop one installed entry; False if it is not in the table."""
    if entry not in table:
        return False
    table._bulk_remove([entry])
    return True


def touch(entry: FlowEntry, now: float) -> None:
    entry.last_used = now
    entry.packet_count += 1


def expired(entry: FlowEntry, now: float) -> bool:
    """Whether the entry has idled out by ``now``."""
    return bool(entry.idle_timeout) and now - entry.last_used >= entry.idle_timeout


def sweep_expired(table: FlowTable, now: float) -> list[FlowEntry]:
    """Remove and return all expired entries."""
    gone = [entry for entry in table if expired(entry, now)]
    for entry in gone:
        remove(table, entry)
    return gone


def earliest_deadline(table: FlowTable) -> float | None:
    """Soonest possible expiry across all entries (lower bound)."""
    deadlines = [
        deadline
        for entry in table
        if (deadline := entry.next_deadline()) is not None
    ]
    return min(deadlines, default=None)
