"""The two-pass flow-table expiry, kept as the oracle for the fused one.

``FlowTable.sweep_and_deadline`` is what the switch's expiry wake runs:
one loop over inlined timeout arithmetic that both removes what expired
and finds the earliest deadline among the survivors.  These are the two
passes it replaced, written over the entry's own definitions
(``FlowEntry.expired`` / ``.next_deadline``) and the table's public
``remove``: what expired, in table order with its reason, and when the
next entry *could* expire.
"""

from __future__ import annotations

from repro.net.openflow import FlowEntry, FlowTable


def sweep_expired(table: FlowTable, now: float) -> list[tuple[FlowEntry, str]]:
    """Remove and return all expired entries with their reason."""
    expired = [
        (entry, reason)
        for entry in table
        if (reason := entry.expired(now)) is not None
    ]
    for entry, _reason in expired:
        table.remove(entry)
    return expired


def earliest_deadline(table: FlowTable) -> float | None:
    """Soonest possible expiry across all entries (lower bound)."""
    deadlines = [
        deadline
        for entry in table
        if (deadline := entry.next_deadline()) is not None
    ]
    return min(deadlines, default=None)
