"""The two-pass flow-table expiry, kept as the oracle for the fused one.

``FlowTable.sweep_and_deadline`` is what the switch's expiry wake runs:
one loop over inlined timeout arithmetic that both removes what expired
and finds the earliest deadline among the survivors.  These are the two
passes it replaced, written per entry (``expired`` here,
``FlowEntry.next_deadline``) over the table's public ``remove``: what
expired, in table order with its reason, and when the next entry
*could* expire.  ``touch`` is a matched packet as the switch's pipeline
accounts for it.
"""

from __future__ import annotations

from repro.net.openflow import FlowEntry, FlowTable
from repro.net.openflow.table import REASON_HARD_TIMEOUT, REASON_IDLE_TIMEOUT


def touch(entry: FlowEntry, now: float) -> None:
    entry.last_used = now
    entry.packet_count += 1


def expired(entry: FlowEntry, now: float) -> str | None:
    """Return the expiry reason, or ``None`` if still live."""
    if entry.hard_timeout and now - entry.installed_at >= entry.hard_timeout:
        return REASON_HARD_TIMEOUT
    if entry.idle_timeout and now - entry.last_used >= entry.idle_timeout:
        return REASON_IDLE_TIMEOUT
    return None


def sweep_expired(table: FlowTable, now: float) -> list[tuple[FlowEntry, str]]:
    """Remove and return all expired entries with their reason."""
    gone = [
        (entry, reason)
        for entry in table
        if (reason := expired(entry, now)) is not None
    ]
    for entry, _reason in gone:
        table.remove(entry)
    return gone


def earliest_deadline(table: FlowTable) -> float | None:
    """Soonest possible expiry across all entries (lower bound)."""
    deadlines = [
        deadline
        for entry in table
        if (deadline := entry.next_deadline()) is not None
    ]
    return min(deadlines, default=None)
