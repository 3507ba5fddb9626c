"""The flow table's expiry as it was before the expiry heap, kept as its
reference.

A switch's timed entries idle out through ``repro.sim.expiry.Expiry``:
an install pushes the entry's deadline, a matched packet pushes
nothing, and one wake on the sweep grid pops what is due.  Before it,
every wake scanned the whole table twice over: ``sweep_expired`` (what
idled out, in table order) and ``earliest_deadline`` (when the next
survivor *could*), and :class:`SweptExpiry` is that wake — armed on the
same grid, re-armed the same way — over a :func:`bare_table`.
``touch`` is a matched packet as the switch's pipeline accounts for it,
and ``matches`` the field-by-field semantics the table's indexed lookup
implements, the connection mark among them.
"""

from __future__ import annotations

import typing as _t

from repro.net.openflow import FlowEntry, FlowMatch, FlowRemoved, FlowTable
from repro.net.openflow.switch import EXPIRY_SWEEP_INTERVAL_S
from repro.net.packet import Packet
from repro.sim import Environment
from repro.sim.expiry import Expiry


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


def bare_table() -> FlowTable:
    """A table whose expiry heap no run wakes: a switch's table, for what
    it does besides idling entries out (its lookup, its index)."""
    return FlowTable(Expiry(Environment(), lambda entry: None, lambda keys: None))


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
        entry.last_used + entry.idle_timeout for entry in table if entry.idle_timeout
    ]
    return min(deadlines, default=None)


class SweptExpiry:
    """The switch's expiry wake before the expiry heap: one wake at the
    sweep-grid tick covering the earliest deadline (the grid accumulated
    by float addition from the instant it was built), re-armed after
    every wake, superseded wakes doing nothing; at each wake the two
    scans above, and a ``FlowRemoved`` per expired entry to ``send``."""

    def __init__(
        self, env: Environment, table: FlowTable, send: _t.Callable[[FlowRemoved], None]
    ) -> None:
        self.env, self.table, self.send = env, table, send
        self._grid_cursor = env.now
        self._wake_at: float | None = None
        self._wake_gen = 0

    def install(self, entry: FlowEntry) -> None:
        self.table.install(entry, self.env.now)
        if entry.idle_timeout:
            self._schedule(entry.last_used + entry.idle_timeout)

    def _schedule(self, deadline: float) -> None:
        if self._wake_at is not None and self._wake_at <= deadline:
            return
        now = self.env.now
        while self._grid_cursor <= now:
            self._grid_cursor += EXPIRY_SWEEP_INTERVAL_S
        tick = self._grid_cursor
        while tick < deadline:
            tick += EXPIRY_SWEEP_INTERVAL_S
        if self._wake_at is not None and self._wake_at <= tick:
            return
        self._wake_at = tick
        self._wake_gen += 1
        self.env.call_at(tick, self._wake, self._wake_gen)

    def _wake(self, gen: int) -> None:
        if gen != self._wake_gen:
            return
        self._wake_at = None
        for entry in sweep_expired(self.table, self.env.now):
            self.send(FlowRemoved(entry.match))
        deadline = earliest_deadline(self.table)
        if deadline is not None:
            self._schedule(deadline)
