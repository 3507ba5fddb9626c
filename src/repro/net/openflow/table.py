"""Flow entries and the hash-indexed, priority-resolving flow table."""

from __future__ import annotations

import bisect
import itertools
import operator
import typing as _t

from repro.net.openflow.actions import Action
from repro.net.openflow.match import FlowMatch
from repro.net.packet import Packet
from repro.sim.expiry import Expiry

#: Match fields an index shape can bind, in canonical order.  The
#: order matches the packet's cached ``match_values()`` tuple, then
#: the packet's connection mark.
_SHAPE_FIELDS = ("ip_src", "ip_dst", "tcp_src", "tcp_dst", "ct_mark")

#: Interned shape table: all 32 possible bound-field combinations,
#: indexed by bitmask over _SHAPE_FIELDS.  ``_shape_of`` returns one
#: of these shared tuples instead of allocating a fresh one per call.
_SHAPES: tuple[tuple[str, ...], ...] = tuple(
    tuple(f for bit, f in enumerate(_SHAPE_FIELDS) if mask >> bit & 1)
    for mask in range(32)
)

#: shape -> C-level getter slicing that shape's key out of a 5-tuple
#: of match values.  Single-field shapes key their buckets by the bare
#: value (no 1-tuple wrapper) — cheaper to build and to hash.
_KEY_GETTERS: dict[tuple[str, ...], _t.Callable[[tuple], _t.Any]] = {}
for _shape in _SHAPES:
    if not _shape:
        _KEY_GETTERS[_shape] = lambda mv: ()
    else:
        _KEY_GETTERS[_shape] = operator.itemgetter(
            *(_SHAPE_FIELDS.index(f) for f in _shape)
        )
del _shape


def _shape_of(match: FlowMatch) -> tuple[str, ...]:
    """The match's bound fields in canonical order (its index shape)."""
    return _SHAPES[
        (match.ip_src is not None)
        | (match.ip_dst is not None) << 1
        | (match.tcp_src is not None) << 2
        | (match.tcp_dst is not None) << 3
        | (match.ct_mark is not None) << 4
    ]


def _match_values(match: FlowMatch) -> tuple:
    """The match's field values in lookup order."""
    return (match.ip_src, match.ip_dst, match.tcp_src, match.tcp_dst, match.ct_mark)


class FlowEntry:
    """One rule: match → actions, with a priority and an idle timeout.

    ``idle_timeout`` of 0 means "never expires", as in OpenFlow; the
    entry expires once no packet has matched it for that long.  The
    paper's design keeps switch idle timeouts *low* (the controller's
    FlowMemory re-installs known flows quickly) so the table stays
    small.  An entry that idles out is reported to the controller (a
    FlowRemoved); nothing else that removes one is.
    """

    __slots__ = (
        "match",
        "actions",
        "priority",
        "idle_timeout",
        "cookie",
        "last_used",
        "packet_count",
        "_order",
    )

    def __init__(
        self,
        match: FlowMatch,
        actions: _t.Sequence[Action],
        priority: int = 1,
        idle_timeout: float = 0.0,
        cookie: _t.Any = None,
    ) -> None:
        if idle_timeout < 0:
            raise ValueError("idle_timeout must be >= 0")
        self.match = match
        self.actions = list(actions)
        self.priority = priority
        self.idle_timeout = float(idle_timeout)
        self.cookie = cookie
        self.last_used: float = 0.0
        self.packet_count: int = 0
        #: Table-assigned install order (tie-break within a priority).
        self._order: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        acts = ", ".join(str(a) for a in self.actions)
        return f"<FlowEntry p{self.priority} {self.match} -> [{acts}]>"


class FlowTable:
    """A single OpenFlow table: the highest-priority match wins, and
    insertion order breaks priority ties (first installed wins), which
    keeps lookups deterministic.

    Priority lives in one place, the lookup index: an exact-match hash
    index grouped by each match's *shape* (its tuple of bound fields).
    Within a shape, the packet's field values form a dict key, so the
    common case — FlowMemory-installed exact-tuple redirect rules —
    resolves in O(1) instead of a linear scan.  Matches binding no
    fields land in the wildcard shape ``()`` whose single bucket is the
    fallback list.  Each bucket stays sorted by ``(-priority, install
    order)``; a lookup takes the best head across the (few) shapes,
    which is exactly the entry a first-match scan in that order would
    return.  The master collection only holds the live entries, in
    install order: iteration, ``len`` and an O(1) :meth:`remove`.

    Lookup keys are sliced out of the packet's cached
    :meth:`~repro.net.packet.Packet.match_values` tuple, with the
    switch's mark for the packet's connection appended, by interned
    per-shape ``itemgetter`` objects — the key is built in C from a
    tuple computed once per packet, not rebuilt field-by-field at
    every hop.  A cookie-keyed side index makes FlowMod deletes (the
    controller's teardown path) independent of table size.
    """

    def __init__(self, expiry: Expiry) -> None:
        #: Where the timed entries' idle deadlines are kept (its switch's).
        self.expiry = expiry
        # Insertion-ordered set of the live entries.
        self._entries: dict[FlowEntry, None] = {}
        #: Mutation counter: bumped on every install and every removal
        #: (FlowMod delete, idle-out, power cycle).
        #: Published per switch by the ops read model
        #: (``SwitchView.table_epoch``): equal epochs mean an unchanged
        #: table.
        self.epoch = 0
        # shape -> {field-values key -> sorted [(-prio, order, entry)]}
        self._index: dict[tuple[str, ...], dict[_t.Any, list]] = {}
        # Flat lookup plan: one (key-getter, buckets) pair per live
        # shape, rebuilt only when the shape set changes.
        self._plans: list[tuple[_t.Callable[[tuple], _t.Any], dict]] = []
        # cookie -> live entries carrying it, in install order.
        self._by_cookie: dict[_t.Any, list[FlowEntry]] = {}
        self._order = itertools.count(1)
        #: Largest size the table ever reached (benchmark metric).
        self.peak_size = 0
        #: Live entries that match a connection mark: while there is
        #: none, a lookup needs no packet's mark.
        self.marked = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> _t.Iterator[FlowEntry]:
        return iter(self._entries)

    def __contains__(self, entry: object) -> bool:
        return entry in self._entries

    def install(self, entry: FlowEntry, now: float) -> None:
        self.epoch += 1
        entry.last_used = now
        entry._order = next(self._order)
        entries = self._entries
        entries[entry] = None
        if len(entries) > self.peak_size:
            self.peak_size = len(entries)
        self._index_add(entry)
        if entry.idle_timeout:
            self.expiry.push(now + entry.idle_timeout, entry)

    def lookup(self, packet: Packet, mark: _t.Any) -> FlowEntry | None:
        """Highest-priority matching entry, or ``None`` (table miss);
        ``mark`` is the packet's connection's (``None``: it has none)."""
        mv = packet.match_values() + (mark,)
        best_head: tuple | None = None
        for get_key, buckets in self._plans:
            bucket = buckets.get(get_key(mv))
            if bucket:
                head = bucket[0]
                # Install orders are unique, so this tuple comparison
                # decides on (-priority, order) and never reaches the
                # (incomparable) entry element.
                if best_head is None or head < best_head:
                    best_head = head
        return best_head[2] if best_head is not None else None

    def clear(self) -> None:
        """Drop every entry at once (switch power-cycle).

        No FlowRemoved notifications fire — a dead switch cannot
        notify — and the epoch bumps exactly once.
        """
        self.epoch += 1
        self._entries.clear()
        self._index.clear()
        self._plans.clear()
        self._by_cookie.clear()
        self.marked = 0
        self.expiry.clear()

    def remove_matching(self, cookie: _t.Any) -> list[FlowEntry]:
        """Remove the entries carrying ``cookie`` (a FlowMod delete);
        returns them in install order."""
        removed = self._by_cookie.pop(cookie, [])
        self._bulk_remove(removed)
        # Their deadlines stay on the expiry heap, stale.
        self.expiry.discard(sum(1 for entry in removed if entry.idle_timeout))
        return removed

    def _bulk_remove(self, removed: list[FlowEntry]) -> None:
        """Drop installed entries (a delete's, or idle-outs)."""
        if not removed:
            return
        self.epoch += 1
        for entry in removed:
            del self._entries[entry]
            self._index_discard(entry)

    # -- index maintenance ----------------------------------------------

    def _index_add(self, entry: FlowEntry) -> None:
        shape = _shape_of(entry.match)
        key = _KEY_GETTERS[shape](_match_values(entry.match))
        buckets = self._index.get(shape)
        if buckets is None:
            buckets = self._index[shape] = {}
            self._plans.append((_KEY_GETTERS[shape], buckets))
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [(-entry.priority, entry._order, entry)]
        else:
            bisect.insort(bucket, (-entry.priority, entry._order, entry))
        if entry.match.ct_mark is not None:
            self.marked += 1
        if entry.cookie is not None:
            holders = self._by_cookie.get(entry.cookie)
            if holders is None:
                self._by_cookie[entry.cookie] = [entry]
            else:
                holders.append(entry)

    def _index_discard(self, entry: FlowEntry) -> None:
        shape = _shape_of(entry.match)
        buckets = self._index[shape]
        key = _KEY_GETTERS[shape](_match_values(entry.match))
        bucket = buckets[key]
        # (-prio, order) sorts just ahead of its own 3-tuple.
        del bucket[bisect.bisect_left(bucket, (-entry.priority, entry._order))]
        if not bucket:
            del buckets[key]
            if not buckets:
                del self._index[shape]
                self._plans = [(g, d) for g, d in self._plans if d is not buckets]
        if entry.match.ct_mark is not None:
            self.marked -= 1
        if entry.cookie is not None:
            holders = self._by_cookie.get(entry.cookie)
            if holders is not None:  # None: a delete popped them all
                holders.remove(entry)
                if not holders:
                    del self._by_cookie[entry.cookie]
