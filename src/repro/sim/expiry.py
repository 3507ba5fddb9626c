"""One heap of deadlines and one armed wake: the clock of every timed table."""

from __future__ import annotations

import typing as _t
from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
from math import inf, nextafter
from operator import attrgetter

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment

#: The ``order`` of keys that carry their place in their owner's order
#: (a flow entry's install order, a memorized flow's).
by_order = attrgetter("_order")


class Expiry:
    """Keys due at deadlines their owner keeps, on a heap of ``(at, seq,
    key)``, and one main-heap wake at the earliest (DESIGN.md §6).

    ``at`` is a lower bound of the key's deadline; ``seq``, drawn per
    push, breaks ties and names the entry.  ``deadline(entry)`` is the
    owner's reading of an entry now: ``None`` once it is stale, at most
    now once its key is due, later than now otherwise.  A wake puts the
    keys not due back at their deadline, re-arms, and then hands the due
    keys to ``expire`` (in ``order``, if given, else heap order); a
    superseded wake does nothing.  On a ``grid`` a wake lands on the
    first tick past now at or after the deadline, ticks summed by float
    addition from the instant the heap was built.  The heap compacts
    once stale entries, as the owner counts them (:meth:`discard`), are
    more than half of at least 64 (asyncio's timer-heap rule).
    """

    __slots__ = (
        "env", "heap", "stale", "wake_at", "_gen", "_seq",
        "_deadline", "_expire", "_order", "_grid", "_tick",
    )

    def __init__(
        self,
        env: "Environment",
        deadline: _t.Callable[[tuple], float | None],
        expire: _t.Callable[[list], None],
        order: _t.Callable[[_t.Any], _t.Any] | None = None,
        grid: float | None = None,
    ) -> None:
        self.env = env
        self.heap: list[tuple] = []
        self.stale = 0
        #: When the armed wake fires; ``None`` when none is armed.
        self.wake_at: float | None = None
        self._gen = 0
        self._seq = count()
        self._deadline = deadline
        self._expire = expire
        self._order = order
        self._grid = grid
        self._tick = env._now

    def push(self, at: float, key: _t.Any) -> int:
        """Put ``key`` on the heap at ``at``; returns the entry's ``seq``."""
        seq = next(self._seq)
        heappush(self.heap, (at, seq, key))
        if self.wake_at is None or at < self.wake_at:
            self._arm(at)
        return seq

    def discard(self, n: int) -> None:
        """``n`` entries on the heap went stale."""
        self.stale += n
        heap = self.heap
        if len(heap) >= 64 and 2 * self.stale > len(heap):
            # Exact: the armed wake and the least live entry stay put, and
            # the unique (at, seq) keys keep the popping order.
            heap[:] = [entry for entry in heap if self._deadline(entry) is not None]
            heapify(heap)
            self.stale = 0

    def clear(self) -> None:
        """Every key is gone; the armed wake stays, and finds nothing."""
        self.heap.clear()
        self.stale = 0

    def _arm(self, at: float) -> None:
        if self._grid is not None:
            now = self.env._now
            while self._tick <= now:
                self._tick += self._grid
            tick = self._tick
            while tick < at:
                tick += self._grid
            at = tick
        if self.wake_at is None or at < self.wake_at:
            self.wake_at = at
            self._gen += 1
            self.env.call_at(at, self._wake, self._gen)

    def _wake(self, gen: int) -> None:
        if gen != self._gen:
            return  # superseded by an earlier arming
        self.wake_at = None
        now = self.env._now
        # A key can be due by its owner's test one float before its sum
        # (the flow table's test is a difference): pop one float past now.
        bound = nextafter(now, inf)
        heap, popped, due = self.heap, [], []
        while heap and heap[0][0] <= bound:
            popped.append(heappop(heap))
        for entry in popped:
            at = self._deadline(entry)
            if at is None:
                self.stale -= 1
            elif at <= now:
                due.append(entry[2])
            else:
                heappush(heap, (at, entry[1], entry[2]))
        # Re-arm at the earliest deadline, once the top is current: stale
        # tops dropped, tops whose deadline moved later put back.
        while heap:
            entry = heap[0]
            at = self._deadline(entry)
            if at is None:
                heappop(heap)
                self.stale -= 1
            elif at > entry[0]:
                heapreplace(heap, (at, entry[1], entry[2]))
            else:
                self._arm(at)
                break
        if due:
            if self._order is not None:
                due.sort(key=self._order)
            self._expire(due)
