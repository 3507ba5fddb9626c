"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — a counted semaphore (e.g. CPU slots on an edge
  node, concurrent layer downloads at a registry).
* :class:`Store` — an unbounded-or-capacitated FIFO of Python objects
  (e.g. a switch's packet queue, the API server's watch channels).
* :class:`PriorityStore` — a store that yields the smallest item first.
* :class:`Container` — a continuous level (e.g. bytes of disk space).

All acquisition objects are events; a process obtains the resource by
yielding them.  ``Request``/``Release`` double as context managers so
the canonical usage reads::

    with resource.request() as req:
        yield req
        ... critical section ...
"""

from __future__ import annotations

import heapq
import typing as _t
from itertools import count

from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled request (no-op once granted)."""
        if not self.triggered:
            try:
                self.resource._waiting.remove(self)
            except ValueError:  # pragma: no cover - already granted/cancelled
                pass

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: object) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            self.cancel()


class Resource:
    """A semaphore with ``capacity`` slots, granted in FIFO order."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: list[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of unfulfilled requests."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        self._users.discard(request)
        self._grant()

    def _do_request(self, request: Request) -> None:
        self._waiting.append(request)
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.pop(0)
            self._users.add(nxt)
            nxt.succeed(nxt)


class StorePut(Event):
    """A pending insertion into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: _t.Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._puts.append(self)
        store._dispatch()


class StoreGet(Event):
    """A pending retrieval from a :class:`Store`."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._gets.append(self)
        store._dispatch()


class Store:
    """A FIFO buffer of items with optional capacity."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[_t.Any] = []
        self._puts: list[StorePut] = []
        self._gets: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: _t.Any) -> StorePut:
        """Insert ``item``; fires once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove and return the next item; fires once one exists."""
        return StoreGet(self)

    # -- internals -------------------------------------------------------

    def _store_item(self, item: _t.Any) -> None:
        self.items.append(item)

    def _take_item(self) -> _t.Any:
        return self.items.pop(0)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit puts while there is room.
            while self._puts and len(self.items) < self.capacity:
                put = self._puts.pop(0)
                self._store_item(put.item)
                put.succeed(None)
                progress = True
            # Serve gets while items exist.
            while self._gets and self.items:
                self._gets.pop(0).succeed(self._take_item())
                progress = True


class PriorityStore(Store):
    """A store that always yields its smallest item (heap order)."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self._tiebreak = count()

    def _store_item(self, item: _t.Any) -> None:
        heapq.heappush(self.items, (item, next(self._tiebreak)))

    def _take_item(self) -> _t.Any:
        return heapq.heappop(self.items)[0]


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._puts.append(self)
        container._dispatch()


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._gets.append(self)
        container._dispatch()


class Container:
    """A continuous quantity between 0 and ``capacity``."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init={init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._puts: list[ContainerPut] = []
        self._gets: list[ContainerGet] = []

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount``; fires once it fits under ``capacity``."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Remove ``amount``; fires once the level suffices."""
        return ContainerGet(self, amount)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._puts and self._level + self._puts[0].amount <= self.capacity:
                put = self._puts.pop(0)
                self._level += put.amount
                put.succeed(None)
                progress = True
            if self._gets and self._gets[0].amount <= self._level:
                get = self._gets.pop(0)
                self._level -= get.amount
                get.succeed(None)
                progress = True
