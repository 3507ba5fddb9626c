"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — a counted semaphore (e.g. CPU slots on an edge
  node, concurrent layer downloads at a registry).
* :class:`Store` — an unbounded FIFO of Python objects (the
  Kubernetes control loops' work queues).

What a process can wait *for* is an event (``Request``, ``StoreGet``)
and it obtains the resource by yielding it; what never blocks
(``Resource.release``, ``Store.put``) is a plain call that mints none.
A ``StoreGet`` is a heap entry only when it stands behind something
else due at its instant: a get on a non-empty store at a quiet instant
is processed at once, and a put inside a quiet watch delivery leaves
its getter's wake-up to the delivery (:class:`Store`).
``Request`` doubles as a context manager so the canonical usage reads::

    with resource.request() as req:
        yield req
        ... critical section ...
"""

from __future__ import annotations

import typing as _t

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


class StoreGet(Event):
    """A pending retrieval from a :class:`Store`."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        env = store.env
        super().__init__(env)
        if not store.items:
            store._gets.append(self)
        elif env.quiet_now():
            # Processed already: the yield whose operand this is feeds
            # the item straight back (contract at Store.get).
            self._value = store.items.pop(0)
            self.callbacks = None
        else:
            self.succeed(store.items.pop(0))


class Store:
    """An unbounded FIFO of items.

    Only a ``get`` can wait, so only a ``get`` is an event: ``put``
    always has room, nobody could yield its completion to any effect,
    and a heap entry that pops with no callback to run does nothing —
    so none is pushed.  A put into an idle store costs nothing.  A put
    with a getter blocked costs the getter's own entry, or none when
    made inside a quiet watch delivery: then ``Environment._woken`` is
    open, the wake-up is recorded there, and ``APIServer._deliver``
    resumes it in place after its last handler.  A ``get`` on a
    non-empty store costs an entry only when something else is due now.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: list[_t.Any] = []
        self._gets: list[StoreGet] = []

    def put(self, item: _t.Any) -> None:
        """Hand ``item`` to the oldest blocked getter, or queue it."""
        if self._gets:
            getter = self._gets.pop(0)
            woken = self.env._woken
            if woken is None:
                getter.succeed(item)
            else:
                woken.append((getter, item))
        else:
            self.items.append(item)

    def get(self) -> StoreGet:
        """Remove and return the next item; fires once one exists.

        **Contract**: the returned event is the operand of a ``yield``
        that is its process's last act, so that when the store is
        non-empty and ``Environment.quiet_now()`` holds, the entry the
        get would push is the next to pop — and the get is processed on
        the spot instead (``tests/test_conventions.py`` checks the
        ``yield``)."""
        return StoreGet(self)
