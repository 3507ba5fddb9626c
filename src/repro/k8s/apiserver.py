"""The Kubernetes API server: object store plus watch subscriptions.

Every CRUD call is a generator that pays ``api_latency_s``; every
subscribed handler gets its kind's ADDED/MODIFIED/DELETED events after
``watch_latency_s``, in order — client-go's informer event handlers,
which the control loops are built on, run where each event's one
delivery entry lands (:meth:`APIServer._deliver`).

Like an informer cache, each kind's store is kept in uid order and
indexed by what is fixed when an object is written — uid, namespace,
owner, labels — so synchronous reads visit only what they return;
``status`` and ``spec`` are written in place by the control loops and
are therefore never indexed, only filtered by the reader.

Readers that follow *changes* subscribe to a kind's journal
(:meth:`APIServer.journal`): every store write records the object when
it lands in the store — not when its watch event is delivered — at no
request, event or latency.  A control loop that writes a stored object
in place announces that with :meth:`APIServer.touch`.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing as _t

from repro.k8s.objects import KINDS, ObjectMeta
from repro.k8s.profile import K8sProfile
from repro.sim import Environment


class NotFound(KeyError):
    """No such object."""


class Conflict(RuntimeError):
    """Create of an already-existing object."""


@dataclasses.dataclass
class WatchEvent:
    type: str  # ADDED | MODIFIED | DELETED
    obj: _t.Any


class _Subscriber:
    """One handler on one kind.  ``mailbox`` is ``None`` while the
    subscriber is idle; otherwise a wake-up of it is on the heap at this
    instant, and the list holds the events delivered behind that
    wake-up's, oldest first."""

    __slots__ = ("handler", "mailbox")

    def __init__(self, handler: _t.Callable[[WatchEvent], None]) -> None:
        self.handler = handler
        self.mailbox: list[WatchEvent] | None = None


def _uid_of(obj: _t.Any) -> str:
    return obj.metadata.uid


class _KindStore:
    """One kind's objects: by key, in uid order, and by index term.

    A term is ``("uid", uid)``, ``("namespace", ns)``, ``("owner",
    owner_uid)`` or ``("label", key, value)``; ``postings`` maps each
    term to the objects carrying it.  Terms are those of the last
    :meth:`put`: a field mutated in place is re-indexed by the next
    ``update()``, not before.
    """

    def __init__(self) -> None:
        #: key -> (object, the terms it is indexed under; uid term first).
        self.records: dict[tuple[str, str], tuple[_t.Any, tuple]] = {}
        #: Indexed uids, sorted, and the objects in the same order (uids
        #: are allocated at construction, so this is not insertion order).
        self.uids: list[str] = []
        self.objects: list[_t.Any] = []
        self.postings: dict[tuple, dict[tuple[str, str], _t.Any]] = {}

    def get(self, key: tuple[str, str]) -> _t.Any:
        record = self.records.get(key)
        return None if record is None else record[0]

    def put(self, key: tuple[str, str], obj: _t.Any) -> _t.Any:
        """Store ``obj`` under ``key``, replacing and re-indexing;
        returns what was stored there before (``None``: nothing)."""
        meta = obj.metadata
        terms = (
            ("uid", meta.uid),
            ("namespace", key[0]),
            ("owner", meta.owner_uid),
            *(("label", *pair) for pair in meta.labels.items()),
        )
        replaced = self.pop(key)
        at = bisect.bisect_right(self.uids, meta.uid)
        self.uids.insert(at, meta.uid)
        self.objects.insert(at, obj)
        for term in terms:
            self.postings.setdefault(term, {})[key] = obj
        self.records[key] = (obj, terms)
        return replaced

    def pop(self, key: tuple[str, str]) -> _t.Any:
        """Remove and return the object under ``key`` (``None`` if absent)."""
        record = self.records.pop(key, None)
        if record is None:
            return None
        obj, terms = record
        at = bisect.bisect_left(self.uids, terms[0][1])
        while self.objects[at] is not obj:
            at += 1
        del self.uids[at], self.objects[at]
        for term in terms:
            posting = self.postings[term]
            del posting[key]
            if not posting:
                del self.postings[term]
        return obj

    def select(self, terms: list[tuple]) -> list[_t.Any]:
        """Objects carrying every term (none: all), a fresh list in uid
        order; only the shortest posting is walked."""
        if not terms:
            return list(self.objects)
        postings = [self.postings.get(term) for term in terms]
        if not all(postings):
            return []
        shortest, *rest = sorted(postings, key=len)
        found = [
            obj
            for key, obj in shortest.items()
            if all(key in posting for posting in rest)
        ]
        found.sort(key=_uid_of)
        return found


class APIServer:
    """Stores all cluster objects and delivers watch events to handlers."""

    def __init__(self, env: Environment, profile: K8sProfile | None = None) -> None:
        self.env = env
        self.profile = profile or K8sProfile()
        self._stores: dict[str, _KindStore] = {kind: _KindStore() for kind in KINDS}
        #: kind -> its subscribers, in subscription order.
        self._subscribers: dict[str, tuple[_Subscriber, ...]] = {kind: () for kind in KINDS}
        #: kind -> its journal subscribers, each a dict uid -> object.
        self._journals: dict[str, list[dict[str, _t.Any]]] = {kind: [] for kind in KINDS}
        self._resource_version = 0
        #: API request counter, for tests.
        self.stats = {"requests": 0, "events": 0}
        #: Failure injection: requests issued before this instant block
        #: until it passes (a stalled apiserver is slow, not dead).
        self._stalled_until = 0.0

    # -- helpers ----------------------------------------------------------

    def stall_for(self, duration_s: float) -> None:
        """Stall the apiserver: every request issued during the window
        waits for the residual stall before its normal latency."""
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        self._stalled_until = max(
            self._stalled_until, self.env.now + duration_s
        )

    def _latency(self):
        self.stats["requests"] += 1
        stalled_until = self._stalled_until
        if stalled_until > self.env.now:
            yield self.env.timeout(stalled_until - self.env.now)
        yield self.env.timeout(self.profile.api_latency_s)

    def _bump(self, meta: ObjectMeta) -> None:
        self._resource_version += 1
        meta.resource_version = self._resource_version

    def _notify(self, kind: str, event_type: str, obj: _t.Any) -> None:
        subscribers = self._subscribers[kind]  # who is subscribed now gets it
        if subscribers:
            self.stats["events"] += len(subscribers)
            event = WatchEvent(event_type, obj)
            self.env.call_later(self.profile.watch_latency_s, self._deliver, subscribers, event)

    def _deliver(self, subscribers: tuple[_Subscriber, ...], event: WatchEvent) -> None:
        """Run each subscriber's handler on ``event``, in subscription order.

        **Guard**: if ``Environment.quiet_now()``, here.  A handler used
        to sit behind a channel read by a relay process, whose wake-ups
        this delivery pushed in order; with nothing else due now, none
        was pending and they were the next entries to pop, each pushing
        nothing ahead of the rest.  **Contract**: handlers only put on
        work queues — never yield, write the store or deliver.

        The in-place branch is also the **collection point** of the
        work-queue wake-ups its handlers cause: while it is open
        (``Environment._woken``), a ``Store.put`` that hands its item to
        a blocked worker records the two instead of pushing the worker's
        ``StoreGet``; after the last handler, each recorded worker
        resumes here, in put order.  Their entries would have been the
        only ones due now, consecutive, popping next; each woken worker's
        first act pushes a delay, which ranks behind the wake-ups still
        to run even when it is 0, since they run before control returns
        to the loop.  **Contract**: a woken worker's first segment ends
        in a delay — never a ``get`` or a put.  Resuming each at its put
        instead (``succeed_tail``) would run a worker ahead of later
        handlers and let its zero-delay timer overtake the next wake-up.

        **Fallback**, when something is due first: the idle subscribers
        share one wake-up (:meth:`_wake`) where theirs stood; one whose
        wake-up is pending queues the event in its mailbox, served by a
        wake-up of its own pushed after its handler runs, as a relay
        re-read a non-empty channel.  Without mailboxes, two writes at
        one instant could reorder a work queue.  Its puts push.
        """
        env = self.env
        if env.quiet_now():
            env._woken = woken = []
            try:
                for subscriber in subscribers:
                    subscriber.handler(event)
            finally:
                env._woken = None
            for getter, item in woken:
                getter._succeed_here(item)
            return
        idle = []
        for subscriber in subscribers:
            if subscriber.mailbox is None:
                subscriber.mailbox = []
                idle.append(subscriber)
            else:
                subscriber.mailbox.append(event)
        if idle:
            env.call_later(0.0, self._wake, idle, event)

    def _wake(self, subscribers: _t.Sequence[_Subscriber], event: WatchEvent) -> None:
        """The fallback's wake-up: run each handler, then wake its
        subscriber again for its next mailbox event, or mark it idle."""
        for subscriber in subscribers:
            subscriber.handler(event)
            mailbox = subscriber.mailbox
            if mailbox:
                self.env.call_later(0.0, self._wake, (subscriber,), mailbox.pop(0))
            else:
                subscriber.mailbox = None

    @staticmethod
    def _kind_of(obj: _t.Any) -> str:
        kind = getattr(obj, "kind", None)
        if kind not in KINDS:
            raise TypeError(f"not an API object: {obj!r}")
        return kind

    # -- change journal (synchronous) ----------------------------------------

    def journal(self, kind: str) -> dict[str, _t.Any]:
        """Subscribe to ``kind``'s change journal: a dict ``uid ->
        object``, starting with what is stored now, that every later
        store write and :meth:`touch` adds to at once.  The subscriber
        empties it when it has caught up."""
        entries = {obj.metadata.uid: obj for obj in self._stores[kind].objects}
        self._journals[kind].append(entries)
        return entries

    def touch(self, obj: _t.Any) -> None:
        """Journal ``obj`` as changed (no request, event or latency): how
        an in-place write to a stored object — the kubelet's
        ``status.ready``, the scheduler's ``spec.node_name`` — is
        announced, in the same step, ahead of its ``update``."""
        for entries in self._journals[self._kind_of(obj)]:
            entries[obj.metadata.uid] = obj

    def _put(self, kind: str, obj: _t.Any) -> None:
        """Store ``obj`` and journal it, with whatever it replaced."""
        replaced = self._stores[kind].put(obj.metadata.key, obj)
        if replaced is not None and replaced is not obj:
            self.touch(replaced)
        self.touch(obj)

    # -- CRUD (generators) ---------------------------------------------------

    def create(self, obj: _t.Any):
        """Create an object (generator returning it)."""
        kind = self._kind_of(obj)
        yield from self._latency()
        key = obj.metadata.key
        if key in self._stores[kind].records:
            raise Conflict(f"{kind} {key} already exists")
        obj.metadata.creation_time = self.env.now
        self._bump(obj.metadata)
        self._put(kind, obj)
        self._notify(kind, "ADDED", obj)
        return obj

    def inject(self, obj: _t.Any) -> None:
        """Failure injection: store ``obj`` at once, with no watch event
        — what the control loops see after a lost notification."""
        self._put(self._kind_of(obj), obj)

    def get(self, kind: str, name: str, namespace: str = "default"):
        """Fetch one object (generator)."""
        yield from self._latency()
        obj = self._stores[kind].get((namespace, name))
        if obj is None:
            raise NotFound(f"{kind} {namespace}/{name}")
        return obj

    def try_get(self, kind: str, name: str, namespace: str = "default"):
        """Like :meth:`get` but returns ``None`` instead of raising."""
        yield from self._latency()
        return self._stores[kind].get((namespace, name))

    def list_nowait(
        self,
        kind: str,
        namespace: str | None = "default",
        selector: _t.Mapping[str, str] | None = None,
        owner_uid: str | None = None,
    ) -> list[_t.Any]:
        """Synchronous (informer-cache style) list, no API latency:
        a fresh list in uid order, read through the indexes."""
        terms: list[tuple] = [("label", *pair) for pair in (selector or {}).items()]
        if owner_uid is not None:
            terms.append(("owner", owner_uid))
        if namespace is not None:
            terms.append(("namespace", namespace))
        return self._stores[kind].select(terms)

    def by_uid_nowait(self, kind: str, uid: str) -> _t.Any:
        """The ``kind`` object with this uid, or ``None`` (synchronous)."""
        return next(iter(self._stores[kind].select([("uid", uid)])), None)

    def update(self, obj: _t.Any):
        """Persist a mutation and notify watchers (generator)."""
        kind = self._kind_of(obj)
        yield from self._latency()
        key = obj.metadata.key
        if key not in self._stores[kind].records:
            raise NotFound(f"{kind} {key}")
        self._bump(obj.metadata)
        self._put(kind, obj)
        self._notify(kind, "MODIFIED", obj)
        return obj

    def delete(self, kind: str, name: str, namespace: str = "default"):
        """Delete an object (generator returning it)."""
        yield from self._latency()
        obj = self._stores[kind].pop((namespace, name))
        if obj is None:
            raise NotFound(f"{kind} {namespace}/{name}")
        self.touch(obj)
        self._notify(kind, "DELETED", obj)
        return obj

    # -- watches -------------------------------------------------------------------

    def subscribe(self, kind: str, handler: _t.Callable[[WatchEvent], None]) -> None:
        """Call ``handler(event)`` with each of ``kind``'s later events,
        and first with a synthetic ADDED per object stored now — one
        delivery each (informer list+watch semantics).  Handlers of one
        kind run in subscription order."""
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        subscriber = _Subscriber(handler)
        self._subscribers[kind] += (subscriber,)
        for obj in self.list_nowait(kind, namespace=None):
            self.stats["events"] += 1
            event = WatchEvent("ADDED", obj)
            self.env.call_later(self.profile.watch_latency_s, self._deliver, (subscriber,), event)
