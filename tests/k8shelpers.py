"""The Kubernetes control loops' slow twins.

``APIServer.subscribe`` calls each handler where its watch event's one
delivery entry lands (``APIServer._deliver``).  :func:`relays_on_the_heap`
puts back what that replaced: every subscriber is a :class:`Watch` — a
``Store``-backed channel — read by a relay process that subscribes at
its first resume and loops ``handler((yield watch.get()))``, and every
watch event is one ``_fan_out`` entry per channel.  That is the API
server as it was before handlers.

A worker a quiet delivery wakes resumes inside that delivery, and a
``get`` on a non-empty work queue at a quiet instant is processed on the
spot (``Store.put``, ``StoreGet``).  :func:`wakes_on_the_heap` puts back
what that replaced: every wake-up and every non-empty ``get`` is a
``StoreGet`` entry.  Composed, the two are the control loops as they
were before either; ``tests/test_properties.py`` holds each twin and
the code to one trace.

A chain of back-to-back delays is one heap entry
(``Environment.delays``), and so are a control loop's sync delay and
the request it issues after it (``APIServer._latency``'s ``lead``).
:func:`delays_on_the_heap` puts back what that replaced: one
``Timeout`` per delay, and the lead a ``Timeout`` of its own ahead of
the request.
"""

from __future__ import annotations

import contextlib
import typing as _t
from unittest import mock

from repro.k8s.apiserver import APIServer, WatchEvent
from repro.sim import Environment, Store, Timeout
from repro.sim.events import NORMAL, Event
from repro.sim.resources import StoreGet

_subscribe = APIServer.subscribe


class Watch:
    """One subscriber's event stream: a channel its reader yields
    ``get()`` on.  ``cancel()`` drops whatever is delivered after it."""

    def __init__(self, env: Environment) -> None:
        self.events = Store(env)
        self.active = True

    def get(self):
        """Event for the next watch notification (yield it)."""
        return self.events.get()

    def put(self, event: WatchEvent) -> None:
        if self.active:
            self.events.put(event)

    def cancel(self) -> None:
        self.active = False


def subscribe_channel(api: APIServer, kind: str) -> Watch:
    """A channel subscribed to ``kind`` (its replayed ADDEDs included)."""
    channel = Watch(api.env)
    api.subscribe(kind, channel.put)
    return channel


def _subscribe_through_a_relay(api, kind, handler) -> None:
    channel = Watch(api.env)

    def relay():
        _subscribe(api, kind, channel.put)
        while True:
            handler((yield channel.get()))

    api.env.spawn(relay(), name=f"relay:{kind}")


def _fan_out(api, kind, event_type, obj) -> None:
    subscribers = api._subscribers[kind]
    api.stats["events"] += len(subscribers)
    event = WatchEvent(event_type, obj)
    for subscriber in subscribers:
        api.env.call_later(
            api.profile.watch_latency_s, api._deliver, (subscriber,), event
        )


def _put_on_the_channels(api, subscribers, event) -> None:
    for subscriber in subscribers:
        subscriber.handler(event)


@contextlib.contextmanager
def relays_on_the_heap():
    """Every handler behind a channel and a relay process, every watch
    event one entry per channel that puts it there."""
    with mock.patch.object(
        APIServer, "subscribe", _subscribe_through_a_relay
    ), mock.patch.object(APIServer, "_notify", _fan_out), mock.patch.object(
        APIServer, "_deliver", _put_on_the_channels
    ):
        yield


def _put_waking_on_the_heap(store, item) -> None:
    if store._gets:
        store._gets.pop(0).succeed(item)
    else:
        store.items.append(item)


def _get_on_the_heap(get, store) -> None:
    Event.__init__(get, store.env)
    if store.items:
        get.succeed(store.items.pop(0))
    else:
        store._gets.append(get)


@contextlib.contextmanager
def wakes_on_the_heap():
    """Every work-queue wake-up and every ``get`` on a non-empty store
    one ``StoreGet`` entry, whatever is due at its instant."""
    with mock.patch.object(
        Store, "put", _put_waking_on_the_heap
    ), mock.patch.object(StoreGet, "__init__", _get_on_the_heap):
        yield


class Chains:
    """What :func:`delays_on_the_heap` put back.  Called, it counts the
    entries so far popped that the fast run saved.  ``met`` lists each
    ``(t_{n-1}, t_n)`` at which the fused entry would have popped in
    another order than the chain's last link: an entry pushed at
    ``t_{n-1}`` and due at ``t_n`` went first in the chain, and the
    fused entry's key puts it behind (``Environment.delays``'s
    exactness boundary)."""

    def __init__(self) -> None:
        self.paid: list[Event] = []
        self.met: list[tuple[float, float]] = []
        #: id of a chain's last link -> (the link, the seq its fused
        #: entry would have drawn at the call).
        self._last: dict[int, tuple[Event, int]] = {}

    def __call__(self) -> int:
        return sum(event.processed for event in self.paid)

    def last_link(self, env: Environment, delay: float, call_seq: int) -> Timeout:
        """Push a chain's last link, ``delay`` from now, noting each
        entry ahead of it that its fused entry would have gone behind."""
        now = env.now
        at = now + float(delay)
        fused = (now, call_seq)
        for entry in env._queue:
            if entry[0] == at and entry[1] == NORMAL and entry[2] == now:
                link, seq = self._last.get(id(entry[5]), (None, None))
                key = (now, seq) if link is entry[5] else (entry[3], entry[4])
                if fused < key:
                    self.met.append((now, at))
        link = Timeout(env, delay)
        self._last[id(link)] = (link, call_seq)
        return link


def _chained(chains: Chains):
    """``Environment.delays`` as the chain it stands for: a ``Timeout``
    of the first delay whose pop creates the next one and moves the
    waiter's callbacks onto it — the entry, and the key, the waiter's
    own next ``timeout`` would have pushed there."""

    def delays(env, *delays):
        call_seq = next(env._seq)
        first, *rest = delays
        link = Timeout(env, first)
        if rest:
            _relink(link, rest, chains, call_seq)
        return link

    return delays


def _relink(link: Event, rest: list[float], chains: Chains, call_seq: int) -> None:
    callbacks = _t.cast(list, link.callbacks)
    chains.paid.append(link)

    def next_link(_popped: Event) -> None:
        # ``callbacks`` is the list the kernel loop is iterating: what
        # follows this callback (the waiter) moves to the next link.
        waiters = callbacks[1:]
        del callbacks[1:]
        if rest[1:]:
            following = Timeout(link.env, rest[0])
            _relink(following, rest[1:], chains, call_seq)
        else:
            following = chains.last_link(link.env, rest[0], call_seq)
        _t.cast(list, following.callbacks).extend(waiters)

    callbacks.append(next_link)


def _lead_on_the_heap(chains: Chains):
    """``APIServer._latency`` as it was: the lead a ``Timeout`` of its
    own; then the request counted, the stall read and waited out, and
    the latency paid, each at its own instant."""

    def latency(api, lead=None):
        env = api.env
        if lead is not None:
            call_seq = next(env._seq)
            waited = env.timeout(lead)
            chains.paid.append(waited)
            yield waited
        api.stats["requests"] += 1
        stalled_until = api._stalled_until_at(env.now)
        if stalled_until > env.now:
            yield env.timeout(stalled_until - env.now)
        elif lead is not None:
            yield chains.last_link(env, api.profile.api_latency_s, call_seq)
            return
        yield env.timeout(api.profile.api_latency_s)

    return latency


@contextlib.contextmanager
def delays_on_the_heap() -> _t.Iterator[Chains]:
    """Every chain of delays one ``Timeout`` per delay, and every lead
    a ``Timeout`` ahead of its request."""
    chains = Chains()
    with mock.patch.object(Environment, "delays", _chained(chains)), mock.patch.object(
        APIServer, "_latency", _lead_on_the_heap(chains)
    ):
        yield chains
