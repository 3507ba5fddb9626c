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
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.k8s.apiserver import APIServer, WatchEvent
from repro.sim import Environment, Store
from repro.sim.events import Event
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
