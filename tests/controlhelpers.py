"""The control plane's slow twin, and a count of what the fast one saved.

``Dispatcher.ensure_deployed`` answers on the spot when the instance
already runs and nothing else is due at that instant, and
``EdgeController.on_packet_in`` starts its handler inside the
packet-in's delivery.  :func:`deployments_on_the_heap` puts both back on
the heap — every ``ensure_deployed`` that is not an in-flight join is a
``_deploy`` process (an urgent start and a completion), every handler
starts through its own ``_Initialize`` — which is the control plane as
it was before either shortcut.  ``tests/test_properties.py`` holds the
two to one trace.
"""

from __future__ import annotations

import contextlib
import typing as _t
from unittest import mock

from repro.core.controller import EdgeController
from repro.core.dispatcher import Dispatcher


def _ensure_deployed_as_a_process(self, service, cluster):
    key = (service.name, cluster.name)
    inflight = self._inflight.get(key)
    if inflight is not None:
        outcome = yield inflight
        return outcome
    process = self.env.process(
        self._deploy(service, cluster), name=f"deploy:{key}"
    )
    self._inflight[key] = process
    try:
        outcome = yield process
    finally:
        self._inflight.pop(key, None)
    return outcome


def _on_packet_in_cold(self, datapath, message) -> None:
    self.stats["packet_in"] += 1
    self.env.spawn(
        self._handle_packet_in(datapath, message),
        name=f"pktin:{message.buffer_id}",
    )


@contextlib.contextmanager
def deployments_on_the_heap():
    """Every deployment question a process, every handler started cold."""
    with mock.patch.object(
        Dispatcher, "ensure_deployed", _ensure_deployed_as_a_process
    ), mock.patch.object(EdgeController, "on_packet_in", _on_packet_in_cold):
        yield


class _Watched:
    """A generator seen from outside: did it end without ever yielding?"""

    def __init__(self, inner, straight_through: _t.Callable[[], None]) -> None:
        self.inner = inner
        self.straight_through = straight_through
        self.yielded = False

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        try:
            event = self.inner.send(value)
        except StopIteration:
            if not self.yielded:
                self.straight_through()
            raise
        self.yielded = True
        return event

    def throw(self, *exc):
        return self.inner.throw(*exc)

    def close(self) -> None:
        self.inner.close()


@contextlib.contextmanager
def counted_shortcuts() -> _t.Iterator[set[tuple]]:
    """Every ``(instant, service, cluster)`` at which
    ``Dispatcher.ensure_deployed`` returned without yielding — neither
    joined a deployment nor started one.  A set: the waiters of one
    failed deployment, re-resolving at one instant to one cluster, would
    have shared one process, and save its two entries once."""
    taken: set[tuple] = set()
    ensure_deployed = Dispatcher.ensure_deployed

    def watched(self, service, cluster):
        return _Watched(
            ensure_deployed(self, service, cluster),
            lambda: taken.add((self.env.now, service.name, cluster.name)),
        )

    with mock.patch.object(Dispatcher, "ensure_deployed", watched):
        yield taken
