"""The control plane's slow twin, and a count of what the fast one saved.

``Deployment.deploy`` answers on the spot when the instance already
runs and nothing else is due at that instant, and
``EdgeController.on_packet_in`` starts its handler inside the
packet-in's delivery.  :func:`deployments_on_the_heap` puts both back on
the heap — every *deploy* that is not an in-flight join is a pipeline
process (an urgent start and a completion), every handler starts
through its own ``_Initialize`` — which is the control plane as it was
before either shortcut.  ``tests/test_properties.py`` holds the two to
one trace.
"""

from __future__ import annotations

import contextlib
import typing as _t
from unittest import mock

from repro.core.controller import EdgeController
from repro.core.dispatcher import Deployment


def _deploy_as_a_process(self):
    """``Deployment.deploy`` without its shortcut: join the pipeline in
    flight, or run one."""
    if self.process is not None:
        outcome = yield self.process
        return outcome
    self.process = self.dispatcher.env.process(
        self._pipeline(), name=f"deploy:{self.key}"
    )
    self.dispatcher.deployments[self.key] = self
    try:
        outcome = yield self.process
    finally:
        self.process = None
        self._forget_if_idle()
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
        Deployment, "deploy", _deploy_as_a_process
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
    ``Deployment.deploy`` returned without yielding — neither joined a
    deployment nor started one.  A set: the waiters of one failed
    deployment, re-resolving at one instant to one cluster, would have
    shared one process, and save its two entries once."""
    taken: set[tuple] = set()
    deploy = Deployment.deploy

    def watched(self):
        return _Watched(
            deploy(self),
            lambda: taken.add((self.dispatcher.env.now, *self.key)),
        )

    with mock.patch.object(Deployment, "deploy", watched):
        yield taken
