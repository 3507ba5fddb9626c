"""The control plane's slow twin, and a count of what the fast one saved.

``Deployment.deploy`` answers on the spot when the instance already
runs and nothing else is due at that instant; the control channel lands
a packet-in when the controller's processing time ends, on one heap
entry; and ``EdgeController.on_packet_in`` starts its handler inside
that entry.  :func:`deployments_on_the_heap` puts all three back on the
heap: every *deploy* that is not an in-flight join is a pipeline process
(an urgent start and a completion); every packet-in lands in its batch,
``latency_s`` after the send; and every handler starts there through
its own ``_Initialize`` and waits out the processing time on a timer.
That is the control plane as it was before any of the three shortcuts.
``tests/test_properties.py`` holds the two to one trace.
"""

from __future__ import annotations

import contextlib
import typing as _t
from unittest import mock

from repro.core.controller import EdgeController
from repro.core.dispatcher import Deployment
from repro.net.openflow.switch import ControlChannel


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


def _send_in_the_batch(self, message) -> None:
    """``ControlChannel.send_to_controller`` with every message, a
    packet-in too, in the batch that lands ``latency_s`` after the send."""
    now = self.env._now
    if self._up_at == now:
        self._up.append(message)
    else:
        self._up, self._up_at = [message], now
        self.env.call_later(self.latency_s, self._deliver_up, self._up)


def _processed_then_handled(self, datapath, message):
    """The handler behind a timer of the controller's processing time."""
    yield self.env.timeout(self.packet_in_processing_s)
    yield from self._handle_packet_in(datapath, message)


def _on_packet_in_cold(self, datapath, message) -> None:
    self.stats["packet_in"] += 1
    self.env.spawn(
        _processed_then_handled(self, datapath, message),
        name=f"pktin:{message.buffer_id}",
    )


@contextlib.contextmanager
def deployments_on_the_heap():
    """Every deployment question a process, every packet-in landed in
    its batch, every handler started cold and behind a timer."""
    with mock.patch.object(
        Deployment, "deploy", _deploy_as_a_process
    ), mock.patch.object(
        ControlChannel, "send_to_controller", _send_in_the_batch
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
