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
It also puts a deployment's six hand-offs back
(:func:`handoffs_on_the_heap`), and every chain of delays
(``tests/k8shelpers.delays_on_the_heap``).  That is the control plane as
it was before any of these shortcuts.  ``tests/test_properties.py`` holds the
two to one trace.
"""

from __future__ import annotations

import contextlib
import typing as _t
from unittest import mock

from repro.cluster.base import EdgeCluster
from repro.core.controller import EdgeController
from repro.core.dispatcher import Deployment
from repro.net.openflow.switch import ControlChannel
from repro.observe import tap
from repro.sim import AllOf, Event, Process
from tests.k8shelpers import delays_on_the_heap

#: The processes a deployment starts hot where its first act allows:
#: the pipeline, a container's boot, a pod worker, a restart monitor.
HOT_STARTS = frozenset({"_pipeline", "_boot_application", "_start_pod", "_restart_monitor"})


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


class _Relayed:
    """A generator seen from outside whose yielded events pass through
    ``swap`` on their way to the kernel."""

    def __init__(self, inner, swap: _t.Callable[[Event], Event]) -> None:
        self.inner = inner
        self.swap = swap

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self.swap(self.inner.send(value))

    def throw(self, *exc):
        return self.swap(self.inner.throw(*exc))

    def close(self) -> None:
        self.inner.close()


def _wait_ready_on_a_condition(wait_ready, paid: list[Event]):
    """``EdgeCluster.wait_ready`` as it was: each wait an ``AnyOf`` of
    the port-open event and a main-heap timer at the deadline, both
    kept in ``paid``.  A custom readiness keeps the poll loop."""

    def waiting(self, plan, timeout_s, poll_interval_s=0.02):
        if type(self).is_running is not EdgeCluster.is_running:
            return (yield from wait_ready(self, plan, timeout_s, poll_interval_s))
        deadline = self.env.now + timeout_s
        tick = self.env.now
        while True:
            if self.is_running(plan):
                return True
            if self.env.now >= deadline:
                return False
            port = self._ports[plan.service_name]
            open_ev = self.ingress_host.port_open_event(port)
            timer = self.env.timeout_at(deadline)
            either = open_ev | timer
            paid.extend((timer, either))
            yield either
            if not open_ev.triggered:
                self.ingress_host.abandon_port_waiter(port, open_ev)
            while tick < self.env.now:
                tick += poll_interval_s
            if tick > self.env.now:
                yield self.env.timeout_at(tick)

    return waiting


def _lone_ready_in_an_all_of(generator, paid: list[Event]):
    """``Kubelet._start_pod`` waiting on a lone ``Container.ready``
    through an ``AllOf`` of one, kept in ``paid``."""
    frame = generator.gi_frame.f_locals
    kubelet, pod = frame["self"], frame["pod"]

    def swap(event: Event) -> Event:
        containers = kubelet.pod_containers.get(pod.metadata.uid, ())
        if any(event is container.ready for container in containers):
            event = AllOf(event.env, [event])
            paid.append(event)
        return event

    return _Relayed(generator, swap)


@contextlib.contextmanager
def handoffs_on_the_heap() -> _t.Iterator[_t.Callable[[], int]]:
    """A deployment's six hand-offs as they were: the pipeline, a
    container's boot, a pod worker and a restart monitor start cold,
    through an ``_Initialize`` entry; a pod waits on its lone pending
    ``ready`` through an ``AllOf`` of one; and ``wait_ready`` waits on an
    ``AnyOf`` of the port-open event and a timer at its deadline.

    Yields a function counting the entries the conditions and timers so
    far popped.  The cold starts are counted on the fast side
    (:func:`counted_hot_starts`): a cold start in this twin is due at an
    instant whose heap the fast run does not share, so this side cannot
    tell which of them the fast run would have started hot."""
    paid: list[Event] = []
    start = Process.__init__

    def cold(self, env, generator, name=None, hot=False):
        kind = getattr(generator, "__name__", None)
        if kind in HOT_STARTS:
            hot = False
            if kind == "_start_pod":
                generator = _lone_ready_in_an_all_of(generator, paid)
        start(self, env, generator, name, hot)

    with mock.patch.object(Process, "__init__", cold), mock.patch.object(
        EdgeCluster, "wait_ready", _wait_ready_on_a_condition(EdgeCluster.wait_ready, paid)
    ):
        yield lambda: sum(event.processed for event in paid)


@contextlib.contextmanager
def counted_hot_starts() -> _t.Iterator[list[str]]:
    """The name of every process of :data:`HOT_STARTS` started hot, in
    start order: each is an ``_Initialize`` entry the fast run saved."""
    started: list[str] = []

    def counted(process, env, generator, name=None, hot=False) -> None:
        kind = getattr(generator, "__name__", None)
        if hot and kind in HOT_STARTS:
            started.append(kind)

    untap = tap(Process, "__init__", counted)
    try:
        yield started
    finally:
        untap()


@contextlib.contextmanager
def deployments_on_the_heap() -> _t.Iterator[_t.Callable[[], int]]:
    """Every deployment question a process, every packet-in landed in
    its batch, every handler started cold and behind a timer, and every
    hand-off of :func:`handoffs_on_the_heap` and every link of a chain of
    delays an entry (whose count it yields)."""
    with handoffs_on_the_heap() as paid, delays_on_the_heap() as chained, mock.patch.object(
        Deployment, "deploy", _deploy_as_a_process
    ), mock.patch.object(
        ControlChannel, "send_to_controller", _send_in_the_batch
    ), mock.patch.object(EdgeController, "on_packet_in", _on_packet_in_cold):
        yield lambda: paid() + chained()


class _Watched(_Relayed):
    """A generator seen from outside: did it end without ever yielding?"""

    def __init__(self, inner, straight_through: _t.Callable[[], None]) -> None:
        super().__init__(inner, self._seen)
        self.straight_through = straight_through
        self.yielded = False

    def _seen(self, event: Event) -> Event:
        self.yielded = True
        return event

    def send(self, value):
        try:
            return super().send(value)
        except StopIteration:
            if not self.yielded:
                self.straight_through()
            raise


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
