"""Event primitives for the simulation kernel.

An :class:`Event` moves through three states:

``pending``
    Created but not yet triggered; it sits in no queue.
``triggered``
    A value (or an error) has been attached and the event has been
    pushed onto the environment's heap.
``processed``
    The event loop has popped it and run all its callbacks.

An event may also go from pending straight to processed, never
scheduled: :meth:`Event.succeed_tail` runs the callbacks on the spot
when the entry ``succeed`` would push is provably the next to pop.

Callbacks are plain callables taking the event itself.  Processes use
them to resume; condition events use them to count completions.
"""

from __future__ import annotations

import heapq
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class _Pending:
    """Sentinel for "no value attached yet"."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()

#: Scheduling priorities. Lower values run first at equal times.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence on the simulation timeline.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked (in registration order) when the event is
        #: processed.  ``None`` once processed.
        self.callbacks: list[_t.Callable[[Event], None]] | None = []
        self._value: _t.Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether a value has been attached (event is or was scheduled)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the callbacks have already run."""
        return self.callbacks is None

    @property
    def value(self) -> _t.Any:
        """The attached value or exception; raises if still pending."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled.

        An event that fails and is never yielded by any process would
        silently swallow its exception; the environment re-raises such
        un-defused failures at the end of their step.
        """
        self._defused = True

    # -- triggering -----------------------------------------------------

    def succeed(self, value: _t.Any = None) -> "Event":
        """Attach a success value and schedule the event now."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Pushed here, as by every primitive: there is no generic schedule.
        env = self.env
        now = env._now
        heapq.heappush(env._queue, (now, NORMAL, now, now, next(env._seq), self))
        return self

    def succeed_tail(self, value: _t.Any = None) -> "Event":
        """:meth:`succeed` for a caller in tail position: resume the
        waiters on the spot when nothing else is due at this instant.

        If something else is due now (``Environment.quiet_now`` says no)
        this *is* ``succeed(value)``.  Otherwise the value is set, the
        event is marked processed and its callbacks run here in
        registration order — no heap entry, no sequence number drawn (the
        draws that remain keep their relative order).

        **Contract.**  Exact iff the call is its caller's last act and
        every frame between the caller and the kernel loop returns
        without acting: the entry ``succeed`` would have pushed is then
        the sole entry at this instant and would pop next.  Anything
        else due now would see the waiter run early — hence the guard,
        and its strictness: an entry due now pops before one pushed now.

        The callers are the two tails of ``Host.receive`` (handshake
        reply, payload to a blocked reader), reached from
        ``LinkEndpoint._deliver``, itself the whole of a heap entry.  It
        is **not** for ``ControlChannel._deliver_up`` / ``_deliver_down``
        (a batch delivery goes on to dispatch the rest of its batch),
        ``Store.put`` (its caller goes on), ``Host.crash`` (loops over
        connections), ``Host.open_port`` or a process that goes on to
        act; ``fail`` (RST, timeouts) stays on the heap.
        ``tests/test_properties.py`` holds it to ``succeed`` and names
        the mutations it fails under: without the guard (or with one
        that lets an entry due exactly now through — nothing is due
        before now, so that is the same) every bench digest stays
        equal, six workloads at seed 42 and five at seed 7 — the md5s
        cannot tell; used for the barrier reply under ``_deliver_up`` it
        is caught by the property (a switch, a controller stub) and by
        no digest (no bench workload sends a barrier).  A ``Store.put``
        made inside a quiet watch delivery is not resumed here at the
        put either: the delivery collects it and resumes it after its
        last handler, with :meth:`_succeed_here` (``APIServer._deliver``).
        """
        if not self.env.quiet_now():
            return self.succeed(value)
        return self._succeed_here(value)

    def _succeed_here(self, value: _t.Any) -> "Event":
        """The in-place body: set ``value``, mark the event processed and
        run its callbacks here, in registration order — what the kernel
        loop does at the entry's pop.  Only for a caller that has shown
        the entry :meth:`succeed` would push to be the next to pop
        (:meth:`succeed_tail`, ``APIServer._deliver``)."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:  # type: ignore[union-attr]
            callback(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Attach an exception and schedule the event now."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        now = env._now
        heapq.heappush(env._queue, (now, NORMAL, now, now, next(env._seq), self))
        return self

    # -- composition ----------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: _t.Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay = float(delay)
        self._ok = True
        self._value = value
        # Pushed here (delay already validated above), as by ``succeed``.
        now = env._now
        heapq.heappush(
            env._queue, (now + delay, NORMAL, now, now, next(env._seq), self)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Condition(Event):
    """An event that triggers when ``evaluate`` says enough children did.

    The condition's value is a dict mapping each *finished* child event
    to its value, preserving the original child order.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        env: "Environment",
        evaluate: _t.Callable[[int, int], bool],
        events: _t.Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = tuple(events)
        self._count = 0
        self._evaluate = evaluate

        if not self._events:
            # Trivially true.
            self.succeed({})
            return

        check = self._check
        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")
            if event.callbacks is None:
                check(event)
            else:
                event.callbacks.append(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                # A sibling failed after the condition already fired;
                # the condition can no longer surface it.
                event.defuse()
            return
        if not event._ok:
            event.defuse()
            self.fail(_t.cast(BaseException, event._value))
            return
        self._count += 1
        if self._evaluate(len(self._events), self._count):
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, _t.Any]:
        return {
            e: e._value for e in self._events if e.callbacks is None and e._ok
        }


# Shared evaluators: one function object for the process lifetime
# instead of a fresh closure per condition (conditions are created per
# timeout-guarded wait, one of the hottest allocation sites).
def _all_done(total: int, done: int) -> bool:
    return done == total


def _any_done(total: int, done: int) -> bool:
    return done >= 1


class AllOf(Condition):
    """Triggers once *all* child events have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: _t.Iterable[Event]) -> None:
        super().__init__(env, _all_done, events)


class AnyOf(Condition):
    """Triggers once *any* child event has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: _t.Iterable[Event]) -> None:
        super().__init__(env, _any_done, events)


def guard_timeout(
    deadline: Event,
    event: Event,
    exc_type: type,
    *parts: _t.Any,
) -> None:
    """Arm ``deadline`` to *fail* ``event`` when it fires first.

    The cheapest shape for a timeout-guarded wait: the process yields
    the primary ``event`` directly (no race object, and — on the
    success path — no extra heap entry for a race's own trigger).  If
    the deadline fires while the primary is still pending, the primary
    is failed with
    ``exc_type("".join(map(str, parts)))``, which the waiting process
    receives as a thrown exception at its ``yield``.  The exception
    message is assembled lazily — winners never pay for the
    formatting.  The caller must still ``deadline.cancel()`` after a
    successful wait: only a cancelled deadline leaves the side heap
    before it is due, and with it this closure, ``event`` and its value.
    """

    def _fire(_deadline: Event) -> None:
        if event._value is PENDING:
            event.fail(exc_type("".join(map(str, parts))))

    _t.cast(list, deadline.callbacks).append(_fire)
