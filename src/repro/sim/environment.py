"""The simulation event loop."""

from __future__ import annotations

import gc
import heapq
import typing as _t
from itertools import count

from repro.sim.events import Event, NORMAL, PENDING, Timeout
from repro.sim.expiry import Expiry
from repro.sim.process import Process, _Detached


class SimulationError(RuntimeError):
    """Raised when the event loop encounters an unrecoverable state."""


class Deadline(Event):
    """A cancellable guard timeout on the environment's expiry heap
    (:class:`~repro.sim.expiry.Expiry`): creating one pushes nothing
    onto the main event heap.  ``cancel()`` (the normal outcome — the
    guarded operation won the race) counts it stale; a second
    ``cancel()``, or one after the deadline fired, does nothing.  A
    deadline that fires succeeds at its exact scheduled time.
    """

    __slots__ = ("_dvalue", "cancelled")

    def __init__(self, env: "Environment", value: _t.Any = None) -> None:
        super().__init__(env)
        self._dvalue = value
        self.cancelled = False

    def cancel(self) -> None:
        if self.cancelled or self._value is not PENDING:
            return  # counted already, or off the expiry heap
        self.cancelled = True
        self.env._deadlines.discard(1)


def _guard_deadline(entry: tuple) -> float | None:
    """A guard is due at its instant until it is cancelled."""
    return None if entry[2].cancelled else entry[0]


def _fire_guards(guards: list[Deadline]) -> None:
    for guard in guards:
        if guard._value is PENDING:
            guard.succeed(guard._dvalue)


class EmptySchedule(Exception):
    """Internal: the event heap ran dry."""


class _StopRun(Exception):
    """Internal: carries the value of the ``until`` event out of run()."""


class Environment:
    """A deterministic discrete-event environment.

    Time is a float in seconds, starting at ``initial_time``.  The event
    heap orders by ``(time, priority, sched_at, parent_sched_at, seq)``.
    ``seq`` is a strictly increasing counter and every entry pushed
    through this class or the event primitives stores the current time
    in both scheduling instants, so simultaneous events run in the
    order they were scheduled — the source of the kernel's
    reproducibility.  The two instants exist for the one transmitter
    that schedules ahead of itself: a link arrival
    (:class:`repro.net.link.LinkEndpoint`) is pushed when the packet is
    handed over, but ties as if scheduled when its serialization ended
    (``sched_at``) by an entry scheduled when its serialization began
    (``parent_sched_at``) — the order a chain of two events would have
    given it, without the first event.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        # Heap entries are (time, priority, sched_at, parent_sched_at,
        # seq, event) 6-tuples for real events, or (..., seq, fn, args)
        # 7-tuples for the slim scheduled callbacks of call_at /
        # call_later.  Entries drawing a fresh seq never compare equal
        # ahead of the heterogeneous tail; a link's arrivals share the
        # seq of their busy period but differ in sched_at.  So the two
        # shapes can share one heap; the loop discriminates by length.
        self._queue: list[tuple] = []
        self._seq = count()
        #: The open collection point of a quiet watch delivery, else
        #: ``None``: while it is a list, ``Store.put`` records the getter
        #: it wakes and its item here instead of pushing the wake-up
        #: (``APIServer._deliver`` opens it and resumes them after).
        self._woken: list[tuple[Event, _t.Any]] | None = None
        #: Total heap entries processed since construction — the
        #: denominator of the events/sec throughput metric.
        self.events_processed = 0
        #: The guard timeouts of :meth:`deadline`, off the main heap.
        self._deadlines = Expiry(self, _guard_deadline, _fire_guards)

    # -- inspection ------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        return len(self._queue)

    def quiet_now(self) -> bool:
        """Whether nothing else is due at this instant: the heap is
        empty or its top is later than now.

        The one test behind every way of doing *now*, in place, what an
        entry pushed now would do at its pop (:meth:`Event.succeed_tail`,
        ``Dispatcher.ensure_deployed``, ``APIServer._deliver`` and the
        work-queue wake-ups it collects, a ``StoreGet`` on a non-empty
        store): such an entry pops after everything already due at this
        instant, so acting in its stead is only the same thing when there
        is nothing of the kind.  Strictly later — an entry due exactly
        now pops first.
        """
        queue = self._queue
        return not queue or queue[0][0] > self._now

    def urgent_now(self) -> bool:
        """Whether an entry ahead of ``NORMAL`` is due at this instant:
        another process's urgent start, or a ``run(until=…)`` stop.

        Such an entry pops before a process started now through its
        ``_Initialize`` entry would, so a hot start — the new process's
        first segment run in its creator's step — keeps the cold start's
        order only when there is none (``Deployment.deploy``).
        """
        queue = self._queue
        return bool(queue) and queue[0][0] == self._now and queue[0][1] < NORMAL

    # -- factories -------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """Create an event firing after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def delays(self, *delays: float) -> Event:
        """One event for a chain of back-to-back delays: what ``yield
        timeout(d1); yield timeout(d2); …`` waits, at one heap entry
        instead of one per delay.

        It fires at ``t_n = ((t0 + d1) + d2) + …``, summed link by link,
        so every instant is the float the chain gave, with the value
        ``None``.  Its key is the last link's, ``(t_n, NORMAL, t_{n-1},
        t_{n-1}, seq)``, with ``seq`` drawn at the call (the trick of
        :class:`repro.net.link.LinkEndpoint`).

        **Exactness boundary.**  The skipped entries did nothing but
        push the next link, so nothing can tell them gone — not
        :meth:`quiet_now` or :meth:`urgent_now` either: what they would
        have stood in front of pops behind a do-nothing entry.  The key
        differs from the chain's only against an entry pushed exactly at
        the last skipped instant ``t_{n-1}`` and due exactly at ``t_n``:
        the fused entry goes first, where the chain went by which of the
        two popped first at ``t_{n-1}``.  Two fused chains in lockstep
        (the same instants at every link) keep their order.  A caller
        must read and write nothing at a skipped instant: a link that
        does is the end of one chain and the start of the next.
        ``tests/k8shelpers.delays_on_the_heap`` puts every chain back.
        """
        before = at = self._now
        for delay in delays:
            if delay < 0:
                raise ValueError(f"negative delay {delay!r}")
            before, at = at, at + float(delay)
        event = Event(self)
        event._value = None
        heapq.heappush(
            self._queue, (at, NORMAL, before, before, next(self._seq), event)
        )
        return event

    def deadline(self, delay: float, value: _t.Any = None) -> Deadline:
        """A guard timeout: like :meth:`timeout`, but cancellable.

        Use for deadlines that usually do *not* fire (request guards,
        watchdogs): call ``.cancel()`` on the returned event once the
        guarded operation wins the race and the deadline stops costing
        anything.  The deadline is kept on an expiry heap
        (:class:`~repro.sim.expiry.Expiry`), so a guard never occupies
        the main event heap — a replay cancels tens of thousands of 120 s
        request guards, and their depth would tax every push and pop;
        compaction frees them long before they are due (:class:`Deadline`).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        event = Deadline(self, value)
        self._deadlines.push(self._now + delay, event)
        return event

    def process(
        self,
        generator: _t.Generator[Event, _t.Any, _t.Any],
        name: str | None = None,
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def run_process(self, generator: _t.Generator[Event, _t.Any, _t.Any]) -> _t.Any:
        """Start ``generator`` and run until it finishes, returning its
        value.  The start is hot: the creator's next act is to enter
        the kernel loop, :class:`Process`'s documented condition."""
        return self.run(until=Process(self, generator, hot=True))

    def spawn(
        self,
        generator: _t.Generator[Event, _t.Any, _t.Any],
        name: str | None = None,
        hot: bool = False,
    ) -> None:
        """Start ``generator`` as a process nobody will wait on.

        Returns nothing, so no caller can yield the process or register
        on it — which is what lets a successful end cost no heap entry:
        with no callback to run, popping its completion would do
        nothing.  A failure is scheduled like any process's, so an
        unhandled exception stops the run exactly as it does under
        :meth:`process`.  ``hot`` is :class:`Process`'s.
        """
        _Detached(self, generator, name=name, hot=hot)

    # -- scheduling ------------------------------------------------------

    def timeout_at(self, time: float) -> Event:
        """An event firing at absolute simulated ``time`` (yieldable),
        with the value ``None``.

        Distinct from ``timeout(time - now)``: float arithmetic is not
        associative, so re-deriving a delay and adding it back would not
        always land on ``time`` exactly.  Deadline-driven code (switch
        expiry wakeups, readiness waits) uses this to hit the *precise*
        tick times the old fixed-interval loops produced.  Raises
        ``ValueError`` when ``time`` lies in the past.
        """
        if time < self._now:
            raise ValueError(f"time {time!r} lies in the past (now={self._now})")
        event = Event(self)
        event._value = None
        now = self._now
        heapq.heappush(
            self._queue, (time, NORMAL, now, now, next(self._seq), event)
        )
        return event

    def call_at(
        self,
        time: float,
        fn: _t.Callable[..., None],
        *args: _t.Any,
    ) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time`` (lightweight).

        Schedules a single slim heap entry — a bare tuple, no Event,
        no Process, not even a wrapper object — so hot paths (switch
        pipelines, link hops, watch deliveries, expiry wakeups) can
        schedule fire-and-forget work at the cost of one heap push.
        Carrying ``args`` on the entry lets call sites pass a bound
        method plus its operands instead of allocating a closure per
        scheduled call.  ``fn`` must not yield; it runs to completion
        inside the event loop, and an exception escaping it surfaces
        as :class:`SimulationError` (chained to the original).
        Raises ``ValueError`` when ``time`` lies in the past.
        """
        if time < self._now:
            raise ValueError(f"time {time!r} lies in the past (now={self._now})")
        now = self._now
        heapq.heappush(
            self._queue, (time, NORMAL, now, now, next(self._seq), fn, args)
        )

    def call_later(
        self,
        delay: float,
        fn: _t.Callable[..., None],
        *args: _t.Any,
    ) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds (lightweight).

        The relative-delay companion of :meth:`call_at`; same slim
        heap entry, same error semantics.  Raises ``ValueError`` on a
        negative delay.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        now = self._now
        heapq.heappush(
            self._queue,
            (now + delay, NORMAL, now, now, next(self._seq), fn, args),
        )

    # -- execution -------------------------------------------------------

    def run_below(self, limit: float) -> None:
        """Process every event with time strictly below ``limit``.

        The parallel kernel's inner loop: a partition advancing to its
        conservative horizon calls this once per synchronization round,
        so unlike :meth:`run` it allocates no stop event, registers no
        callback, and leaves the gc thresholds alone (the round driver
        brackets the *whole* run instead, amortizing the collector
        dance across thousands of rounds).  Events stamped exactly at
        ``limit`` stay on the heap — the same boundary rule as
        ``run(until=limit)``, whose urgent stop event also fires ahead
        of same-time work — which is what keeps a cross-partition
        packet arriving exactly at the lookahead horizon ordered
        identically in serial and parallel executions.  The clock is
        left at the last processed event; it does NOT jump to
        ``limit``.
        """
        queue = self._queue
        pop = heapq.heappop
        events = 0
        try:
            while queue and queue[0][0] < limit:
                item = pop(queue)
                self._now = item[0]
                events += 1

                if len(item) == 7:
                    try:
                        item[5](*item[6])
                    except SimulationError:
                        raise
                    except Exception as exc:
                        raise SimulationError(
                            f"scheduled callback {item[5]!r} raised {exc!r}"
                        ) from exc
                    continue

                event: Event = item[5]
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:  # type: ignore[union-attr]
                    callback(event)

                if not event._ok and not event._defused:
                    raise event._value
        finally:
            # The delta, not the total: a run nested inside one of our
            # events has added its own count meanwhile.
            self.events_processed += events

    def run(self, until: float | Event | None = None) -> _t.Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the heap is empty; a float — run until
            that simulated time; an :class:`Event` — run until it fires
            and return its value.
        """
        stop: Event | None = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    return stop.value  # already processed
                stop.callbacks.append(self._stop_callback)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until={at} lies in the past (now={self._now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                # Urgent so the deadline fires before same-time events.
                now = self._now
                heapq.heappush(
                    self._queue, (at, -1, now, now, next(self._seq), stop)
                )
                stop.callbacks.append(self._stop_callback)

        # The loop below binds its hot locals once: at millions of
        # events per run, per-event method calls, attribute reloads and
        # counter writes are measurable.  ``tests/kernel_oracle.step``
        # is the one-entry reference it is held to; a semantic change
        # here must be mirrored there.
        #
        # Cyclic gc is the other per-event tax: the default gen-0
        # threshold (700) makes the collector scan the young generation
        # tens of thousands of times per run, yet nearly all per-event
        # garbage (heap tuples, events, packets, segments) dies by
        # refcount.  Raising the threshold for the
        # duration of the loop removes ~15% of wall-clock; the old
        # thresholds are restored on every exit path so code outside
        # run() observes stock collector behaviour.
        queue = self._queue
        pop = heapq.heappop
        events = 0
        gc_thresholds = gc.get_threshold()
        gc.set_threshold(1_000_000, *gc_thresholds[1:])
        try:
            while True:
                try:
                    item = pop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                self._now = item[0]
                events += 1

                if len(item) == 7:
                    try:
                        item[5](*item[6])
                    except (_StopRun, SimulationError):
                        raise
                    except Exception as exc:
                        raise SimulationError(
                            f"scheduled callback {item[5]!r} raised {exc!r}"
                        ) from exc
                    continue

                event: Event = item[5]
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:  # type: ignore[union-attr]
                    callback(event)

                if not event._ok and not event._defused:
                    raise event._value
        except _StopRun as marker:
            return marker.args[0]
        except EmptySchedule:
            if stop is not None and not stop.processed:
                if isinstance(until, Event):
                    raise SimulationError(
                        "run(until=event): schedule ran dry before the event fired"
                    ) from None
                # Time-limited run that ran out of events early: simply
                # advance the clock to the requested time.
                self._now = float(_t.cast(float, until))
            return None
        finally:
            # One write on exit instead of one per event; covers every
            # path out of the loop, including escaping exceptions.  It
            # adds the delta: a run() nested inside a process (settle in
            # move_client) has added its own count meanwhile.
            self.events_processed += events
            gc.set_threshold(*gc_thresholds)

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise _StopRun(event._value)
        raise _t.cast(BaseException, event._value)
