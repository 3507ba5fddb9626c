"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each value the generator
``yield``\\ s must be an :class:`~repro.sim.events.Event`; the process
suspends until that event fires and is then resumed with the event's
value (or the event's exception is thrown into it).

Processes are events themselves: they trigger when the generator
returns (value = the generator's return value) or raises.
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.sim.events import Event, URGENT

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class _Initialize(Event):
    """Immediate event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        _t.cast(list, self.callbacks).append(process._resume)
        now = env._now
        heapq.heappush(env._queue, (now, URGENT, now, now, next(env._seq), self))


class _HotStart:
    """Pre-succeeded pseudo-event fed to ``_resume`` for hot starts.

    Carries just the two attributes ``_resume`` reads on the success
    path; one shared instance replaces the per-process ``_Initialize``
    event (and its heap entry) when a caller asks for a synchronous
    start.
    """

    __slots__ = ()
    _ok = True
    _value = None


_HOT_START = _HotStart()


class Process(Event):
    """A running simulation process.

    Parameters
    ----------
    env:
        The owning environment.
    generator:
        A generator yielding events.
    name:
        Optional label used in ``repr`` and error messages.
    hot:
        Start the generator synchronously inside the constructor
        instead of via an urgent start event.  High-volume spawners
        (the trace driver starts one process per request) use this to
        skip the per-process start event; the first resumption then
        runs at creation time rather than at the next scheduler step.
        It is the cold start exactly when the creator would otherwise
        yield to the scheduler immediately.  Otherwise its boundary is
        the one the deployment path states at each of its hot starts
        (a pipeline, a container's boot, a pod worker, a restart
        monitor): the first segment's push happens in the creator's
        step, not at the start entry's pop, so the order differs only
        for an entry due exactly at that push's instant and pushed in
        between — provided that segment only pushes or registers, and
        nothing ahead of ``NORMAL`` is due now
        (``Environment.urgent_now``), which would have run first.  A
        segment that acts is exact where its start entry would have
        been the next to pop (the restart monitor, at the kubelet's
        spawn).
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: _t.Generator[Event, _t.Any, _t.Any],
        name: str | None = None,
        hot: bool = False,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        if hot:
            self._resume(_t.cast(Event, _HOT_START))
        else:
            _Initialize(env, self)

    # -- internal --------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The caller takes responsibility for the failure.
                    event.defuse()
                    next_event = self._generator.throw(
                        _t.cast(BaseException, event._value)
                    )
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                self.fail(
                    RuntimeError(
                        f"process {self.name!r} yielded a non-event: {next_event!r}"
                    )
                )
                return

            if next_event.callbacks is not None:
                # Event still outstanding: register and suspend.
                next_event.callbacks.append(self._resume)
                return

            # The event has already been processed: loop and feed its
            # outcome straight back into the generator.
            event = next_event

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} at {id(self):#x}>"


class _Detached(Process):
    """The process behind :meth:`Environment.spawn`.

    Nothing can register on it (``spawn`` returns nothing), so a
    successful end marks it processed on the spot instead of pushing an
    entry that would pop to do nothing.  A failure is still scheduled.
    """

    __slots__ = ()

    def succeed(self, value: _t.Any = None) -> "Event":
        self._value = value
        self.callbacks = None
        return self
