"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each value the generator
``yield``\\ s must be an :class:`~repro.sim.events.Event`; the process
suspends until that event fires and is then resumed with the event's
value (or the event's exception is thrown into it).

Processes are events themselves: they trigger when the generator
returns (value = the generator's return value) or raises.
"""

from __future__ import annotations

import typing as _t

from repro.sim.events import Event, URGENT

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupting cause is available as :attr:`cause`.
    """

    @property
    def cause(self) -> _t.Any:
        return self.args[0] if self.args else None


class _Initialize(Event):
    """Immediate event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        _t.cast(list, self.callbacks).append(process._resume)
        env.schedule(self, priority=URGENT)


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
        runs at creation time rather than at the next scheduler step,
        so it is only equivalent when the creator would otherwise
        yield to the scheduler immediately.
    """

    __slots__ = ("_generator", "_target", "name")

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
        #: The event this process currently waits for (``None`` when
        #: running or finished).
        self._target: Event | None = None
        if hot:
            prev = env._active_process
            self._resume(_t.cast(Event, _HOT_START))
            env._active_process = prev
        else:
            _Initialize(env, self)

    @property
    def target(self) -> Event | None:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` until the wrapped generator has finished."""
        return not self.triggered

    def interrupt(self, cause: _t.Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process is rescheduled immediately (urgent priority); the
        event it was waiting for remains valid and may be re-yielded.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        _t.cast(list, interrupt_event.callbacks).append(self._resume)
        self.env.schedule(interrupt_event, priority=URGENT)

        # Detach from the event we were waiting on so its eventual
        # occurrence does not resume us twice.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
            self._target = None

    # -- internal --------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_process = self

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
                env._active_process = None
                self._target = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._target = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                proto = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._target = None
                self.fail(proto)
                return

            if next_event.callbacks is not None:
                # Event still outstanding: register and suspend.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                env._active_process = None
                return

            # The event has already been processed: loop and feed its
            # outcome straight back into the generator.
            event = next_event

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} at {id(self):#x}>"


class _Detached(Process):
    """The process behind :meth:`Environment.spawn`.

    Nobody holds it, so when it ends successfully there is normally no
    callback to run and it is marked processed on the spot instead of
    through a heap entry that would pop to do nothing.  (A callback can
    still appear — the generator may hand out ``env.active_process`` —
    and then the completion is scheduled as usual.)
    """

    __slots__ = ()

    def succeed(self, value: _t.Any = None) -> "Event":
        if self.callbacks:
            return super().succeed(value)
        self._value = value
        self.callbacks = None
        return self
