"""``Environment.step``, kept as the reference for the two unrolled loops.

:func:`step` processes exactly one heap entry the plain way: one pop,
one clock write, one count, the callbacks.  ``Environment.run`` and
``run_below`` are this unrolled with the hot locals bound once, and
``run``'s comment asks every semantic change there to be mirrored
here.  It lived on ``Environment`` until no caller under ``src/``
needed it; tests single-step with it to look at the world between two
entries of one instant.

It pops through ``repro.sim.environment.heapq``, the name tests patch
to count pops.
"""

from __future__ import annotations

from repro.sim import environment
from repro.sim.environment import EmptySchedule, SimulationError, _StopRun


def step(env) -> None:
    """Process the next entry on ``env``'s heap."""
    try:
        item = environment.heapq.heappop(env._queue)
    except IndexError:
        raise EmptySchedule() from None
    env._now = item[0]
    env.events_processed += 1

    if len(item) == 7:
        # Slim path: no callback list, no value, no defuse protocol.
        try:
            item[5](*item[6])
        except (_StopRun, SimulationError):
            raise
        except Exception as exc:
            raise SimulationError(
                f"scheduled callback {item[5]!r} raised {exc!r}"
            ) from exc
        return
    event = item[5]

    # Mark processed *before* running callbacks so conditions and
    # late registrations observe a consistent state.
    callbacks, event.callbacks = event.callbacks, None
    for callback in callbacks:
        callback(event)

    if not event._ok and not event._defused:
        # A failure nobody waited for: surface it loudly instead of
        # silently dropping the exception.
        raise event._value
