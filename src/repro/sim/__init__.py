"""Deterministic discrete-event simulation kernel.

This package provides the event loop that the whole reproduction runs on:
the network substrate, the container runtimes, the Kubernetes control
loops, and the SDN controller are all processes scheduled by a single
:class:`~repro.sim.environment.Environment`.

The design follows the classic generator-based process-interaction style
(as popularised by SimPy) but is implemented from scratch so the
reproduction is fully self-contained:

* :class:`Environment` — the event loop with a deterministic heap
  (ties broken by priority, then by schedule order).
* :class:`Event` — one-shot occurrences that carry a value or an error.
* :class:`Process` — a generator wrapped so each ``yield``\\ ed event
  suspends it until the event fires.
* :class:`Timeout` — an event that fires after a simulated delay.
* :class:`AllOf` / :class:`AnyOf` — condition events for fan-in.
* :class:`Resource`, :class:`Store` — shared-resource primitives.

Each primitive pushes its own heap entry (there is no generic
``schedule``), and a process runs until it yields: nothing interrupts
it, and no register names the running process.

Simulated time is a ``float`` in **seconds**; determinism does not depend
on float tie-breaking because every scheduled event carries a strictly
increasing sequence number.
"""

from repro.sim.events import AllOf, AnyOf, Condition, Event, Timeout
from repro.sim.process import Process
from repro.sim.environment import Environment, SimulationError
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
