"""Conservative parallel discrete-event simulation (PDES) kernel.

It runs one topology: the federation of :mod:`repro.testbed.site`, one
:class:`~repro.sim.parallel.partition.Partition` (with its own
:class:`~repro.sim.Environment`) per site plus one for the backbone,
cut at every site's trunk and shared-state channel
(:mod:`repro.sim.parallel.testbed`).  Nothing outside this package
imports it.

The classic null-message (Chandy–Misra–Bryant) argument applies: a
packet crossing a backbone link of latency *L* sent at time *t*
arrives no earlier than ``t + L``, so *L* is the channel's
**lookahead** and every partition may safely process local events up
to the minimum lower-bound timestamp (LBTS) advertised across its
inbound channels.  Partitions advance in barrier-synchronized rounds;
each round every out-channel with traffic carries a batch of
timestamped packet messages (a burst crossing the backbone is ONE
message), and every out-channel — busy or idle — piggybacks an **EOT
promise** (its earliest possible next output time) on the round
update, so an idle partition can never deadlock its neighbours.  The
coordinator additionally reduces all partitions' next-event times
into a global *floor* granted with the next round, so idle stretches
fast-forward in one round instead of creeping lookahead-by-lookahead
(see ``coordinator.py``).

Determinism: the serial executor and the parallel (forked-worker)
coordinator run the *identical* round algorithm over the identical
partitions — same horizons, same message routing, same sorted
injection order — so same-seed runs produce byte-identical event
sequences, and with them byte-identical latency traces.  This is
gated in ``tests/test_parallel_sim.py`` and
``tests/test_parallel_testbed.py``.
"""

from repro.sim.parallel.coordinator import ParallelCoordinator, SerialExecutor
from repro.sim.parallel.partition import SyncError
from repro.sim.parallel.testbed import build_replay, build_replay_specs

__all__ = [
    "ParallelCoordinator",
    "SerialExecutor",
    "SyncError",
    "build_replay",
    "build_replay_specs",
]
