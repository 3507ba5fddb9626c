"""Conservative parallel discrete-event simulation (PDES) kernel.

The simulated network is inherently partitioned — each edge site owns
its gNB, clusters, and clients, coupled only through backbone links —
so the data plane shards the same way the control plane did in the
distributed-controller refactor: one :class:`Partition` (with its own
:class:`~repro.sim.Environment`) per site, synchronized conservatively
over the cut links.

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

from repro.sim.parallel.coordinator import (
    ParallelCoordinator,
    ParallelRun,
    PartitionStats,
    RunStats,
    SerialExecutor,
)
from repro.sim.parallel.partition import (
    ChannelSpec,
    Partition,
    PartitionModel,
    PartitionSpec,
    Portal,
    SyncError,
)
from repro.sim.parallel.partitioner import (
    CutLink,
    NodeSpec,
    PartitionError,
    TopologySpec,
    channel_id,
    partition_topology,
)
from repro.sim.parallel.testbed import (
    ServiceSpec,
    TestbedReplay,
    build_replay,
    build_replay_specs,
    replay_topology,
    run_replay,
)

__all__ = [
    "ChannelSpec",
    "CutLink",
    "NodeSpec",
    "ParallelCoordinator",
    "ParallelRun",
    "Partition",
    "PartitionError",
    "PartitionModel",
    "PartitionSpec",
    "PartitionStats",
    "Portal",
    "RunStats",
    "SerialExecutor",
    "ServiceSpec",
    "SyncError",
    "TestbedReplay",
    "TopologySpec",
    "build_replay",
    "build_replay_specs",
    "channel_id",
    "partition_topology",
    "replay_topology",
    "run_replay",
]
