"""The adaptive conservative round engine: serial reference and workers.

Both executors run the *same* barrier-synchronized algorithm over the
same :class:`~repro.sim.parallel.partition.Partition` objects:

.. code-block:: text

    round r:  every partition        inject(inbox, bounds, floor)
                                     advance(min inbound LBTS, capped at T)
                                     drain() -> payload batches
                                              + EOT promise per channel
                                              + next local event time
              coordinator            route batches/bounds -> next inboxes
                                     floor <- min(next locals,
                                                  in-flight arrivals)
              repeat until every partition is drained and idle

Unlike a fixed-step CMB loop (which advances one lookahead per round
and needed 17k rounds for a 35 s testbed horizon at the 2 ms trunk
latency), the engine is **adaptive**: each round the coordinator
reduces every partition's next-local-event time and every in-flight
packet's arrival timestamp into a global *floor* — provably a lower
bound on any event that can still occur anywhere — and grants it with
the next round.  Partitions lift all channel bounds to ``floor +
lookahead``, so an idle stretch of any length costs one round, and the
per-channel EOT promises refine the bound further where one side is
busier than the other.  Determinism is untouched: the floor is a pure
function of the round-barrier state, both executors compute it
identically, and the safe-time rule (process strictly below the
horizon) is exactly the one the fixed-step engine enforced.

The serial executor steps partitions in index order inside one
process; the parallel coordinator forks one worker per partition
(module-level builders, picklable specs, nothing env-bound crossing
the boundary) and overlaps their ``advance`` phases, exchanging the
identical batches over pipes.  Because horizons, floors, routing, and
injection order are all derived from the same deterministic round
state, both executions drive every partition's event heap through the
identical sequence — the latency traces come out byte-identical, which
``tests/test_parallel_sim.py`` gates with md5 fingerprints.

Per-partition counters (events processed, busy wall-clock,
packet/null message counts) are collected into :class:`RunStats` —
including the payload/null round split — so the bench's
``shard_replay`` workload can expose load imbalance and
synchronization overhead.  Pass ``profile_dir`` to either executor to
dump per-worker ``cProfile`` data (``pstats.Stats.add`` merges them).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import math
import multiprocessing
import os
import time
import typing as _t

from repro.sim.parallel.partition import (
    ChannelBatch,
    ChannelBounds,
    Partition,
    PartitionSpec,
)

#: Wire message tags (worker <-> coordinator).
_GRANT = "g"  # coordinator -> worker: (batches, bounds, floor)
_UPDATE = "u"  # worker -> coordinator: batches + bounds + liveness
_FINAL = "f"  # coordinator -> worker: run finished, send results
_RESULT = "d"  # worker -> coordinator: model result + stats
_ERROR = "e"  # worker -> coordinator: traceback


@dataclasses.dataclass
class PartitionStats:
    """One partition's counters for a completed run."""

    partition_id: str
    events: int
    busy_s: float
    messages_sent: int
    nulls_sent: int

    @classmethod
    def from_partition(
        cls, partition: Partition, busy_s: float
    ) -> "PartitionStats":
        """The one stats builder both executors use (the forked worker
        pickles the dataclass back to the coordinator)."""
        return cls(
            partition_id=partition.partition_id,
            events=partition.env.events_processed,
            busy_s=busy_s,
            messages_sent=partition.messages_sent,
            nulls_sent=partition.nulls_sent,
        )


@dataclasses.dataclass
class RunStats:
    """Whole-run counters."""

    rounds: int
    payload_rounds: int
    wall_s: float
    partitions: list[PartitionStats]

    @property
    def total_events(self) -> int:
        return sum(p.events for p in self.partitions)

    @property
    def cross_partition_messages(self) -> int:
        return sum(p.messages_sent for p in self.partitions)

    @property
    def null_messages(self) -> int:
        return sum(p.nulls_sent for p in self.partitions)


@dataclasses.dataclass
class ParallelRun:
    """Results of one partitioned run."""

    #: partition_id -> whatever the partition model's ``result()`` returned.
    results: dict[str, _t.Any]
    stats: RunStats


class _Router:
    """Routes payload batches and EOT bounds to per-partition inboxes."""

    def __init__(self, specs: _t.Sequence[PartitionSpec]) -> None:
        self._dst: dict[str, str] = {}
        for spec in specs:
            for cs in spec.in_channels:
                self._dst[cs.channel_id] = spec.partition_id
        self.inboxes: dict[str, list[ChannelBatch]] = {
            spec.partition_id: [] for spec in specs
        }
        self.bound_inboxes: dict[str, ChannelBounds] = {
            spec.partition_id: {} for spec in specs
        }
        self.packets_routed = 0
        #: Earliest arrival timestamp among packets routed this round
        #: (reset by the round engine) — in-flight packets are future
        #: events the floor reduction must respect.
        self.pending_min = math.inf

    def route(
        self, batches: _t.Iterable[ChannelBatch], bounds: ChannelBounds
    ) -> None:
        for batch in batches:
            self.inboxes[self._dst[batch[0]]].append(batch)
            self.packets_routed += len(batch[2])
            for ts, _seq, _payload in batch[2]:
                if ts < self.pending_min:
                    self.pending_min = ts
        for channel_id, lbts in bounds.items():
            inbox = self.bound_inboxes[self._dst[channel_id]]
            prev = inbox.get(channel_id)
            if prev is None or lbts > prev:
                inbox[channel_id] = lbts

    def take(self, partition_id: str) -> tuple[list[ChannelBatch], ChannelBounds]:
        inbox = self.inboxes[partition_id]
        self.inboxes[partition_id] = []
        bounds = self.bound_inboxes[partition_id]
        self.bound_inboxes[partition_id] = {}
        return inbox, bounds


class _RoundEngine:
    """Deterministic coordinator-side round state shared by both executors.

    Owns the router, the round/payload-round counters, and the
    **floor**: the global minimum over every partition's next local
    event time and every in-flight packet's arrival timestamp, as of
    the last round barrier.  No partition can produce an event below
    the floor, so granting it with the next round lets every channel
    bound jump to ``floor + lookahead`` in one step — the idle
    fast-forward.  The floor is monotone and capped at ``until``.
    """

    def __init__(
        self, specs: _t.Sequence[PartitionSpec], until: float
    ) -> None:
        self.router = _Router(specs)
        self.until = until
        self.floor = 0.0
        self.rounds = 0
        self.payload_rounds = 0
        self._routed_before = 0
        self._next_locals: list[float] = []
        self._all_done = True

    def begin_round(self) -> None:
        self.rounds += 1
        self._routed_before = self.router.packets_routed
        self.router.pending_min = math.inf
        self._next_locals.clear()
        self._all_done = True

    def grant(
        self, partition_id: str
    ) -> tuple[list[ChannelBatch], ChannelBounds, float]:
        batches, bounds = self.router.take(partition_id)
        return batches, bounds, self.floor

    def collect(
        self,
        batches: list[ChannelBatch],
        bounds: ChannelBounds,
        done: bool,
        next_local: float,
    ) -> None:
        self.router.route(batches, bounds)
        self._all_done = self._all_done and done
        self._next_locals.append(next_local)

    def end_round(self) -> bool:
        """Fold the round's reports into the next floor; True = finished."""
        routed = self.router.packets_routed - self._routed_before
        if routed:
            self.payload_rounds += 1
        floor = min(self._next_locals) if self._next_locals else self.until
        if self.router.pending_min < floor:
            floor = self.router.pending_min
        if floor > self.until:
            floor = self.until
        if floor > self.floor:
            self.floor = floor
        return self._all_done and routed == 0


@contextlib.contextmanager
def _calm_collector() -> _t.Iterator[None]:
    """Raise the gen-0 gc threshold for the duration of a round loop.

    ``Environment.run`` does this per call; the round engines call
    ``run_below`` many times per run, so the collector dance is
    hoisted here and paid once per run instead of once per round.
    """
    thresholds = gc.get_threshold()
    gc.set_threshold(1_000_000, *thresholds[1:])
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)


@contextlib.contextmanager
def _maybe_profile(profile_path: str | None) -> _t.Iterator[None]:
    """Dump ``cProfile`` data for the enclosed block if a path is set."""
    if profile_path is None:
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(profile_path)


def _step_partition(
    partition: Partition,
    grant: tuple[list[ChannelBatch], ChannelBounds, float],
    until: float,
) -> tuple[list[ChannelBatch], ChannelBounds, bool, float]:
    """One partition's share of one round (also the worker hot loop)."""
    batches, bounds, floor = grant
    partition.inject(batches, bounds, floor)
    partition.advance(partition.horizon(until))
    out_batches, out_bounds, next_local = partition.drain(until)
    return out_batches, out_bounds, partition.done(until), next_local


class SerialExecutor:
    """The deterministic single-process reference execution.

    Runs every partition in index order within one process, using the
    exact round algorithm of :class:`ParallelCoordinator` — this is
    the "serial run" that parallel latency traces are gated
    byte-identical against.
    """

    def __init__(
        self,
        specs: _t.Sequence[PartitionSpec],
        profile_dir: str | os.PathLike | None = None,
    ) -> None:
        self.specs = sorted(specs, key=lambda s: s.index)
        self.profile_dir = profile_dir

    def run(self, until: float) -> ParallelRun:
        wall_start = time.perf_counter()
        partitions = [Partition(spec) for spec in self.specs]
        engine = _RoundEngine(self.specs, until)
        busy = {p.partition_id: 0.0 for p in partitions}
        profile_path = (
            os.path.join(self.profile_dir, "serial.pstats")
            if self.profile_dir is not None
            else None
        )
        with _maybe_profile(profile_path), _calm_collector():
            self._loop(partitions, engine, busy, until)
        for partition in partitions:
            partition.finalize(until)
        wall_s = time.perf_counter() - wall_start
        stats = RunStats(
            rounds=engine.rounds,
            payload_rounds=engine.payload_rounds,
            wall_s=wall_s,
            partitions=[
                PartitionStats.from_partition(p, busy[p.partition_id])
                for p in partitions
            ],
        )
        return ParallelRun(
            results={p.partition_id: p.model.result() for p in partitions},
            stats=stats,
        )

    @staticmethod
    def _loop(
        partitions: list[Partition],
        engine: _RoundEngine,
        busy: dict[str, float],
        until: float,
    ) -> None:
        while True:
            engine.begin_round()
            # Snapshot every grant BEFORE stepping anything: the
            # parallel coordinator hands all grants out at the round
            # barrier, so a batch produced in round r must never reach
            # a sibling until round r+1 here either — mid-round
            # delivery would change injection rounds and with them the
            # heap tie-break sequence, breaking byte-identity.
            grants = {
                partition.partition_id: engine.grant(partition.partition_id)
                for partition in partitions
            }
            for partition in partitions:
                t0 = time.perf_counter()
                batches, bounds, done, next_local = _step_partition(
                    partition, grants[partition.partition_id], until
                )
                busy[partition.partition_id] += time.perf_counter() - t0
                engine.collect(batches, bounds, done, next_local)
            if engine.end_round():
                return


def _worker_main(
    conn: _t.Any,
    spec: PartitionSpec,
    until: float,
    profile_path: str | None = None,
) -> None:
    """Worker process: build the partition locally, loop rounds."""
    try:
        with _maybe_profile(profile_path):
            partition = Partition(spec)
            busy = 0.0
            with _calm_collector():
                while True:
                    message = conn.recv()
                    if message[0] == _FINAL:
                        break
                    t0 = time.perf_counter()
                    batches, bounds, done, next_local = _step_partition(
                        partition, message[1], until
                    )
                    busy += time.perf_counter() - t0
                    conn.send((_UPDATE, batches, bounds, done, next_local))
            partition.finalize(until)
        conn.send(
            (
                _RESULT,
                partition.model.result(),
                PartitionStats.from_partition(partition, busy),
            )
        )
    except Exception:  # pragma: no cover - surfaced by the coordinator
        import traceback

        try:
            conn.send((_ERROR, traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class ParallelCoordinator:
    """Forked per-partition workers, barrier-synchronized per round.

    The fork start method is required (and asserted): workers inherit
    the imported modules and the spec constants, so the only pickling
    on the hot path is the per-round batch exchange — and a burst of
    packets crossing a channel in one round is one message.
    """

    def __init__(
        self,
        specs: _t.Sequence[PartitionSpec],
        profile_dir: str | os.PathLike | None = None,
    ) -> None:
        self.specs = sorted(specs, key=lambda s: s.index)
        self.profile_dir = profile_dir

    def run(self, until: float) -> ParallelRun:
        ctx = multiprocessing.get_context("fork")
        wall_start = time.perf_counter()
        engine = _RoundEngine(self.specs, until)
        pipes: dict[str, _t.Any] = {}
        procs: list[_t.Any] = []
        try:
            for spec in self.specs:
                parent_conn, child_conn = ctx.Pipe()
                profile_path = (
                    os.path.join(
                        self.profile_dir, f"{spec.partition_id}.pstats"
                    )
                    if self.profile_dir is not None
                    else None
                )
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, spec, until, profile_path),
                    name=f"sim-partition-{spec.partition_id}",
                )
                proc.start()
                child_conn.close()
                pipes[spec.partition_id] = parent_conn
                procs.append(proc)

            while True:
                engine.begin_round()
                for spec in self.specs:
                    pipes[spec.partition_id].send(
                        (_GRANT, engine.grant(spec.partition_id))
                    )
                for spec in self.specs:
                    message = self._recv(pipes[spec.partition_id], spec)
                    engine.collect(
                        message[1], message[2], message[3], message[4]
                    )
                if engine.end_round():
                    break

            results: dict[str, _t.Any] = {}
            stats: list[PartitionStats] = []
            for spec in self.specs:
                pipes[spec.partition_id].send((_FINAL,))
            for spec in self.specs:
                message = self._recv(pipes[spec.partition_id], spec)
                results[spec.partition_id] = message[1]
                stats.append(message[2])
            for proc in procs:
                proc.join(timeout=30)
        finally:
            for proc in procs:
                if proc.is_alive():  # pragma: no cover - crash cleanup
                    proc.terminate()
                    proc.join(timeout=5)
            for conn in pipes.values():
                conn.close()
        wall_s = time.perf_counter() - wall_start
        return ParallelRun(
            results=results,
            stats=RunStats(
                rounds=engine.rounds,
                payload_rounds=engine.payload_rounds,
                wall_s=wall_s,
                partitions=stats,
            ),
        )

    @staticmethod
    def _recv(conn: _t.Any, spec: PartitionSpec) -> tuple:
        try:
            message = conn.recv()
        except EOFError:
            raise RuntimeError(
                f"partition worker {spec.partition_id!r} died without "
                "reporting an error (see stderr for its traceback)"
            ) from None
        if message[0] == _ERROR:
            raise RuntimeError(
                f"partition worker {spec.partition_id!r} failed:\n{message[1]}"
            )
        return message
