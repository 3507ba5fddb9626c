"""Tests for the sharded data-plane kernel (``repro.sim.parallel``).

The load-bearing gate is byte-identity: the forked parallel execution
must produce exactly the same latency fingerprints as the serial
reference, for the same seed.  The edge-case tests pin the conservative
protocol's corners — idle partitions kept alive by null messages,
horizon-exact arrivals ordered like serial, promises never undercut.
"""

from __future__ import annotations

import pytest

from repro.sim import Environment
from repro.sim.parallel import (
    ParallelCoordinator,
    SerialExecutor,
    SyncError,
    build_replay,
    build_replay_specs,
)
from repro.sim.parallel.partition import ChannelSpec, Partition, PartitionSpec
from repro.sim.parallel.testbed import combined_fingerprint, totals
from repro.testbed.site import FederationConfig

LOOKAHEAD = 1.0


# -- minimal partition models (module level: workers must see them) ----------


class _SenderModel:
    """Sends ``n_messages`` to its single out-channel, one per second."""

    def __init__(self, n_messages: int = 0, peer: str = ""):
        self.n_messages = n_messages
        self.peer = peer
        self.received: list = []

    def setup(self, partition: Partition) -> None:
        self.partition = partition
        self.env = partition.env
        for channel in partition.portals:
            self.out = partition.portals[channel]
        for spec in partition.spec.in_channels:
            partition.on_message(spec.channel_id, self._on_message)
        for i in range(self.n_messages):
            self.env.call_at(float(i), self._send, i)

    def _send(self, i: int) -> None:
        self.out.send(("msg", i))

    def _on_message(self, payload) -> None:
        self.received.append((self.env.now, payload))

    def result(self):
        return self.received


class _TraceModel(_SenderModel):
    """Records every arrival *and* local ticks at the same timestamps,
    so heap tie-breaks at the lookahead horizon become observable."""

    def setup(self, partition: Partition) -> None:
        super().setup(partition)
        # Local events at exactly t = k * LOOKAHEAD: the same instants
        # a default-lookahead message from the peer arrives at.
        for k in range(1, 4):
            self.env.call_at(k * LOOKAHEAD, self._tick, k)

    def _tick(self, k: int) -> None:
        self.received.append((self.env.now, ("tick", k)))


class _BoundaryModel(_SenderModel):
    """One local event exactly at ``at`` (e.g. the run horizon)."""

    def __init__(self, at: float = 0.0, peer: str = ""):
        super().__init__(peer=peer)
        self.at = at

    def setup(self, partition: Partition) -> None:
        super().setup(partition)
        self.env.call_at(self.at, self._tick)

    def _tick(self) -> None:
        self.received.append((self.env.now, "tick"))


class _LateSenderModel(_SenderModel):
    """Silent until a single scheduled wakeup at ``at`` sends one
    message — the sparse-traffic shape idle fast-forward must not skip."""

    def __init__(self, at: float = 0.0, peer: str = ""):
        super().__init__(peer=peer)
        self.at = at

    def setup(self, partition: Partition) -> None:
        super().setup(partition)
        self.env.call_at(self.at, self._send, 0)


def _build_sender(**kwargs) -> _SenderModel:
    return _SenderModel(**kwargs)


def _build_trace(**kwargs) -> _TraceModel:
    return _TraceModel(**kwargs)


def _build_boundary(**kwargs) -> _BoundaryModel:
    return _BoundaryModel(**kwargs)


def _build_late(**kwargs) -> _LateSenderModel:
    return _LateSenderModel(**kwargs)


def _pair_specs(builder_a, kwargs_a, builder_b, kwargs_b):
    a_to_b = ChannelSpec("a->b", LOOKAHEAD)
    b_to_a = ChannelSpec("b->a", LOOKAHEAD)
    return [
        PartitionSpec("a", 0, builder_a, kwargs_a, (a_to_b,), (b_to_a,)),
        PartitionSpec("b", 1, builder_b, kwargs_b, (b_to_a,), (a_to_b,)),
    ]


# -- determinism gate --------------------------------------------------------


class TestSerialParallelParity:
    """The tentpole guarantee: same seed -> byte-identical traces."""

    @staticmethod
    def _replay(n_requests: int):
        return build_replay(
            FederationConfig(n_sites=2, clients_per_site=4),
            n_requests=n_requests,
            duration_s=10.0,
        )

    def test_latency_fingerprints_identical(self):
        replay = self._replay(1_000)
        specs = build_replay_specs(replay)
        serial = SerialExecutor(specs).run(replay.horizon_s)
        parallel = ParallelCoordinator(specs).run(replay.horizon_s)

        assert combined_fingerprint(
            serial.results, replay.n_sites
        ) == combined_fingerprint(parallel.results, replay.n_sites)
        # Not just the digests: every per-site counter agrees too.
        for site in range(replay.n_sites):
            assert (
                serial.results[f"site{site}"]
                == parallel.results[f"site{site}"]
            )
        assert serial.stats.total_events == parallel.stats.total_events
        assert serial.stats.rounds == parallel.stats.rounds
        assert (
            serial.stats.cross_partition_messages
            == parallel.stats.cross_partition_messages
        )
        counts = totals(serial.results, replay.n_sites)
        assert counts["completed"] == counts["issued"] > 0

    def test_stats_expose_per_partition_counters(self):
        replay = self._replay(200)
        run = SerialExecutor(build_replay_specs(replay)).run(replay.horizon_s)
        by_id = {p.partition_id: p for p in run.stats.partitions}
        assert set(by_id) == {"backbone", "site0", "site1"}
        for stats in by_id.values():
            assert stats.events > 0
            assert stats.nulls_sent > 0
        assert run.stats.null_messages > 0


# -- the replay's cut ---------------------------------------------------------


class TestPartitioner:
    def test_zero_latency_cut_rejected(self):
        config = FederationConfig(n_sites=2, trunk_latency_s=0.0)
        with pytest.raises(ValueError, match="trunk_latency_s=0.0 must be positive"):
            build_replay(config, n_requests=2)

    def test_negative_latency_cut_rejected(self):
        for field in ("trunk_latency_s", "propagation_delay_s"):
            config = FederationConfig(n_sites=2, **{field: -1.0})
            with pytest.raises(ValueError, match=f"{field}=-1.0 must be positive"):
                build_replay(config, n_requests=2)

    def test_channels_carry_link_latency_as_lookahead(self):
        config = FederationConfig(n_sites=2, trunk_latency_s=0.25)
        specs = build_replay_specs(build_replay(config, n_requests=2))
        for spec in specs:
            for channel in spec.out_channels + spec.in_channels:
                expected = (
                    config.propagation_delay_s
                    if channel.channel_id.endswith("#control")
                    else 0.25
                )
                assert channel.lookahead_s == expected


# -- conservative-protocol edge cases ----------------------------------------


class TestProtocolEdgeCases:
    def test_idle_partition_emits_nulls_no_deadlock(self):
        # "b" never sends a data message; only its null messages let
        # "a" advance past each lookahead window.  A missing-null bug
        # is a hang, so completing at all is the real assertion.
        specs = _pair_specs(
            _build_sender, {"n_messages": 20}, _build_sender, {}
        )
        run = SerialExecutor(specs).run(until=25.0)
        assert [p for _, p in run.results["b"]] == [
            ("msg", i) for i in range(20)
        ]
        by_id = {p.partition_id: p for p in run.stats.partitions}
        assert by_id["b"].messages_sent == 0
        assert by_id["b"].nulls_sent > 0

        parallel = ParallelCoordinator(specs).run(until=25.0)
        assert parallel.results["b"] == run.results["b"]

    def test_horizon_exact_arrival_matches_serial(self):
        # Messages arrive at exactly t = send + LOOKAHEAD, colliding
        # with "b"'s local ticks at the same timestamps — the heap
        # tie-break the horizon rule (strictly-below) protects.
        specs = _pair_specs(
            _build_sender, {"n_messages": 3}, _build_trace, {}
        )
        serial = SerialExecutor(specs).run(until=10.0)
        parallel = ParallelCoordinator(specs).run(until=10.0)
        assert serial.results["b"] == parallel.results["b"]
        times = [t for t, _ in serial.results["b"]]
        # Both the tick and the arrival at each k*LOOKAHEAD made it in.
        assert times.count(LOOKAHEAD) == 2
        assert times == sorted(times)

    def test_send_undercutting_lookahead_raises(self):
        specs = _pair_specs(_build_sender, {}, _build_sender, {})
        partition = Partition(specs[0])
        portal = partition.portals["a->b"]
        with pytest.raises(SyncError, match="undercuts the lookahead"):
            portal.send("too-soon", arrival_ts=LOOKAHEAD / 2)
        # Exactly at the bound is legal (arrival processes in a later
        # round, strictly below some future horizon).
        portal.send("at-bound", arrival_ts=LOOKAHEAD)

    def test_run_below_excludes_limit(self):
        env = Environment()
        seen: list[float] = []
        env.call_at(0.5, seen.append, 0.5)
        env.call_at(1.0, seen.append, 1.0)
        env.run_below(1.0)
        assert seen == [0.5]
        assert env.peek() == 1.0
        env.run_below(1.0 + 1e-9)
        assert seen == [0.5, 1.0]


# -- adaptive synchronization (EOT promises + idle fast-forward) -------------


class TestAdaptiveSync:
    """The adaptive engine's contract: idle stretches collapse into a
    handful of rounds, promises track real next-event times, armed
    fault callbacks pin the floor, and violated promises raise loudly
    — all without touching byte-identity."""

    def test_idle_tail_fast_forwards(self):
        # Traffic stops at t=2; a fixed-step engine would still creep
        # one lookahead (1 s) per round to t=500.  The floor reduction
        # must collapse the dead tail into O(1) rounds.
        specs = _pair_specs(
            _build_sender, {"n_messages": 3}, _build_sender, {}
        )
        serial = SerialExecutor(specs).run(until=500.0)
        parallel = ParallelCoordinator(specs).run(until=500.0)
        assert serial.results["b"] == parallel.results["b"]
        assert [p for _, p in serial.results["b"]] == [
            ("msg", i) for i in range(3)
        ]
        assert serial.stats.rounds == parallel.stats.rounds
        assert serial.stats.rounds < 30  # fixed-step needed ~500
        assert 0 < serial.stats.payload_rounds <= serial.stats.rounds

    def test_permanently_idle_partition_mid_run(self):
        # "b" never schedules anything after setup: its next_local is
        # the horizon from round one, so it must neither stall the
        # floor nor force per-lookahead rounds while "a" plays out a
        # long schedule on its own clock.
        specs = _pair_specs(
            _build_late, {"at": 400.0}, _build_sender, {}
        )
        serial = SerialExecutor(specs).run(until=500.0)
        parallel = ParallelCoordinator(specs).run(until=500.0)
        assert serial.results["b"] == parallel.results["b"]
        assert serial.results["b"] == [(401.0, ("msg", 0))]
        assert serial.stats.rounds == parallel.stats.rounds
        assert serial.stats.rounds < 30

    def test_horizon_exact_eot_promise(self):
        # The only pending event sits exactly at the run horizon: the
        # partition must promise next_local == until, the engine must
        # terminate in one round, and — like env.run(until) — the
        # boundary event itself must never execute.
        specs = _pair_specs(
            _build_boundary, {"at": 10.0}, _build_sender, {}
        )
        serial = SerialExecutor(specs).run(until=10.0)
        parallel = ParallelCoordinator(specs).run(until=10.0)
        assert serial.results["a"] == parallel.results["a"] == []
        assert serial.stats.rounds == parallel.stats.rounds == 1

    def test_drain_promises_track_next_local_event(self):
        specs = _pair_specs(_build_boundary, {"at": 7.0}, _build_sender, {})
        partition = Partition(specs[0])
        cid = "a->b"
        batches, bounds, next_local = partition.drain(until=100.0)
        assert batches == []
        assert next_local == 7.0
        # First round: the inbound bound (t0 + lookahead) still caps
        # the promise at 1.0 + lookahead.
        assert bounds[cid] == 1.0 + LOOKAHEAD
        # Once the coordinator grants the floor it derived from that
        # next_local, the promise jumps to the real event time.
        partition.inject([], {}, floor=7.0)
        _, bounds, next_local = partition.drain(until=100.0)
        assert next_local == 7.0
        assert bounds[cid] == 7.0 + LOOKAHEAD

    def test_armed_injector_counts_as_pending_local_event(self):
        # A FaultPlan wakeup is an ordinary heap callback, so an
        # otherwise-idle partition must report the fault time as its
        # next local event — fast-forward may jump TO the injection
        # instant but never over it.
        import types

        from repro.faults import FaultPlan
        from repro.faults.injector import Injector

        specs = _pair_specs(_build_sender, {}, _build_sender, {})
        partition = Partition(specs[0])
        plan = FaultPlan(seed=1).registry_outage(7.0, "docker-hub", 3.0)
        Injector(
            types.SimpleNamespace(env=partition.env, recorder=None), plan
        ).arm()
        _batches, _bounds, next_local = partition.drain(until=100.0)
        assert next_local == 7.0

    def test_sync_error_names_the_violated_promise(self):
        specs = _pair_specs(_build_sender, {}, _build_sender, {})
        partition = Partition(specs[0])
        # The coordinator granted floor=10: every receiver now assumes
        # nothing arrives below 10 + lookahead on this channel.
        partition.inject([], {}, floor=10.0)
        portal = partition.portals["a->b"]
        with pytest.raises(SyncError, match="EOT promise") as err:
            portal.send("rewrites-history", arrival_ts=5.0)
        message = str(err.value)
        assert "a->b" in message
        assert repr(10.0 + LOOKAHEAD) in message
        # At or above the promise is legal.
        portal.send("at-promise", arrival_ts=10.0 + LOOKAHEAD)
