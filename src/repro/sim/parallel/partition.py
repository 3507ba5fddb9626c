"""Partitions: one event loop per site, coupled only through portals.

A :class:`Partition` wraps a private :class:`~repro.sim.Environment`
plus the sending ends (:class:`Portal`) of its outbound cross-partition
channels.  Model code inside the partition calls ``portal.send()``
when traffic leaves; the message is stamped with its *arrival*
timestamp (send time + channel lookahead, or an explicit later time)
and buffered in the per-channel outbox.  The round engine (see
``coordinator.py``) drains outboxes, routes them, and injects each
arriving message into the destination environment via a slim
``call_at`` at exactly its timestamp — so a cross-partition packet is
an ordinary deterministic event on the receiving heap.

Wire format (kept to plain tuples so pickling across the fork
boundary stays cheap):

* packet message: ``(arrival_ts, seq, payload)`` — ``seq`` is the
  sender partition's monotone message counter, making the sort key
  ``(arrival_ts, channel_id, seq)`` total and hash-independent;
* channel batch: ``(channel_id, lbts, packets)`` — emitted only for
  channels that carried payload this round;
* bounds: ``{channel_id: lbts}`` — one **EOT promise** per
  out-channel per round, payload or not.  Each promise is the
  sender's earliest possible next output time on that channel: its
  next local event time (clamped by in-flight sends and its own
  inbound bounds), plus the channel lookahead.  A bound-only channel
  update is the adaptive equivalent of a classic null message, but it
  rides the round batch instead of being a message of its own — so
  the kind-suffixed data/control channel pairs between the same two
  islands no longer double the null traffic;
* floor: the coordinator's per-round grant of the global minimum
  next-event time (see ``coordinator.py``).  Every inbound bound is
  lifted to at least ``floor + lookahead`` on injection, which is
  what lets an idle stretch collapse into a single round instead of
  creeping lookahead-by-lookahead.
"""

from __future__ import annotations

import dataclasses
import typing as _t
from itertools import count

from repro.sim import Environment

#: A timestamped cross-partition message: (arrival_ts, sender_seq, payload).
PacketMessage = tuple[float, int, _t.Any]
#: One round's traffic on one channel: (channel_id, lbts, packets).
ChannelBatch = tuple[str, float, list[PacketMessage]]
#: One round's EOT promises: channel_id -> lower-bound timestamp.
ChannelBounds = dict[str, float]


class SyncError(RuntimeError):
    """A partition violated the conservative-sync contract (e.g. tried
    to send a message arriving before ``now + lookahead`` or before an
    EOT promise it already advertised)."""


@dataclasses.dataclass(frozen=True)
class ChannelSpec:
    """One directed cross-partition channel (one side of a cut link)."""

    channel_id: str
    #: Conservative lookahead: no message sent at time ``t`` may arrive
    #: before ``t + lookahead_s``.  Must be strictly positive
    #: (``build_replay`` rejects a plan that would cut at zero).
    lookahead_s: float


class PartitionModel(_t.Protocol):
    """What a partition builder returns.

    ``setup`` wires the model into its partition (registering message
    handlers, scheduling initial events); ``result`` returns a
    picklable summary shipped back to the coordinator when the run
    finalizes.
    """

    def setup(self, partition: "Partition") -> None: ...

    def result(self) -> _t.Any: ...


@dataclasses.dataclass(frozen=True)
class PartitionSpec:
    """Picklable description of one partition.

    The builder is a module-level callable (picklable by reference)
    invoked *inside* the worker process as ``builder(**kwargs)``, so
    partitions are constructed where they run — nothing env-bound ever
    crosses the fork boundary.
    """

    partition_id: str
    index: int
    builder: _t.Callable[..., PartitionModel]
    kwargs: dict[str, _t.Any]
    out_channels: tuple[ChannelSpec, ...]
    in_channels: tuple[ChannelSpec, ...]


class Portal:
    """The sending end of one outbound cross-partition channel."""

    __slots__ = ("channel_id", "lookahead_s", "_partition", "_outbox")

    def __init__(
        self, partition: "Partition", spec: ChannelSpec
    ) -> None:
        self.channel_id = spec.channel_id
        self.lookahead_s = spec.lookahead_s
        self._partition = partition
        self._outbox = partition._outbox[spec.channel_id]

    def send(self, payload: _t.Any, arrival_ts: float | None = None) -> None:
        """Ship ``payload`` across the cut link.

        It arrives at ``now + lookahead`` by default; pass a later
        ``arrival_ts`` to model extra in-path delay (e.g. client-link
        latency before the trunk).  Arrivals earlier than the lookahead
        bound — or earlier than an EOT promise this channel already
        advertised — would break the safe-time invariant and raise
        :class:`SyncError`.
        """
        part = self._partition
        now = part.env.now
        if arrival_ts is None:
            arrival_ts = now + self.lookahead_s
        elif arrival_ts < now + self.lookahead_s:
            raise SyncError(
                f"channel {self.channel_id!r}: arrival_ts {arrival_ts!r} "
                f"undercuts the lookahead bound {now + self.lookahead_s!r} "
                f"(now={now!r}, lookahead={self.lookahead_s!r})"
            )
        promised = part._sent_lbts[self.channel_id]
        if arrival_ts < promised:
            raise SyncError(
                f"channel {self.channel_id!r}: arrival_ts {arrival_ts!r} "
                f"undercuts the EOT promise {promised!r} already "
                f"advertised on this channel (the receiver has been "
                f"granted safe time up to that bound; an earlier arrival "
                f"would rewrite its past)"
            )
        self._outbox.append((arrival_ts, next(part._msg_seq), payload))


class Partition:
    """One shard of the simulated network with its own event loop."""

    def __init__(self, spec: PartitionSpec) -> None:
        self.spec = spec
        self.partition_id = spec.partition_id
        self.env = Environment()
        self._msg_seq = count()
        self._outbox: dict[str, list[PacketMessage]] = {
            cs.channel_id: [] for cs in spec.out_channels
        }
        self.portals: dict[str, Portal] = {
            cs.channel_id: Portal(self, cs) for cs in spec.out_channels
        }
        self._out_specs = spec.out_channels
        self._in_specs = spec.in_channels
        # Inbound LBTS per channel: before anything is received, the
        # peer can reach us no earlier than t0 + lookahead.
        self._lbts: dict[str, float] = {
            cs.channel_id: self.env.now + cs.lookahead_s
            for cs in spec.in_channels
        }
        self._handlers: dict[str, _t.Callable[[_t.Any], None]] = {}
        # Monotone per-channel EOT promises (the bounds already sent).
        self._sent_lbts: dict[str, float] = {
            cs.channel_id: self.env.now + cs.lookahead_s
            for cs in spec.out_channels
        }
        #: Cross-partition traffic counters (exported in bench JSON).
        #: ``nulls_sent`` counts bound-only channel updates — rounds a
        #: channel advertised a new promise without carrying payload.
        self.messages_sent = 0
        self.nulls_sent = 0
        self.model = spec.builder(**spec.kwargs)
        self.model.setup(self)

    # -- model-facing API -------------------------------------------------

    def on_message(
        self, channel_id: str, handler: _t.Callable[[_t.Any], None]
    ) -> None:
        """Register the handler invoked (at arrival timestamp) for each
        message arriving on ``channel_id``."""
        if channel_id not in self._lbts:
            raise KeyError(
                f"{self.partition_id!r} has no inbound channel "
                f"{channel_id!r} (have {sorted(self._lbts)})"
            )
        self._handlers[channel_id] = handler

    # -- round-engine API -------------------------------------------------

    def horizon(self, until: float) -> float:
        """Safe processing bound: events strictly below it may run."""
        if not self._lbts:
            return until
        bound = min(self._lbts.values())
        return bound if bound < until else until

    def inject(
        self,
        batches: list[ChannelBatch],
        bounds: ChannelBounds,
        floor: float,
    ) -> None:
        """Apply one round's grant: packets, EOT promises, and floor.

        ``bounds`` carries the peers' per-channel EOT promises;
        ``floor`` is the coordinator's global minimum next-event time.
        No partition can produce an event below the floor, so every
        inbound bound is lifted to at least ``floor + lookahead`` —
        the idle fast-forward that lets sparse stretches collapse into
        one round.  Our own outbound promises are lifted the same way
        (receivers assumed it from the identical floor), keeping both
        sides of every channel in exact float agreement.

        Messages are injected in ``(arrival_ts, channel_id, seq)``
        order — a total, hash-independent key — so the receiving
        heap's tie-break sequence numbers are identical in serial and
        parallel execution.
        """
        lbts = self._lbts
        for channel_id, bound in bounds.items():
            if bound > lbts[channel_id]:
                lbts[channel_id] = bound
        pending: list[tuple[float, str, int, _t.Any]] = []
        for channel_id, bound, packets in batches:
            if bound > lbts[channel_id]:
                lbts[channel_id] = bound
            for ts, seq, payload in packets:
                pending.append((ts, channel_id, seq, payload))
        for cs in self._in_specs:
            lifted = floor + cs.lookahead_s
            if lifted > lbts[cs.channel_id]:
                lbts[cs.channel_id] = lifted
        sent = self._sent_lbts
        for cs in self._out_specs:
            lifted = floor + cs.lookahead_s
            if lifted > sent[cs.channel_id]:
                sent[cs.channel_id] = lifted
        if not pending:
            return
        pending.sort(key=lambda m: (m[0], m[1], m[2]))
        call_at = self.env.call_at
        handlers = self._handlers
        for ts, channel_id, _seq, payload in pending:
            call_at(ts, handlers[channel_id], payload)

    def advance(self, horizon: float) -> None:
        """Process every local event strictly below ``horizon``.

        Uses ``env.run_below(horizon)``: events stamped exactly at the
        horizon stay on the heap for a later round (the same boundary
        rule as ``run(until=...)``, whose stop event is urgent), which
        is what keeps a packet arriving *exactly at* the lookahead
        horizon ordered identically to a serial run.  ``run_below`` is
        the allocation-free variant — this is called once per
        synchronization round, thousands of times per run.
        """
        self.env.run_below(horizon)

    def drain(
        self, until: float
    ) -> tuple[list[ChannelBatch], ChannelBounds, float]:
        """Collect this round's outbound traffic and EOT promises.

        Returns ``(batches, bounds, next_local)``:

        * ``batches`` — one batch per out-channel *with payload*;
        * ``bounds`` — one EOT promise per out-channel, payload or
          not: ``min(next local event, min inbound bound) +
          lookahead``, never moving backwards.  With floor-lifted
          inbound bounds the ``min`` usually resolves to the next
          local event time — the promise tracks real activity, not
          the bare ``now + lookahead`` a fixed-step null would carry;
        * ``next_local`` — the earliest future local event on this
          partition's heap (capped at ``until``), the partition's
          contribution to the coordinator's next floor.  An armed
          fault-injector callback or deadline wakeup is an ordinary
          heap event, so it counts.
        """
        env = self.env
        peek = env.peek()
        next_local = peek if peek < until else until
        lower = next_local
        if self._lbts:
            inbound = min(self._lbts.values())
            if inbound < lower:
                lower = inbound
        batches: list[ChannelBatch] = []
        bounds: ChannelBounds = {}
        for cs in self._out_specs:
            outbox = self._outbox[cs.channel_id]
            lbts = lower + cs.lookahead_s
            sent = self._sent_lbts[cs.channel_id]
            if lbts < sent:
                lbts = sent  # promises never move backwards
            else:
                self._sent_lbts[cs.channel_id] = lbts
            if outbox:
                packets = list(outbox)
                outbox.clear()
                self.messages_sent += len(packets)
                batches.append((cs.channel_id, lbts, packets))
            else:
                self.nulls_sent += 1
            bounds[cs.channel_id] = lbts
        return batches, bounds, next_local

    def done(self, until: float) -> bool:
        """True when nothing below ``until`` remains locally."""
        return self.env.peek() >= until

    def finalize(self, until: float) -> None:
        """Advance the clock to exactly ``until`` (no events remain
        below it) so models observe the same end time as a plain
        ``env.run(until=...)``."""
        if until > self.env.now:
            self.env.run(until=until)
