"""The OpenFlow switch datapath and its control channel."""

from __future__ import annotations

import itertools
import typing as _t
from collections import deque
from heapq import heappush

from repro.net.device import NetDevice, NetworkInterface
from repro.net.openflow.actions import Action, Drop, Output, SetField, ToController
from repro.net.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowRemoved,
    PacketIn,
    PacketOut,
)
from repro.net.openflow.table import FlowEntry, FlowTable, REASON_DELETE
from repro.net.packet import Packet
from repro.net.route_cache import RouteHop, compile_rewrites
from repro.sim import Environment
from repro.sim.events import NORMAL

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sdnfw.app import SDNApp


class ControlChannel:
    """Ordered, latency-modelled message pipe between switch and controller.

    Both directions preserve FIFO order (a TCP control connection in
    the real system); each message is delayed by ``latency_s``.

    Each direction is a callback busy-chain rather than a Store plus a
    pump process: the first message in a burst schedules its own
    delivery, later ones queue in a deque, and each delivery chains the
    next.  That keeps the old pump's timeline — message *n+1* of a
    burst departs when message *n* lands, so back-to-back messages
    space out by ``latency_s`` — at two heap entries per message
    instead of a store hand-off plus a process resumption.  On
    delivery the message is dispatched *before* the next one is
    scheduled, matching the pump's resume-dispatch-then-wait order.
    """

    def __init__(self, env: Environment, latency_s: float = 200e-6) -> None:
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        self.env = env
        self.latency_s = float(latency_s)
        self.switch: "OpenFlowSwitch | None" = None
        self.controller: "SDNApp | None" = None
        self._up_queue: deque = deque()
        self._up_busy = False
        self._down_queue: deque = deque()
        self._down_busy = False

    def bind(self, switch: "OpenFlowSwitch", controller: "SDNApp") -> None:
        self.switch = switch
        self.controller = controller

    def send_to_controller(self, message: _t.Any) -> None:
        if self._up_busy:
            self._up_queue.append(message)
        else:
            self._up_busy = True
            self.env.call_later(self.latency_s, self._deliver_up, message)

    def send_to_switch(self, message: _t.Any) -> None:
        if self._down_busy:
            self._down_queue.append(message)
        else:
            self._down_busy = True
            self.env.call_later(self.latency_s, self._deliver_down, message)

    def _deliver_up(self, message: _t.Any) -> None:
        if self.controller is not None and self.switch is not None:
            self.controller.dispatch_switch_message(self.switch, message)
        if self._up_queue:
            self.env.call_later(
                self.latency_s, self._deliver_up, self._up_queue.popleft()
            )
        else:
            self._up_busy = False

    def _deliver_down(self, message: _t.Any) -> None:
        if self.switch is not None:
            self.switch.handle_controller_message(message)
        if self._down_queue:
            self.env.call_later(
                self.latency_s, self._deliver_down, self._down_queue.popleft()
            )
        else:
            self._down_busy = False


class OpenFlowSwitch(NetDevice):
    """A single-table OpenFlow switch (the testbed's virtual OVS).

    Packets are matched against the flow table after a small lookup
    delay; misses (or explicit *ToController* actions) are buffered and
    punted to the controller as packet-in messages.  The buffered
    packet is released later by a flow-mod carrying its ``buffer_id``
    or an explicit packet-out — the "held request" of on-demand
    deployment with waiting.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        datapath_id: int,
        lookup_delay_s: float = 10e-6,
        expiry_sweep_interval_s: float = 0.25,
    ) -> None:
        super().__init__(env, name)
        if expiry_sweep_interval_s <= 0:
            raise ValueError("expiry_sweep_interval_s must be > 0")
        self.datapath_id = datapath_id
        self.lookup_delay_s = float(lookup_delay_s)
        self.table = FlowTable()
        self.channel: ControlChannel | None = None
        self._ports: dict[int, NetworkInterface] = {}
        self._next_port = itertools.count(1)
        self._buffers: dict[int, tuple[Packet, int]] = {}
        self._next_buffer = itertools.count(1)
        #: Counters for tests and diagnostics.
        self.stats = {"rx": 0, "tx": 0, "miss": 0, "drop": 0, "punt": 0}
        # Expiry is deadline-driven: instead of a process sweeping the
        # table every ``expiry_sweep_interval_s`` even when idle, the
        # switch wakes only at the sweep-grid tick covering the
        # earliest possible expiry.  The grid (construction time plus
        # multiples of the interval, accumulated in float exactly as
        # the old fixed-interval sweeper did) is kept so FlowRemoved
        # messages fire at byte-identical simulated times.
        self.expiry_sweep_interval_s = float(expiry_sweep_interval_s)
        self._grid_cursor = env.now
        self._wake_at: float | None = None
        self._wake_gen = 0
        self.table.on_insert = self._entry_installed

    # -- ports -----------------------------------------------------------

    def add_port(self, mac) -> tuple[int, NetworkInterface]:
        """Create a new switch port; returns (port_no, interface)."""
        port_no = next(self._next_port)
        iface = self.add_interface(mac, ip=None, name=f"port{port_no}")
        iface.port_no = port_no
        self._ports[port_no] = iface
        return port_no, iface

    def ports(self) -> list[NetworkInterface]:
        """All port interfaces (Injector crashes walk the attached links)."""
        return list(self._ports.values())

    def power_cycle(self) -> None:
        """Lose all volatile state (failure injection: switch crash).

        Flow entries and held packet-in buffers are gone; the table
        epoch bump invalidates memoized routes through this switch.
        The controller replays ``on_datapath_join`` when the switch
        comes back, exactly as a real datapath re-handshakes.
        """
        self.table.clear()
        self._buffers.clear()

    # -- data plane ---------------------------------------------------------

    def receive(self, packet: Packet, iface: NetworkInterface) -> None:
        self.stats["rx"] += 1
        # A packet landing here on the delivery path may still carry a
        # fast-path hop whose fusion was declined (link epoch moved or
        # link down at transmit): drop the stale pointer so the slow
        # path owns the packet from here on.
        if packet._fp_next is not None:
            packet._fp_next.route.invalidate()
            packet._fp_next = None
        # One slim callback per packet instead of a full process: the
        # pipeline body runs after the lookup delay and never blocks.
        # Operands travel on the heap entry itself — no closure.
        env = self.env
        now = env._now
        heappush(
            env._queue,
            (
                now + self.lookup_delay_s,
                NORMAL,
                now,
                now,
                next(env._seq),
                self._pipeline,
                (packet, iface.port_no),
            ),
        )

    def _pipeline(self, packet: Packet, in_port: int) -> None:
        entry = self.table.lookup(packet)
        if entry is None:
            self.stats["miss"] += 1
            packet._fp_rec = None  # a punted traversal is not replayable
            self._punt(packet, in_port, reason="no_match")
            return
        entry.last_used = self.env._now
        entry.packet_count += 1
        if packet._fp_rec is not None:
            self._record_hop(entry, packet, in_port)
        else:
            self._apply_actions(entry.actions, packet, in_port)

    def _record_hop(
        self, entry: FlowEntry, packet: Packet, in_port: int
    ) -> None:
        """Slow-path hop with recording: apply ``entry``'s actions and
        append a replayable :class:`RouteHop` to the packet's in-flight
        recording.  Any action shape the replayer can't reproduce
        exactly aborts the recording and falls back wholesale."""
        compiled = entry._compiled
        if compiled is False:
            compiled = entry._compiled = compile_rewrites(entry.actions)
        if compiled is None:
            packet._fp_rec = None
            self._apply_actions(entry.actions, packet, in_port)
            return
        rewrites, out_port = compiled
        # Epoch snapshots *at lookup time*: equality at replay time
        # proves the memoized lookup/egress still match a fresh run.
        table_epoch = self.table.epoch
        in_ep = self._ports[in_port].endpoint
        src_ep = in_ep.peer if in_ep is not None else None
        out_iface = self._ports.get(out_port)
        if src_ep is None or out_iface is None or not out_iface.attached:
            # Not a replayable traversal (packet-out injection or a
            # drop on output); run the plain slow path for this hop.
            packet._fp_rec = None
            self._apply_actions(entry.actions, packet, in_port)
            return
        for action in entry.actions[:-1]:
            action.apply(packet)
        hop = RouteHop(
            self,
            in_port,
            entry,
            table_epoch,
            src_ep,
            src_ep.link.epoch,
            out_iface,
            rewrites,
            packet.match_values(),
        )
        packet._fp_rec.hops.append(hop)
        self.stats["tx"] += 1
        out_iface.send(packet)

    def _fast_hop(self, packet: Packet, hop: RouteHop, arrival: float) -> None:
        """Replay one memoized hop (fused propagation + lookup delay).

        Runs at the exact simulated instant the slow path's
        ``_pipeline`` would have: epoch equality then proves the
        memoized lookup result is what a fresh lookup would return, so
        the hop reproduces the slow path's side effects — rx/tx
        counters, the entry's ``last_used``/``packet_count`` refresh,
        header rewrites, match-key cache — without running it.

        Epoch inequality only means *something* in the table moved, not
        that this flow's lookup changed — and installs for unrelated
        flows are constant background traffic, so discarding on every
        bump would thrash the cache.  A mismatch therefore triggers a
        one-shot revalidation: one fresh (pure) indexed lookup at
        exactly the instant the slow path would have performed it.  The
        same entry back proves the replay is still what the slow path
        would do (entry action programs are immutable), and the hop's
        epoch snapshot moves forward; a different result (or a dead
        egress-link epoch) kills the route and the packet re-enters
        ``_pipeline`` here and now — byte-identical to never having
        fused.

        The entry was scheduled when the ingress link took the packet,
        so the link may have changed under it.  Its epoch tells: the
        route dies, and the packet meets the slow path's rule for
        ``arrival``, the instant it reached this switch — lost if the
        link was down then, otherwise received and looked up afresh.
        """
        in_link = hop.src_ep.link
        if in_link.epoch != hop.in_epoch:
            hop.route.invalidate()
            packet._fp_next = None
            if not in_link.down_at(arrival):
                self.stats["rx"] += 1
                self._pipeline(packet, hop.in_port)
            return
        self.stats["rx"] += 1
        table = self.table
        if table.epoch != hop.table_epoch:
            if table.lookup(packet) is hop.entry:
                hop.table_epoch = table.epoch
            else:
                hop.route.invalidate()
                packet._fp_next = None
                self._pipeline(packet, hop.in_port)
                return
        if hop.out_link.epoch != hop.out_epoch:
            hop.route.invalidate()
            packet._fp_next = None
            self._pipeline(packet, hop.in_port)
            return
        entry = hop.entry
        entry.last_used = self.env._now
        entry.packet_count += 1
        tcp = packet.tcp
        for slot, value in hop.rewrites:
            if slot == 1:
                packet.ip_dst = value
            elif slot == 3:
                tcp.dst_port = value
            elif slot == 0:
                packet.ip_src = value
            elif slot == 2:
                tcp.src_port = value
            elif slot == 4:
                packet.eth_src = value
            else:
                packet.eth_dst = value
        packet._mk = hop.mk_after
        self.stats["tx"] += 1
        packet._fp_next = hop.next
        hop.out_ep.transmit(packet)

    def _apply_actions(
        self, actions: _t.Sequence[Action], packet: Packet, in_port: int
    ) -> None:
        for action in actions:
            if isinstance(action, SetField):
                action.apply(packet)
            elif isinstance(action, Output):
                self._output(packet, action.port)
            elif isinstance(action, ToController):
                self._punt(packet, in_port, reason="action")
            elif isinstance(action, Drop):
                self.stats["drop"] += 1
                return
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown action {action!r}")

    def _output(self, packet: Packet, port: int) -> None:
        iface = self._ports.get(port)
        if iface is None or not iface.attached:
            self.stats["drop"] += 1
            return
        self.stats["tx"] += 1
        iface.send(packet)

    def _punt(self, packet: Packet, in_port: int, reason: str) -> None:
        if self.channel is None:
            self.stats["drop"] += 1
            return
        self.stats["punt"] += 1
        buffer_id = next(self._next_buffer)
        self._buffers[buffer_id] = (packet, in_port)
        self.channel.send_to_controller(
            PacketIn(
                datapath_id=self.datapath_id,
                buffer_id=buffer_id,
                packet=packet,
                in_port=in_port,
                reason=reason,
            )
        )

    # -- control plane -----------------------------------------------------------

    def handle_controller_message(self, message: _t.Any) -> None:
        if isinstance(message, FlowMod):
            self._handle_flow_mod(message)
        elif isinstance(message, PacketOut):
            self._handle_packet_out(message)
        elif isinstance(message, BarrierRequest):
            if self.channel is not None:
                self.channel.send_to_controller(
                    BarrierReply(datapath_id=self.datapath_id, xid=message.xid)
                )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown controller message {message!r}")

    def _handle_flow_mod(self, mod: FlowMod) -> None:
        if mod.command == "add":
            if mod.match is None:
                raise ValueError("FlowMod add requires a match")
            entry = FlowEntry(
                match=mod.match,
                actions=mod.actions,
                priority=mod.priority,
                idle_timeout=mod.idle_timeout,
                hard_timeout=mod.hard_timeout,
                cookie=mod.cookie,
                notify_removal=mod.notify_removal,
            )
            self.table.install(entry, self.env.now)
            if mod.buffer_id is not None:
                self._release_buffer(mod.buffer_id, entry.actions)
        else:  # delete
            removed = self.table.remove_matching(
                match=mod.match, cookie=mod.cookie
            )
            for entry in removed:
                self._notify_removed(entry, REASON_DELETE)

    def _handle_packet_out(self, out: PacketOut) -> None:
        if out.buffer_id is not None:
            self._release_buffer(out.buffer_id, out.actions)
        else:
            packet = _t.cast(Packet, out.packet)
            self._apply_actions(out.actions, packet, out.in_port or 0)

    def _release_buffer(
        self, buffer_id: int, actions: _t.Sequence[Action]
    ) -> None:
        held = self._buffers.pop(buffer_id, None)
        if held is None:
            return
        packet, in_port = held
        self._apply_actions(actions, packet, in_port)

    def _notify_removed(self, entry: FlowEntry, reason: str) -> None:
        if self.channel is None or not entry.notify_removal:
            return
        self.channel.send_to_controller(
            FlowRemoved(
                datapath_id=self.datapath_id,
                match=entry.match,
                cookie=entry.cookie,
                reason=reason,
                priority=entry.priority,
                packet_count=entry.packet_count,
            )
        )

    # -- deadline-driven expiry --------------------------------------------------

    def _entry_installed(self, entry: FlowEntry) -> None:
        """Table hook: arm the expiry wakeup for a fresh entry."""
        deadline = entry.next_deadline()
        if deadline is not None:
            self._schedule_expiry_wake(deadline)

    def _next_grid_tick(self, deadline: float) -> float:
        """First future sweep-grid tick at or after ``deadline``.

        The grid is the tick sequence the old fixed-interval sweeper
        produced: construction time plus repeated float addition of
        the interval.  Reproducing that accumulation (rather than
        computing ``start + k * interval``) keeps expiry times
        byte-identical to the polling implementation.
        """
        interval = self.expiry_sweep_interval_s
        now = self.env.now
        while self._grid_cursor <= now:
            self._grid_cursor += interval
        tick = self._grid_cursor
        while tick < deadline:
            tick += interval
        return tick

    def _schedule_expiry_wake(self, deadline: float) -> None:
        if self._wake_at is not None and self._wake_at <= deadline:
            return  # the armed wakeup already covers this deadline
        tick = self._next_grid_tick(deadline)
        if self._wake_at is not None and self._wake_at <= tick:
            return
        self._wake_at = tick
        self._wake_gen += 1
        gen = self._wake_gen
        self.env.call_at(tick, self._expiry_wake, gen)

    def _expiry_wake(self, gen: int) -> None:
        if gen != self._wake_gen:
            return  # superseded by an earlier wakeup
        self._wake_at = None
        expired, deadline = self.table.sweep_and_deadline(self.env.now)
        for entry, reason in expired:
            self._notify_removed(entry, reason)
        # Idle-deadline entries may have been touched since this wake
        # was armed (a spurious wake): re-arm at the new earliest
        # possible expiry, if any entry can still expire.
        if deadline is not None:
            self._schedule_expiry_wake(deadline)
