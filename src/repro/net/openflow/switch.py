"""The OpenFlow switch datapath and its control channel."""

from __future__ import annotations

import itertools
import typing as _t
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
from repro.net.openflow.table import FlowEntry, FlowTable
from repro.net.packet import Packet
from repro.sim import Environment
from repro.sim.events import NORMAL

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sdnfw.app import SDNApp

#: Spacing of the grid a switch's flow-expiry wakeups land on.
EXPIRY_SWEEP_INTERVAL_S = 0.25


class ControlChannel:
    """Ordered, latency-modelled message pipe between switch and controller.

    One TCP control connection in the real system: each message lands
    ``latency_s`` after it was sent, FIFO per direction, and messages
    are not spaced out behind each other — a burst pipelines, which is
    why OpenFlow has a barrier at all.

    What one side sends in one simulated instant travels as one batch:
    one heap entry lands it, and its messages are handled in send
    order.  A message sent while a batch is being handled opens a new
    batch — a new entry behind this one, even at ``latency_s == 0``.
    Batches sent at different instants land at their own instants;
    two that land on one float pop in send order (the heap key's
    ``sched_at``).
    """

    def __init__(self, env: Environment, latency_s: float = 200e-6) -> None:
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        self.env = env
        self.latency_s = float(latency_s)
        self.switch: "OpenFlowSwitch | None" = None
        self.controller: "SDNApp | None" = None
        # Each direction's last batch and the instant it takes messages
        # at: ``None`` once it is being handled.
        self._up: list = []
        self._up_at: float | None = None
        self._down: list = []
        self._down_at: float | None = None

    def bind(self, switch: "OpenFlowSwitch", controller: "SDNApp") -> None:
        self.switch = switch
        self.controller = controller

    def send_to_controller(self, message: _t.Any) -> None:
        now = self.env._now
        if self._up_at == now:
            self._up.append(message)
        else:
            self._up, self._up_at = [message], now
            self.env.call_later(self.latency_s, self._deliver_up, self._up)

    def send_to_switch(self, message: _t.Any) -> None:
        now = self.env._now
        if self._down_at == now:
            self._down.append(message)
        else:
            self._down, self._down_at = [message], now
            self.env.call_later(self.latency_s, self._deliver_down, self._down)

    def _deliver_up(self, batch: list) -> None:
        if batch is self._up:
            self._up_at = None
        if self.controller is not None and self.switch is not None:
            for message in batch:
                self.controller.dispatch_switch_message(self.switch, message)

    def _deliver_down(self, batch: list) -> None:
        if batch is self._down:
            self._down_at = None
        if self.switch is not None:
            for message in batch:
                self.switch.handle_controller_message(message)


class OpenFlowSwitch(NetDevice):
    """A single-table OpenFlow switch (the testbed's virtual OVS).

    Packets are matched against the flow table after a small lookup
    delay; misses (or explicit *ToController* actions) are buffered and
    punted to the controller as packet-in messages.  The buffered
    packet is released later by a flow-mod carrying its ``buffer_id``
    or an explicit packet-out — the "held request" of on-demand
    deployment with waiting.

    A packet costs one heap entry per switch hop.  A link schedules
    :meth:`_ingress` directly at ``arrival + lookup_delay_s``
    (:meth:`fused_ingress`; the key and its guarantee are stated at
    :class:`repro.net.link.LinkEndpoint`); :meth:`receive` — arrival
    now, lookup after the delay — remains for a caller that is not a
    link: a cut trunk's hand-off from another partition, and the
    two-event test oracle.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        datapath_id: int,
        lookup_delay_s: float = 10e-6,
    ) -> None:
        super().__init__(env, name)
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
        # table every ``EXPIRY_SWEEP_INTERVAL_S`` even when idle, the
        # switch wakes only at the sweep-grid tick covering the
        # earliest possible expiry.  The grid (construction time plus
        # multiples of the interval, accumulated in float exactly as
        # the old fixed-interval sweeper did) is kept so FlowRemoved
        # messages fire at byte-identical simulated times.
        self._grid_cursor = env.now
        self._wake_at: float | None = None
        self._wake_gen = 0
        self.table.on_insert = self._entry_installed

    # -- ports -----------------------------------------------------------

    def add_port(self) -> tuple[int, NetworkInterface]:
        """Create a new switch port; returns (port_no, interface)."""
        port_no = next(self._next_port)
        iface = self.add_interface(name=f"port{port_no}")
        iface.port_no = port_no
        self._ports[port_no] = iface
        return port_no, iface

    def ports(self) -> list[NetworkInterface]:
        """All port interfaces (Injector crashes walk the attached links)."""
        return list(self._ports.values())

    def power_cycle(self) -> None:
        """Lose all volatile state (failure injection: switch crash).

        Flow entries and held packet-in buffers are gone.  The
        controller replays ``on_datapath_join`` when the switch comes
        back, exactly as a real datapath re-handshakes.
        """
        self.table.clear()
        self._buffers.clear()

    # -- data plane ---------------------------------------------------------

    def fused_ingress(self) -> _t.Callable[[Packet, int, float], None]:
        return self._ingress

    def _ingress(self, packet: Packet, in_port: int, arrival: float) -> None:
        """A link's arrival and the lookup in one: runs at the lookup
        instant for a packet that reached ``in_port`` at ``arrival``.

        The entry was scheduled when the link took the packet, so the
        link may have changed under it: the packet is lost iff the link
        was down at ``arrival``, as a delivery at that instant would
        have found it (one falsy test on a link that never changed
        state).
        """
        link = self._ports[in_port].endpoint.link
        if link.down_changes and link.down_at(arrival):
            return
        self.stats["rx"] += 1
        self._pipeline(packet, in_port)

    def receive(self, packet: Packet, iface: NetworkInterface) -> None:
        self.stats["rx"] += 1
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
            self._punt(packet, in_port, reason="no_match")
            return
        entry.last_used = self.env._now
        entry.packet_count += 1
        self._apply_actions(entry.actions, packet, in_port)

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
            self._release_buffer(message.buffer_id, message.actions)
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
                cookie=mod.cookie,
            )
            self.table.install(entry, self.env.now)
            if mod.buffer_id is not None:
                self._release_buffer(mod.buffer_id, entry.actions)
        else:  # delete
            self.table.remove_matching(mod.cookie)

    def _release_buffer(
        self, buffer_id: int, actions: _t.Sequence[Action]
    ) -> None:
        held = self._buffers.pop(buffer_id, None)
        if held is None:
            return
        packet, in_port = held
        self._apply_actions(actions, packet, in_port)

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
        interval = EXPIRY_SWEEP_INTERVAL_S
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
        if self.channel is not None:
            for entry in expired:
                self.channel.send_to_controller(FlowRemoved(entry.match, entry.priority))
        # Entries may have been touched since this wake was armed (a
        # spurious wake): re-arm at the new earliest possible expiry, if
        # any entry can still expire.
        if deadline is not None:
            self._schedule_expiry_wake(deadline)
