"""The OpenFlow switch datapath and its control channel."""

from __future__ import annotations

import itertools
import typing as _t
from heapq import heappush
from math import inf, nextafter

from repro.net.device import NetDevice, NetworkInterface
from repro.net.openflow.actions import Action, Drop, Nat, Output, SetSrc, ToController
from repro.net.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowRemoved,
    PacketIn,
    PacketOut,
)
from repro.net.openflow.table import FlowEntry, FlowTable
from repro.net.packet import Packet, TCPFlags
from repro.sim import Environment
from repro.sim.events import NORMAL
from repro.sim.expiry import Expiry, by_order

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sdnfw.app import SDNApp

#: Spacing of the grid a switch's flow-expiry wakeups land on.
EXPIRY_SWEEP_INTERVAL_S = 0.25

#: The flag bits that end a tracked connection.
_END_BITS = TCPFlags.FIN | TCPFlags.RST


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

    A packet-in is handled when its controller's processing time ends
    (:attr:`SDNApp.packet_in_processing_s`, ``p``).  When ``p > 0``, the
    packet-ins sent in one instant skip the batch: one entry lands them
    at ``at = (send + latency_s) + p``, keyed ``(at, NORMAL, landing,
    landing, seq)`` with ``landing = send + latency_s`` and ``seq``
    drawn at the first send.  That is the key of the processing timer a
    handler started at the landing would arm, but for ``seq``.  The
    entry hands over one packet-in per pop, in send order, and pushes
    the rest back under the same key first: whatever a handler pushes
    ahead of that key (an urgent start) runs before the next handler,
    and no handler finds the instant quiet while another is due in it.
    A batch that would have held only packet-ins costs no entry.  Exact
    up to one boundary: an entry that fires exactly at ``at`` and was
    pushed at the landing instant before that timer would have been
    armed (ahead of the landing's pop, or by a message ahead of the
    packet-in in its batch) ran before the handler and now runs after
    it.
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
        # The packet-ins of the last instant that sent any while the
        # controller takes processing time, and that instant.
        self._packet_ins: list = []
        self._packet_ins_at: float | None = None

    def bind(self, switch: "OpenFlowSwitch", controller: "SDNApp") -> None:
        self.switch = switch
        self.controller = controller

    def send_to_controller(self, message: _t.Any) -> None:
        env = self.env
        now = env._now
        if type(message) is PacketIn and self.controller is not None:
            processing_s = self.controller.packet_in_processing_s
            if processing_s:
                if self._packet_ins_at == now:
                    self._packet_ins.append(message)
                    return
                self._packet_ins, self._packet_ins_at = [message], now
                landing = now + self.latency_s
                seq = next(env._seq)
                heappush(
                    env._queue,
                    (
                        landing + processing_s,
                        NORMAL,
                        landing,
                        landing,
                        seq,
                        self._land_packet_in,
                        (self._packet_ins, 0, landing, seq),
                    ),
                )
                return
        if self._up_at == now:
            self._up.append(message)
        else:
            self._up, self._up_at = [message], now
            env.call_later(self.latency_s, self._deliver_up, self._up)

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

    def _land_packet_in(
        self, batch: list, index: int, landing: float, seq: int
    ) -> None:
        """Hand over ``batch[index]``, the rest pushed back first (the
        channel was bound when the batch was sent)."""
        if batch is self._packet_ins:
            self._packet_ins_at = None
        env = self.env
        if index + 1 < len(batch):
            heappush(
                env._queue,
                (
                    env._now,
                    NORMAL,
                    landing,
                    landing,
                    seq,
                    self._land_packet_in,
                    (batch, index + 1, landing, seq),
                ),
            )
        self.controller.dispatch_switch_message(self.switch, batch[index])

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

    Connection tracking costs no kernel event: a :class:`Nat` keeps
    :attr:`connections`, and a lookup reads the mark of a non-SYN
    packet's connection while an entry matches marks.

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
        # Timed entries idle out through an expiry heap woken on the grid
        # the fixed-interval sweeper ticked on (FlowRemoved instants kept).
        self.table = FlowTable(
            Expiry(
                env,
                self._idle_deadline,
                self._idled_out,
                by_order,
                EXPIRY_SWEEP_INTERVAL_S,
            )
        )
        self.channel: ControlChannel | None = None
        self._ports: dict[int, NetworkInterface] = {}
        self._next_port = itertools.count(1)
        self._buffers: dict[int, tuple[Packet, int]] = {}
        self._next_buffer = itertools.count(1)
        #: Tracked connections: a SYN's 4-tuple, as it reached a
        #: :class:`Nat`, -> the endpoint it was readdressed to (its
        #: mark); in commit order.
        self.connections: dict[tuple, _t.Any] = {}
        #: Counters for tests and diagnostics.
        self.stats = {"rx": 0, "tx": 0, "miss": 0, "drop": 0, "punt": 0}

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

        Flow entries, tracked connections and held packet-in buffers are
        gone.  The controller replays ``on_datapath_join`` when the
        switch comes back, exactly as a real datapath re-handshakes.
        """
        self.table.clear()
        self.connections.clear()
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
        table = self.table
        mark = None
        if table.marked and packet.tcp.flags != TCPFlags.SYN:
            mark = self.connections.get(packet.match_values())
        entry = table.lookup(packet, mark)
        if entry is None:
            self.stats["miss"] += 1
            self._punt(packet, in_port)
            return
        entry.last_used = self.env._now
        entry.packet_count += 1
        self._apply_actions(entry.actions, packet, in_port)

    def _apply_actions(
        self, actions: _t.Sequence[Action], packet: Packet, in_port: int
    ) -> None:
        for action in actions:
            if isinstance(action, Output):
                self._output(packet, action.port)
            elif isinstance(action, Nat):  # a SYN takes the mark; FIN or RST ends it
                tcp = packet.tcp
                flags = tcp.flags
                if flags == TCPFlags.SYN:
                    self.connections[packet.match_values()] = action.endpoint
                elif flags & _END_BITS:
                    self.connections.pop(packet.match_values(), None)
                packet.ip_dst, tcp.dst_port = action.endpoint
                packet._mk = None
            elif isinstance(action, SetSrc):
                tcp = packet.tcp
                packet.ip_src, tcp.src_port = action.endpoint
                packet._mk = None
            elif isinstance(action, ToController):
                self._punt(packet, in_port)
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

    def _punt(self, packet: Packet, in_port: int) -> None:
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

    # -- idle expiry ----------------------------------------------------------------

    def _idle_deadline(self, entry: tuple) -> float | None:
        """``None`` once the entry left the table, ``now`` once it is idle
        by the test ``now - last_used >= idle_timeout`` (not by the sum
        ``last_used + idle_timeout``: they can differ in the last place),
        else its deadline, later than now."""
        rule = entry[2]
        if rule not in self.table:
            return None
        now = self.env._now
        if now - rule.last_used >= rule.idle_timeout:
            return now
        at = rule.last_used + rule.idle_timeout
        return at if at > now else nextafter(now, inf)

    def _idled_out(self, entries: list[FlowEntry]) -> None:
        """Remove what idled out and report it, in install order."""
        self.table._bulk_remove(entries)
        if self.channel is not None:
            for entry in entries:
                self.channel.send_to_controller(FlowRemoved(entry.match))
