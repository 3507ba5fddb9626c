"""Controller application base class and datapath handle."""

from __future__ import annotations

import typing as _t

from repro.net.openflow.actions import Action
from repro.net.openflow.match import FlowMatch
from repro.net.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowRemoved,
    PacketIn,
    PacketOut,
)
from repro.net.openflow.switch import ControlChannel, OpenFlowSwitch
from repro.sim import Environment, Event


class Datapath:
    """Controller-side handle for one switch."""

    def __init__(self, app: "SDNApp", switch: OpenFlowSwitch, channel: ControlChannel) -> None:
        self.app = app
        self.switch = switch
        self.channel = channel
        self.id = switch.datapath_id

    # -- message helpers ---------------------------------------------------

    def add_flow(
        self,
        match: FlowMatch,
        actions: _t.Sequence[Action],
        priority: int = 1,
        idle_timeout: float = 0.0,
        cookie: _t.Any = None,
        buffer_id: int | None = None,
    ) -> None:
        """Install a flow entry (optionally releasing a buffered packet).
        With an ``idle_timeout`` it idles out, and the switch reports that
        (:meth:`SDNApp.on_flow_removed`); a delete reports nothing."""
        self.channel.send_to_switch(
            FlowMod(
                command="add",
                match=match,
                actions=list(actions),
                priority=priority,
                idle_timeout=idle_timeout,
                cookie=cookie,
                buffer_id=buffer_id,
            )
        )

    def delete_flows(self, cookie: _t.Any) -> None:
        """Delete every entry carrying ``cookie``."""
        self.channel.send_to_switch(FlowMod(command="delete", cookie=cookie))

    def packet_out(self, actions: _t.Sequence[Action], buffer_id: int) -> None:
        """Release the packet held under ``buffer_id`` through ``actions``."""
        self.channel.send_to_switch(
            PacketOut(actions=list(actions), buffer_id=buffer_id)
        )

    def barrier(self) -> Event:
        """Send a barrier; the returned event fires on the reply."""
        request = BarrierRequest()
        event = self.app.env.event()
        self.app._barriers[(self.id, request.xid)] = event
        self.channel.send_to_switch(request)
        return event

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Datapath {self.id} ({self.switch.name})>"


class SDNApp:
    """Base class for controller applications.

    Subclasses override the ``on_*`` handlers.  Handlers run inline
    (zero simulated duration) — model controller processing cost by
    spawning processes from the handler, as the edge controller does.
    """

    def __init__(self, env: Environment, name: str = "sdn-app") -> None:
        self.env = env
        self.name = name
        self.datapaths: dict[int, Datapath] = {}
        self._barriers: dict[tuple[int, int], Event] = {}

    def attach(
        self, switch: OpenFlowSwitch, latency_s: float = 200e-6
    ) -> Datapath:
        """Connect a switch to this controller via a new channel.

        A switch belongs to exactly one controller: re-attaching a
        switch that is already bound to a *different* app is rejected
        instead of silently rebinding (the old controller would keep a
        stale datapath handle).  In the federated control plane every
        site controller owns its gNB switches exclusively.
        """
        existing = getattr(switch, "channel", None)
        bound_to = getattr(existing, "controller", None)
        if bound_to is not None and bound_to is not self:
            raise ValueError(
                f"switch {switch.name!r} is already bound to controller "
                f"{bound_to.name!r}; detach it first"
            )
        channel = ControlChannel(self.env, latency_s=latency_s)
        channel.bind(switch, self)
        switch.channel = channel
        datapath = Datapath(self, switch, channel)
        self.datapaths[switch.datapath_id] = datapath
        self.on_datapath_join(datapath)
        return datapath

    def detach(self, switch: OpenFlowSwitch) -> None:
        """Disconnect a switch, freeing it to attach elsewhere."""
        datapath = self.datapaths.pop(switch.datapath_id, None)
        if datapath is None:
            raise ValueError(
                f"switch {switch.name!r} is not attached to {self.name!r}"
            )
        switch.channel = None

    # -- dispatch ------------------------------------------------------------

    def dispatch_switch_message(
        self, switch: OpenFlowSwitch, message: _t.Any
    ) -> None:
        datapath = self.datapaths.get(switch.datapath_id)
        if datapath is None:  # pragma: no cover - defensive
            return
        if isinstance(message, PacketIn):
            self.on_packet_in(datapath, message)
        elif isinstance(message, FlowRemoved):
            self.on_flow_removed(datapath, message)
        elif isinstance(message, BarrierReply):
            event = self._barriers.pop((datapath.id, message.xid), None)
            if event is not None and not event.triggered:
                event.succeed(message)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown switch message {message!r}")

    # -- handler hooks -------------------------------------------------------------

    def on_datapath_join(self, datapath: Datapath) -> None:
        """Called when a switch attaches.  Default: no-op."""

    def on_packet_in(self, datapath: Datapath, message: PacketIn) -> None:
        """Called on packet-in.  Default: drop (leave buffered)."""

    def on_flow_removed(self, datapath: Datapath, message: FlowRemoved) -> None:
        """Called when a flow entry idles out.  Default: no-op."""
