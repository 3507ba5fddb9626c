"""Network device and interface abstractions.

A :class:`NetDevice` (host or switch) owns one or more
:class:`NetworkInterface` objects; each interface attaches to exactly
one :class:`~repro.net.link.Link` endpoint.  Links call
:meth:`NetDevice.receive` when a packet arrives.
"""

from __future__ import annotations

import typing as _t

from repro.net.addressing import IPv4Address

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.link import LinkEndpoint
    from repro.net.packet import Packet
    from repro.sim import Environment


class NetworkInterface:
    """One attachment point of a device to a link."""

    def __init__(
        self,
        device: "NetDevice",
        ip: IPv4Address | None = None,
        name: str = "eth0",
    ) -> None:
        self.device = device
        self.ip = ip
        self.name = name
        self.endpoint: "LinkEndpoint | None" = None
        #: OpenFlow port number, stamped by ``Switch.add_port``; stays
        #: ``None`` on host interfaces.  Kept on the interface so the
        #: switch receive path reads an attribute instead of doing a
        #: dict lookup per packet.
        self.port_no: int | None = None

    @property
    def attached(self) -> bool:
        return self.endpoint is not None

    def send(self, packet: "Packet") -> None:
        """Queue ``packet`` for transmission on the attached link."""
        if self.endpoint is None:
            raise RuntimeError(f"{self} is not attached to a link")
        self.endpoint.transmit(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Interface {self.device.name}:{self.name} {self.ip}>"


class NetDevice:
    """Base class for hosts and switches."""

    def __init__(self, env: "Environment", name: str) -> None:
        self.env = env
        self.name = name
        self.interfaces: list[NetworkInterface] = []

    def add_interface(
        self,
        ip: IPv4Address | None = None,
        name: str | None = None,
    ) -> NetworkInterface:
        iface = NetworkInterface(self, ip, name=name or f"eth{len(self.interfaces)}")
        self.interfaces.append(iface)
        return iface

    def receive(self, packet: "Packet", iface: NetworkInterface) -> None:
        """Handle an arriving packet.  Subclasses override."""
        raise NotImplementedError

    def fused_ingress(self) -> "_t.Callable[[Packet, int, float], None] | None":
        """How a :class:`~repro.net.link.Link` built onto this device
        delivers to it, asked once per link end.

        ``None`` (the default): the link calls :meth:`receive` at the
        packet's arrival instant.  A device that acts on a packet a
        fixed ``lookup_delay_s`` after it arrives (a switch) returns the
        callable that does so; the link then schedules
        ``ingress(packet, port_no, arrival)`` at ``arrival +
        lookup_delay_s`` in one heap entry, and the ingress — running
        after the arrival instant — applies the link's drop rule for
        ``arrival`` itself.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
