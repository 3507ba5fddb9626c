"""The cloud: one host answering on every registered service address.

In the transparent-access model (fig. 1) every edge service has a
*perceived cloud* address; the real cloud hosts all of them.  The
:class:`CloudHost` stands in for that cloud: it accepts connections to
any (service IP, port) pair it serves and answers *from* that address,
so un-redirected traffic (FAST empty, or unregistered services) still
works end to end.
"""

from __future__ import annotations

import typing as _t

from repro.net.addressing import IPv4Address
from repro.net.host import Host, Listener

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Application


class CloudHost(Host):
    """A host demultiplexing listeners by (destination IP, port)."""

    def __init__(self, env, name, ip) -> None:
        super().__init__(env, name, ip)
        self._services: dict[tuple[IPv4Address, int], Listener] = {}

    def open_service(
        self, ip: IPv4Address, port: int, app: "Application"
    ) -> None:
        """Serve ``app`` at the cloud address ``ip:port``."""
        key = (ip, port)
        if key in self._services:
            raise ValueError(f"{self.name}: service {ip}:{port} already open")
        self._services[key] = Listener(port, app)

    def _listener_for(self, ip: IPv4Address, port: int) -> Listener | None:
        return self._services.get((ip, port))
