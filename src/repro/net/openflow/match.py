"""Flow match expressions.

A :class:`FlowMatch` is a conjunction of field equalities; ``None``
means wildcard.  The transparent-edge controller matches on the
(ip_src, ip_dst, tcp_dst) combination: destination identifies the
registered service, source identifies the client.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.net.addressing import IPv4Address


@dataclasses.dataclass(frozen=True)
class FlowMatch:
    """Match on any subset of the IPv4/TCP 4-tuple and the mark the switch
    holds for the packet's connection (none for a SYN: ``Nat``)."""

    ip_src: IPv4Address | None = None
    ip_dst: IPv4Address | None = None
    tcp_src: int | None = None
    tcp_dst: int | None = None
    ct_mark: _t.Any = None

    def __str__(self) -> str:
        parts = []
        for name in ("ip_src", "ip_dst", "tcp_src", "tcp_dst", "ct_mark"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return "match(" + ", ".join(parts or ["*"]) + ")"
