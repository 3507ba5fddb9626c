"""FlowMemory's scans, kept as the references of what replaced them.

``service_in_use`` is the scan ``FlowMemory.service_in_use`` ran, the
reference of the per-service count: whether any memorized flow, of any
client, is to ``service``.

:class:`ScannedMemory` is FlowMemory's expiry before the expiry heap
(``repro.sim.expiry.Expiry``): a release arms a wake at its deadline
when none is armed or the armed one is later, and each wake scans every
flow twice — once for what is due, in the memory's order, and once for
the earliest deadline left, where it re-arms — before ``on_expire``
runs for each expired flow.  A wake fires only if its instant is still
the armed one.
"""

from __future__ import annotations

import typing as _t

from repro.core.flow_memory import FlowMemory, MemorizedFlow
from repro.core.service_registry import EdgeService
from repro.sim import Environment


def service_in_use(memory: FlowMemory, service: EdgeService) -> bool:
    return any(f.service.name == service.name for f in memory._flows.values())


class ScannedMemory(FlowMemory):
    """A :class:`FlowMemory` whose clock is the two scans."""

    def __init__(
        self, env: Environment, idle_timeout_s: float, on_expire: _t.Callable[[MemorizedFlow], None]
    ) -> None:
        super().__init__(env, idle_timeout_s=idle_timeout_s, on_expire=on_expire)
        self._wake_at: float | None = None

    def hold(self, flow: MemorizedFlow) -> None:
        flow.deadline = None

    def release(self, flow: MemorizedFlow, since: float) -> None:
        flow.deadline = deadline = since + self.idle_timeout_s
        if self._wake_at is None or deadline < self._wake_at:
            self._wake_at = deadline
            self.env.call_at(deadline, self._scan, deadline)

    def forget(self, flow: MemorizedFlow) -> None:
        if self._flows.pop(flow.key, None) is not None:
            self._drop_use(flow.service.name)

    def forget_client(self, client_ip) -> list[MemorizedFlow]:
        stale = [flow for flow in self._flows.values() if flow.client_ip == client_ip]
        for flow in stale:
            self.forget(flow)
        return stale

    def _scan(self, at: float) -> None:
        if at != self._wake_at:
            return
        now = self.env.now
        expired = [f for f in self._flows.values() if f.deadline is not None and f.deadline <= now]
        for flow in expired:
            del self._flows[flow.key]
            self._drop_use(flow.service.name)
        pending = [flow.deadline for flow in self._flows.values() if flow.deadline is not None]
        self._wake_at = min(pending, default=None)
        if pending:
            self.env.call_at(self._wake_at, self._scan, self._wake_at)
        if self.on_expire is not None:
            for flow in expired:
                self.on_expire(flow)
