"""The FlowMemory component (§V).

The controller memorizes every redirection flow it installs.  This
lets switch idle timeouts stay *low* (small flow tables): when a
memorized client re-contacts a service after its switch entry expired,
the controller reinstalls the flow from memory without consulting the
scheduler.  Memorized flows carry their own (longer) idle timeout;
their expiry both prunes stale state and signals that a service
instance may have gone idle — the trigger for automatic scale-down.

A flow is *held* while a redirect of it is installed, and *released* —
its clock started — when the switch reports the redirect idle.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.cluster.base import ServiceEndpoint
from repro.core.service_registry import EdgeService
from repro.core.state import ControlPlaneState
from repro.net.addressing import IPv4Address
from repro.sim import Environment
from repro.sim.expiry import Expiry, by_order


@dataclasses.dataclass
class MemorizedFlow:
    """One remembered (client, service) → instance mapping."""

    client_ip: IPv4Address
    service: EdgeService
    #: Name of the cluster serving the flow ("cloud" for fallback).
    cluster_name: str
    endpoint: ServiceEndpoint
    created_at: float
    #: Set when the flow is a graceful-degradation fallback: the name
    #: of the preferred cluster whose deployment failed.  Degraded
    #: flows are re-resolved — not just replayed from memory — once the
    #: preferred cluster's breaker stops blocking.
    degraded_from: str | None = None
    #: When the flow expires; ``None`` while a redirect holds it.
    deadline: float | None = None
    #: The ``seq`` of the flow's entry on its memory's expiry heap
    #: (``None``: none is live), and its place in the memory's order.
    _seq: int | None = dataclasses.field(default=None, repr=False, compare=False)
    _order: int = dataclasses.field(default=0, repr=False, compare=False)

    @property
    def key(self) -> tuple[IPv4Address, str]:
        return (self.client_ip, self.service.name)

    @property
    def degraded(self) -> bool:
        return self.degraded_from is not None


class FlowMemory:
    """All memorized flows; one wake, at the earliest deadline, expires them."""

    def __init__(
        self,
        env: Environment,
        idle_timeout_s: float = 60.0,
        on_expire: _t.Callable[[MemorizedFlow], None] | None = None,
        state: ControlPlaneState | None = None,
    ) -> None:
        if idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        self.env = env
        self.idle_timeout_s = float(idle_timeout_s)
        self.on_expire = on_expire
        # Memorized flows are *site-local* control-plane state: the
        # state object owns the mapping, we bind it once (it is stable
        # for the state's lifetime) and use it directly on the hot path.
        self.state = state if state is not None else ControlPlaneState()
        self._flows = self.state.flows
        #: Service name -> how many flows of it are memorized; written
        #: wherever ``_flows`` is, and a name leaves at 0.
        self._in_use: dict[str, int] = {}
        self._expiry = Expiry(env, self._deadline, self._expire, by_order)
        self._next_order = itertools.count()

    # -- core operations ---------------------------------------------------

    def remember(
        self,
        client_ip: IPv4Address,
        service: EdgeService,
        cluster_name: str,
        endpoint: ServiceEndpoint,
        degraded_from: str | None = None,
    ) -> MemorizedFlow:
        """Memorize (or refresh) the flow for (client, service); its clock
        is the controller's to start (:meth:`release`)."""
        flow = self._flows.get((client_ip, service.name))
        if flow is None:
            flow = MemorizedFlow(
                client_ip=client_ip,
                service=service,
                cluster_name=cluster_name,
                endpoint=endpoint,
                created_at=self.env.now,
                degraded_from=degraded_from,
                _order=next(self._next_order),
            )
            self._flows[flow.key] = flow
            name = service.name
            self._in_use[name] = self._in_use.get(name, 0) + 1
        else:
            flow.cluster_name = cluster_name
            flow.endpoint = endpoint
            flow.degraded_from = degraded_from
        return flow

    def lookup(
        self, client_ip: IPv4Address, service: EdgeService
    ) -> MemorizedFlow | None:
        return self._flows.get((client_ip, service.name))

    def hold(self, flow: MemorizedFlow) -> None:
        """A redirect of the flow is installed: it cannot expire."""
        flow.deadline = None
        self._unclock(flow)

    def release(self, flow: MemorizedFlow, since: float) -> None:
        """No redirect of the flow is installed: it expires ``idle_timeout_s`` after ``since``."""
        self._unclock(flow)
        flow.deadline = since + self.idle_timeout_s
        flow._seq = self._expiry.push(flow.deadline, flow)

    def forget(self, flow: MemorizedFlow) -> None:
        if self._flows.pop(flow.key, None) is not None:
            self._drop_use(flow.service.name)
            self._unclock(flow)

    def forget_client(self, client_ip: IPv4Address) -> list[MemorizedFlow]:
        """Drop every memorized flow of one client (mobility
        invalidation: the client moved switches, so its memorized
        resolutions are stale) and return them.  Deliberately does
        **not** fire ``on_expire`` — the instances are not idle, the
        client is about to re-resolve and may land on them again."""
        stale = [
            flow for flow in self._flows.values() if flow.client_ip == client_ip
        ]
        for flow in stale:
            self.forget(flow)
        return stale

    # -- service-level queries -------------------------------------------------

    def flows_for_service(self, service: EdgeService) -> list[MemorizedFlow]:
        return [f for f in self._flows.values() if f.service.name == service.name]

    def service_in_use(self, service: EdgeService) -> bool:
        """Does any client still have a memorized flow to this service?"""
        return service.name in self._in_use

    def _drop_use(self, name: str) -> None:
        left = self._in_use[name] - 1
        if left:
            self._in_use[name] = left
        else:
            del self._in_use[name]

    def mark_service_degraded(
        self, service: EdgeService, preferred_cluster: str
    ) -> int:
        """Tag every flow of ``service`` as degraded from
        ``preferred_cluster`` (its deployment failed); such flows are
        re-resolved instead of replayed once the cluster recovers.
        Returns the number of flows tagged."""
        tagged = 0
        for flow in self._flows.values():
            if (
                flow.service.name == service.name
                and flow.cluster_name != preferred_cluster
            ):
                flow.degraded_from = preferred_cluster
                tagged += 1
        return tagged

    def __len__(self) -> int:
        return len(self._flows)

    # -- expiry ---------------------------------------------------------------------

    def _unclock(self, flow: MemorizedFlow) -> None:
        """The flow's entry on the expiry heap, if any, goes stale."""
        if flow._seq is not None:
            flow._seq = None
            self._expiry.discard(1)

    def _deadline(self, entry: tuple) -> float | None:
        """A flow is due at the deadline of its live entry."""
        return entry[0] if entry[2]._seq == entry[1] else None

    def _expire(self, expired: list[MemorizedFlow]) -> None:
        for flow in expired:
            flow._seq = None  # its entry left the heap
            self.forget(flow)
        # Callbacks run after the removal pass so service_in_use
        # reflects the post-expiry state.
        if self.on_expire is not None:
            for flow in expired:
                self.on_expire(flow)
