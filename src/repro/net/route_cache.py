"""Established-flow fast path: epoch-guarded route memoization.

The paper's premise is that only the *first* packet of a flow involves
the controller — once flow rules are installed, steady-state traffic is
pure data plane.  This module lets the simulator exploit that: the
first packet of a connection *records* its traversal (the ordered
(switch, matched entry, rewrites, egress interface) hops), and
subsequent packets of the same connection *replay* the recording — one
fused scheduled callback per hop instead of the full
receive → pipeline-event → lookup → action-dispatch → output chain.

Correctness rests on **epoch counters**.  Every :class:`FlowTable`
bumps ``epoch`` on any mutation (install, FlowMod delete, idle/hard
timeout sweep) and every :class:`Link` bumps ``epoch`` on any
bandwidth/latency/down change.  Each recorded hop stores the epochs it
was recorded under; at replay time equality proves nothing changed, so
the memoized lookup result is exactly what a fresh lookup would return.
Any mismatch invalidates the whole route and drops the packet back
onto the slow path — which, when the sending host next builds a packet
for that connection, re-records.

The replayed hop reproduces every observable side effect of the slow
path — switch rx/tx counters, flow-entry ``last_used``/``packet_count``
refresh (which feeds switch idle timeouts and, transitively,
FlowMemory's scale-down), per-link busy/serialization ordering, and
the exact float arithmetic of the delay chain — so replay is
byte-identical to the cold path (see DESIGN.md, fast-path section).
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.device import NetworkInterface
    from repro.net.link import Link, LinkEndpoint
    from repro.net.openflow.switch import Switch
    from repro.net.openflow.table import FlowEntry

#: Per-host route-cache size cap.  Connections normally remove their
#: route on close, so the cap only matters for pathological workloads
#: that abandon connections; clearing wholesale keeps the cache a
#: plain dict with zero bookkeeping on the hit path.
ROUTE_CACHE_MAX = 1024

#: Rewrite slots: recorded SetField actions are compiled to
#: (slot, value) pairs applied by ``Switch._fast_hop`` without
#: re-dispatching on action type.
SLOT_IP_SRC = 0
SLOT_IP_DST = 1
SLOT_TCP_SRC = 2
SLOT_TCP_DST = 3
SLOT_ETH_SRC = 4
SLOT_ETH_DST = 5

_FIELD_SLOTS = {
    "ip_src": SLOT_IP_SRC,
    "ip_dst": SLOT_IP_DST,
    "tcp_src": SLOT_TCP_SRC,
    "tcp_dst": SLOT_TCP_DST,
    "eth_src": SLOT_ETH_SRC,
    "eth_dst": SLOT_ETH_DST,
}


class RouteHop:
    """One memoized switch traversal.

    Stores everything ``Switch._fast_hop`` needs to reproduce the slow
    path's effects for this hop — the matched entry (for the
    ``last_used`` refresh), the compiled rewrites, the egress interface
    — plus the epoch guards: the flow table's epoch at lookup time and
    the ingress link's epoch at recording time.  ``src_ep`` is the
    *sending* endpoint of the ingress link (the one whose ``transmit``
    performs the fused dispatch).
    """

    __slots__ = (
        "switch",
        "in_port",
        "entry",
        "table_epoch",
        "src_ep",
        "in_epoch",
        "out_iface",
        "out_ep",
        "out_link",
        "out_epoch",
        "rewrites",
        "mk_after",
        "route",
        "next",
        "fire",
    )

    def __init__(
        self,
        switch: "Switch",
        in_port: int,
        entry: "FlowEntry",
        table_epoch: int,
        src_ep: "LinkEndpoint",
        in_epoch: int,
        out_iface: "NetworkInterface",
        rewrites: tuple,
        mk_after: tuple,
    ) -> None:
        self.switch = switch
        self.in_port = in_port
        self.entry = entry
        self.table_epoch = table_epoch
        self.src_ep = src_ep
        self.in_epoch = in_epoch
        self.out_iface = out_iface
        self.out_ep = out_iface.endpoint
        self.out_link = self.out_ep.link if self.out_ep is not None else None
        self.out_epoch = self.out_link.epoch if self.out_link is not None else 0
        self.rewrites = rewrites
        self.mk_after = mk_after
        self.route: "Route | None" = None  # back-ref, set by Route
        self.next: "RouteHop | None" = None
        #: Pre-bound replay callback so the fused heap entry carries a
        #: bound method, not a per-dispatch closure.
        self.fire = switch._fast_hop


class Route:
    """A complete memoized traversal for one connection direction.

    ``mk`` is the match-key tuple the route was recorded for; the host
    re-checks it on every send (a handful of identity comparisons)
    because NAT-style rewrites mean the same connection id can appear
    with different header tuples during setup.
    """

    __slots__ = ("mk", "first", "owner", "key", "valid")

    def __init__(
        self,
        mk: tuple,
        hops: list[RouteHop],
        owner: dict,
        key: int,
    ) -> None:
        self.mk = mk
        self.first = hops[0]
        self.owner = owner
        self.key = key
        self.valid = True
        for i, hop in enumerate(hops):
            hop.route = self
            if i + 1 < len(hops):
                hop.next = hops[i + 1]

    def invalidate(self) -> None:
        """Drop this route from its host's cache (idempotent)."""
        if not self.valid:
            return
        self.valid = False
        if self.owner.get(self.key) is self:
            del self.owner[self.key]
        # Break the route → hop → route reference cycle so dead routes
        # are reclaimed by plain refcounting the moment the last
        # in-flight packet drops its hop, instead of lingering until a
        # cyclic-gc pass (Environment.run raises the gen-0 threshold,
        # so such passes are rare by design).  ``first`` is only read
        # when attaching a replay on send, and sends only see routes
        # still present in the cache dict.
        self.first = None


class Recording:
    """In-flight traversal recording carried by a slow-path packet.

    Created by the sending host on a cache miss, appended to by each
    switch the packet traverses, and finalized (installed into the
    host's cache) by the *receiving* host.  Any hop the fast path
    cannot replay exactly — a table miss (controller punt), a non-
    SetField/Output action program, an output onto an unattached
    interface — aborts the recording by clearing ``packet._fp_rec``.
    """

    __slots__ = ("owner", "key", "mk", "hops")

    def __init__(self, owner: dict, key: int, mk: tuple) -> None:
        self.owner = owner
        self.key = key
        self.mk = mk
        self.hops: list[RouteHop] = []

    def finalize(self) -> None:
        """Install the recorded route into the originating host's cache."""
        if not self.hops:
            return
        owner = self.owner
        if len(owner) >= ROUTE_CACHE_MAX:
            for route in owner.values():
                route.valid = False
                route.first = None  # break the cycle (see invalidate)
            owner.clear()
        else:
            old = owner.get(self.key)
            if old is not None:
                # Re-recording replaced a live route (e.g. the ACK and
                # the request payload of one connection both recorded):
                # flag it dead and break its cycle too.
                old.valid = False
                old.first = None
        owner[self.key] = Route(self.mk, self.hops, owner, self.key)


def compile_rewrites(actions: tuple) -> tuple | None:
    """Compile an action program to fast-path form, or ``None``.

    Returns ``(rewrites, out_port)`` when the program is a sequence of
    SetField actions followed by exactly one trailing Output — the only
    shape the replayer supports — and ``None`` otherwise (ToController,
    Drop, multi-output, or Output not in final position all disqualify
    the program).
    """
    from repro.net.openflow.actions import Output, SetField

    if not actions or type(actions[-1]) is not Output:
        return None
    rewrites = []
    for action in actions[:-1]:
        if type(action) is not SetField:
            return None
        rewrites.append((_FIELD_SLOTS[action.field], action.value))
    return tuple(rewrites), actions[-1].port
