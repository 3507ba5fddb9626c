"""Extension experiment D1 — the distributed control plane.

The paper evaluates one EGS with one controller.  D1 scales the
control plane out: *n* radio sites, each with its own
:class:`~repro.core.federation.SiteController`, coordinating through
replicated shared state with explicit propagation latency
(:mod:`repro.core.federation`).

Two sweeps:

* **site sweep** (fixed propagation delay): how first-packet latency,
  cross-site serving, and cross-site handover behave as the federation
  grows from 1 to 8 sites;
* **delay sweep** (fixed site count): what eventual consistency costs
  — within the propagation window every site that sees a cold request
  deploys its own copy (duplicate deployments), and redirects taken on
  a view the hub has already superseded are counted as stale.

Both sweeps are pure discrete-event simulations driven from seeded
state, so results are byte-identical across runs.
"""

from __future__ import annotations

import typing as _t

from repro.experiments.base import ExperimentResult
from repro.services.catalog import ASM, NGINX
from repro.testbed import FederatedTestbed, FederationConfig

#: The propagation delay of the site sweep.
FIXED_DELAY_S = 0.025


def _drain(tb: FederatedTestbed, seconds: float = 30.0) -> None:
    tb.env.run(until=tb.env.now + seconds)


def federation_cell(
    n_sites: int,
    propagation_delay_s: float,
) -> dict[str, _t.Any]:
    """Measure one federation configuration; returns raw metrics."""
    tb = FederatedTestbed(
        FederationConfig(
            n_sites=n_sites,
            clients_per_site=2,
            propagation_delay_s=propagation_delay_s,
        )
    )
    svc = tb.register_template(NGINX)
    origin, peer = tb.sites[0], tb.sites[-1]

    # Cold first packet at the origin site: the low-latency policy
    # serves it from the cloud while the local edge deploys.
    cold = tb.run_request(origin.clients[0], svc, NGINX.request)
    _drain(tb)  # background deployment completes
    tb.settle_replication()
    warm = tb.run_request(origin.clients[0], svc, NGINX.request)

    remote_s = handover_s = None
    if n_sites > 1:
        # Peer site's first packet rides the replicated instance view:
        # served cross-site instead of from the 15 ms WAN.
        remote_s = tb.run_request(peer.clients[0], svc, NGINX.request).time_total
        # Cross-site handover: a warm client moves to the peer site.
        mover = origin.clients[1]
        tb.run_request(mover, svc, NGINX.request)
        tb.move_client(mover, peer)
        handover_s = tb.run_request(mover, svc, NGINX.request).time_total
        _drain(tb)  # peer's background deployment settles

    # Stale-window probe: a second service goes cold-to-hot at EVERY
    # site at once.  No instance view has propagated yet, so each site
    # deploys its own copy — the duplication eventual consistency buys.
    svc2 = tb.register_template(ASM)
    outcomes: list[_t.Any] = []

    def one(client):
        result = yield from tb.http_request(client, svc2, ASM.request)
        outcomes.append(result)

    for site in tb.sites:
        tb.env.process(one(site.clients[0]))
    _drain(tb, 90.0)
    duplicates = sum(
        1 for site in tb.sites if site.cluster.is_running(svc2.plan)
    )

    cross_site = sum(
        tb.recorder.counter(f"cross_site_redirects/{site.name}")
        for site in tb.sites
    )
    stale = sum(
        tb.recorder.counter(f"stale_redirects/{site.name}") for site in tb.sites
    )
    return {
        "n_sites": n_sites,
        "propagation_delay_s": propagation_delay_s,
        "cold_s": cold.time_total,
        "warm_s": warm.time_total,
        "remote_first_s": remote_s,
        "handover_s": handover_s,
        "duplicate_deployments": duplicates,
        "cross_site_redirects": cross_site,
        "stale_redirects": stale,
        "concurrent_ok": sum(1 for r in outcomes if r.response.status == 200),
        "concurrent_total": len(tb.sites),
    }


def run_extension_d1_federation(
    site_counts: _t.Sequence[int] = (1, 2, 4, 8),
    delays: _t.Sequence[float] = (0.005, 0.025, 0.1),
    fixed_sites: int = 4,
) -> ExperimentResult:
    """Sweep federation size and state-propagation delay."""
    rows: list[list[_t.Any]] = []

    def fmt(value: float | None) -> _t.Any:
        return "-" if value is None else round(value, 4)

    for n_sites in site_counts:
        cell = federation_cell(n_sites, FIXED_DELAY_S)
        rows.append(
            [
                f"sites={n_sites}",
                fmt(cell["cold_s"]),
                fmt(cell["warm_s"]),
                fmt(cell["remote_first_s"]),
                fmt(cell["handover_s"]),
                cell["duplicate_deployments"],
                cell["cross_site_redirects"],
                cell["stale_redirects"],
                f"{cell['concurrent_ok']}/{cell['concurrent_total']}",
            ]
        )
    for delay in delays:
        cell = federation_cell(fixed_sites, delay)
        rows.append(
            [
                f"delay={delay * 1000:g}ms",
                fmt(cell["cold_s"]),
                fmt(cell["warm_s"]),
                fmt(cell["remote_first_s"]),
                fmt(cell["handover_s"]),
                cell["duplicate_deployments"],
                cell["cross_site_redirects"],
                cell["stale_redirects"],
                f"{cell['concurrent_ok']}/{cell['concurrent_total']}",
            ]
        )

    return ExperimentResult(
        experiment_id="Extension D1",
        title="Distributed control plane: per-site controllers over shared state",
        headers=[
            "configuration",
            "cold first-packet (s)",
            "warm local (s)",
            "remote first-packet (s)",
            "cross-site handover (s)",
            "duplicate deployments",
            "cross-site redirects",
            "stale redirects",
            "concurrent ok",
        ],
        rows=rows,
        paper_shape=(
            "Remote first packets ride a peer site's instance (~trunk "
            "RTT) instead of the WAN; handover stays in the warm band; "
            "every site that sees a cold request inside the propagation "
            "window deploys its own copy, so duplicate deployments "
            "track the site count at every tested delay — simultaneous "
            "cold starts land inside even a 5 ms window; all requests "
            "succeed at every size."
        ),
        extras={"site_counts": list(site_counts), "delays": list(delays)},
    )
