"""Shared helper: one seeded bigFlows replay on pre-created services."""

from __future__ import annotations

from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, FederatedTestbed, FederationConfig, TestbedConfig
from repro.workload import BigFlowsParams, TraceDriver, generate_trace


def replay(
    n_sites: int = 0,
    ops: bool = False,
    params: BigFlowsParams | None = None,
    seed: int = 42,
):
    """Replay the seeded trace against pre-created Nginx services on C³
    (``n_sites=0``) or on an ``n_sites`` federation with the services at
    site 0 and the clients spread over all sites; ``ops`` turns the
    flow-stats collector on.  Returns the testbed and the driver's
    summary."""
    params = params or BigFlowsParams()
    period = 1.0 if ops else None
    if n_sites:
        tb = FederatedTestbed(
            FederationConfig(n_sites=n_sites, clients_per_site=4, flow_stats_period_s=period)
        )
        services = [
            tb.register_template(NGINX, wait_replication=False)
            for _ in range(params.n_services)
        ]
        tb.settle_replication()
        cluster = tb.sites[0].cluster
        clients = [client for site in tb.sites for client in site.clients]
    else:
        tb = C3Testbed(TestbedConfig(cluster_types=("docker",), flow_stats_period_s=period))
        services = [tb.register_template(NGINX) for _ in range(params.n_services)]
        cluster, clients = tb.docker_cluster, tb.clients
    for service in services:
        tb.prepare_created(cluster, service)
    tb.settle(1.0)
    requests = {service.name: NGINX.request for service in services}
    driver = TraceDriver(tb.env, clients, services, requests=requests, recorder=tb.recorder)
    return tb, driver.run(generate_trace(params, seed=seed))


def replay_time_totals(
    n_sites: int = 0,
    ops: bool = False,
    params: BigFlowsParams | None = None,
    seed: int = 42,
) -> list[float]:
    """Every request's ``time_total`` of :func:`replay`, in sample order.

    Compare two lists with ``==``: that is byte-identity at full float
    precision.
    """
    _, summary = replay(n_sites, ops, params, seed)
    return [sample.time_total for sample in summary.samples]
