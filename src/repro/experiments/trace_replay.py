"""Full trace replay: the paper's actual measurement methodology.

"We use a single service type per test run.  Every time a service
instance is not running yet, it will be deployed by the SDN
controller" (§VI).  This experiment registers 42 services of one
catalog type, replays the bigFlows-like trace through the 20 clients,
and reports both the request outcome and the resulting deployment
distribution (fig. 10 as *measured*, not merely derived)."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.metrics import summarize
from repro.services.catalog import NGINX, ServiceTemplate
from repro.testbed import C3Testbed, TestbedConfig
from repro.workload import BigFlowsParams, TraceDriver, generate_trace


def run_trace_replay(
    template: ServiceTemplate = NGINX,
    cluster_type: str = "docker",
    params: BigFlowsParams | None = None,
    seed: int = 42,
) -> ExperimentResult:
    """Replay the trace against one service type on one cluster, every
    instance pre-created."""
    params = params or BigFlowsParams()
    tb = C3Testbed(TestbedConfig(cluster_types=(cluster_type,)))
    cluster = tb.docker_cluster if cluster_type == "docker" else tb.k8s_cluster
    assert cluster is not None

    services = [
        tb.register_template(template) for _ in range(params.n_services)
    ]
    for service in services:
        tb.prepare_created(cluster, service)
    tb.settle(1.0)

    events = generate_trace(params, seed=seed)
    driver = TraceDriver(
        tb.env,
        tb.clients,
        services,
        requests={s.name: template.request for s in services},
        recorder=tb.recorder,
    )
    summary = driver.run(events)

    deployments = tb.recorder.series("deployments")
    base_time = deployments.times[0] if len(deployments) else 0.0
    per_second: dict[int, int] = {}
    for t in deployments.times:
        bucket = int(t - base_time)
        per_second[bucket] = per_second.get(bucket, 0) + 1

    stats = summarize(summary.time_totals)
    first_requests = [
        s.time_total
        for s in summary.samples
        if s.ok and s.time_total > stats.median * 5
    ]
    rows = [
        ["requests issued", summary.n_requests],
        ["requests ok", summary.n_ok],
        ["request errors", summary.n_errors],
        ["services deployed", len(deployments)],
        ["max deployments in one second", max(per_second.values() or [0])],
        ["median time_total (s)", round(stats.median, 4)],
        ["p95 time_total (s)", round(stats.p95, 4)],
        ["max time_total (s)", round(stats.maximum, 4)],
        ["cold (deployment-bound) requests", len(first_requests)],
    ]
    return ExperimentResult(
        experiment_id="Trace replay",
        title=(
            f"bigFlows-like trace: {params.n_requests} requests, "
            f"{params.n_services} x {template.title} on {cluster_type}"
        ),
        headers=["metric", "value"],
        rows=rows,
        paper_shape=(
            "Every service deploys exactly once (on its first request); "
            "deployments burst early; warm requests dominate the median."
        ),
        extras={
            "summary": summary,
            "deployments_per_second": per_second,
            "time_total_summary": stats,
        },
    )
