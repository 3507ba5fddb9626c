"""Extension experiment — the hierarchical edge continuum (§IV-A).

"Edge clusters are usually organized hierarchically.  Clusters in
close vicinity of the users tend to be smaller, with cluster size and
performance growing when further away (i.e., located closer to the
'cloud')."

We build that hierarchy — a small near edge (capacity-limited), a
larger mid edge on the WAN path, and the cloud — replay the
bigFlows-like trace with the no-waiting scheduler, and report where
requests land and what they cost.  The near edge fills up with the hot
services; the tail overflows to the mid tier; nothing is lost to the
cloud permanently because BEST deployments keep draining inward.
"""

from __future__ import annotations

from repro.core import LowLatencyScheduler
from repro.experiments.base import ExperimentResult
from repro.metrics import summarize
from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, TestbedConfig
from repro.workload import BigFlowsParams, TraceDriver, generate_trace

#: The near edge's container capacity; the mid tier is unbounded.
NEAR_CAPACITY = 8
#: The trace's seed.
SEED = 42


def run_extension_hierarchy() -> ExperimentResult:
    """Replay the trace over a two-tier edge hierarchy plus cloud."""
    params = BigFlowsParams()
    tb = C3Testbed(
        TestbedConfig(cluster_types=("docker",)),
        scheduler=LowLatencyScheduler(),
    )
    near = tb.docker_cluster
    assert near is not None
    near.capacity = NEAR_CAPACITY
    mid = tb.add_far_edge("mid-docker", distance=1, latency_s=0.004)

    services = [tb.register_template(NGINX) for _ in range(params.n_services)]
    for service in services:
        tb.prepare_created(near, service)
        tb.prepare_created(mid, service)
    tb.settle(1.0)

    events = generate_trace(params, seed=SEED)
    driver = TraceDriver(
        tb.env,
        tb.clients,
        services,
        requests={s.name: NGINX.request for s in services},
        recorder=tb.recorder,
    )
    summary = driver.run(events)
    tb.env.run(until=tb.env.now + 20.0)  # drain background deployments

    near_running = sum(1 for s in services if near.is_running(s.plan))
    mid_running = sum(1 for s in services if mid.is_running(s.plan))
    flows = tb.controller.flow_memory
    placement = {"docker": 0, "mid-docker": 0, "cloud": 0}
    for service in services:
        for flow in flows.flows_for_service(service):
            placement[flow.cluster_name] = placement.get(flow.cluster_name, 0) + 1

    stats = summarize(summary.time_totals)
    rows = [
        ["requests ok / total", f"{summary.n_ok} / {summary.n_requests}"],
        ["near-edge capacity", NEAR_CAPACITY],
        ["services running near (small edge)", near_running],
        ["services running mid (larger edge)", mid_running],
        ["memorized flows -> near", placement["docker"]],
        ["memorized flows -> mid", placement["mid-docker"]],
        ["memorized flows -> cloud", placement["cloud"]],
        ["median time_total (s)", round(stats.median, 4)],
        ["p95 time_total (s)", round(stats.p95, 4)],
    ]
    return ExperimentResult(
        experiment_id="Extension H1",
        title="Hierarchical edge continuum under the bigFlows-like trace",
        headers=["metric", "value"],
        rows=rows,
        paper_shape=(
            "The small near edge saturates at its capacity; the overflow "
            "runs at the larger mid tier; every request still succeeds "
            "and the median stays in the warm-request band."
        ),
        extras={
            "near_running": near_running,
            "mid_running": mid_running,
            "placement": placement,
            "summary": summary,
        },
    )
