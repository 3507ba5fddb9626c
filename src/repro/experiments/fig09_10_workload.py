"""Figures 9 and 10 — the request and deployment distributions."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.workload.bigflows import (
    BigFlowsParams,
    first_occurrences,
    generate_trace,
    requests_per_bucket,
)

#: The trace's seed, the same for both figures.
SEED = 42
#: Fig. 9's interval; fig. 10 counts per second.
BUCKET_S = 10.0


def run_fig09_request_distribution() -> ExperimentResult:
    """Fig. 9: 1708 requests to 42 services over five minutes."""
    params = BigFlowsParams()
    events = generate_trace(params, seed=SEED)
    buckets = requests_per_bucket(events, BUCKET_S, params.duration_s)
    rows = [
        [f"{int(i * BUCKET_S)}-{int((i + 1) * BUCKET_S)}s", count]
        for i, count in enumerate(buckets)
    ]
    counts = [0] * params.n_services
    for e in events:
        counts[e.service_index] += 1
    from repro.metrics import render_histogram

    return ExperimentResult(
        experiment_id="Fig. 9",
        title="Distribution of 1708 requests to 42 edge services over 5 min",
        headers=["interval", "requests"],
        rows=rows,
        paper_shape=(
            "1708 requests total, 42 services, every service >= 20 requests, "
            "heavy-tailed per-service counts."
        ),
        extras={
            "events": events,
            "per_service_counts": counts,
            "total": int(sum(buckets)),
            "chart": render_histogram(
                buckets, BUCKET_S, title="requests per 10 s:"
            ),
        },
    )


def run_fig10_deployment_distribution() -> ExperimentResult:
    """Fig. 10: 42 deployments over five minutes, bursty at the start.

    As in the paper, deployments are *derived* from the trace: a
    service is deployed by the SDN controller at its first request.
    """
    params = BigFlowsParams()
    events = generate_trace(params, seed=SEED)
    firsts = sorted(first_occurrences(events).values())
    horizon = int(params.duration_s)
    buckets = [0] * horizon
    for t in firsts:
        buckets[min(int(t), horizon - 1)] += 1
    from repro.metrics import render_histogram
    # Report only non-empty buckets (the figure's visible bars).
    rows = [
        [f"{i}s", count] for i, count in enumerate(buckets) if count > 0
    ]
    return ExperimentResult(
        experiment_id="Fig. 10",
        title="Distribution of 42 edge service deployments over 5 min",
        headers=["second", "deployments"],
        rows=rows,
        paper_shape=(
            "42 deployments total, with up to eight deployments per second "
            "in the beginning."
        ),
        extras={
            "first_request_times": firsts,
            "max_per_second": max(buckets),
            "total": sum(buckets),
            "chart": render_histogram(
                buckets[:30],
                1.0,
                title="deployments per second (first 30 s):",
            ),
        },
    )
