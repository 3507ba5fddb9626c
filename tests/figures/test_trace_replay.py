"""Full-trace replay: the §VI methodology end to end."""

from repro.experiments import run_trace_replay
from repro.services.catalog import NGINX

from tests.figures.conftest import run_experiment


def test_trace_replay_nginx_docker():
    result = run_experiment(run_trace_replay, template=NGINX, cluster_type="docker")
    metrics = {row[0]: row[1] for row in result.rows}
    assert metrics["requests issued"] == 1708
    assert metrics["request errors"] == 0
    # Every one of the 42 services deployed exactly once.
    assert metrics["services deployed"] == 42
    # Early burst of deployments (fig. 10 measured, not just derived).
    assert metrics["max deployments in one second"] >= 3
    # Warm requests dominate: the median is milliseconds even though
    # cold requests pay the deployment.
    assert metrics["median time_total (s)"] < 0.05
    assert metrics["max time_total (s)"] > 0.3


def test_trace_replay_nginx_k8s():
    """The same methodology on Kubernetes: every request still succeeds
    — cold ones simply wait the ~3 s orchestration (the §VII argument
    that K8s 'might be too much' for the first request)."""
    result = run_experiment(run_trace_replay, template=NGINX, cluster_type="k8s")
    metrics = {row[0]: row[1] for row in result.rows}
    assert metrics["requests issued"] == 1708
    assert metrics["request errors"] == 0
    assert metrics["services deployed"] == 42
    # Cold requests on K8s are seconds, not sub-second.
    assert metrics["max time_total (s)"] > 2.5
    # Warm traffic still dominates the median.
    assert metrics["median time_total (s)"] < 0.05
