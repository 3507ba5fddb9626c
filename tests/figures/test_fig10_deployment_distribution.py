"""Fig. 10 — 42 deployments over five minutes, bursty start."""

from repro.experiments import run_fig10_deployment_distribution

from tests.figures.conftest import run_experiment


def test_fig10_deployment_distribution():
    result = run_experiment(run_fig10_deployment_distribution)
    assert result.extras["total"] == 42
    # "up to eight deployments per second in the beginning"
    assert result.extras["max_per_second"] >= 4
    firsts = result.extras["first_request_times"]
    early = sum(1 for t in firsts if t <= 3.0)
    assert early >= 14  # a large cohort of services starts immediately
