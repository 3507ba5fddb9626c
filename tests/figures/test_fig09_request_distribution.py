"""Fig. 9 — 1708 requests to 42 edge services over five minutes."""

from repro.experiments import run_fig09_request_distribution

from tests.figures.conftest import run_experiment


def test_fig09_request_distribution():
    result = run_experiment(run_fig09_request_distribution)
    assert result.extras["total"] == 1708
    counts = result.extras["per_service_counts"]
    assert len(counts) == 42
    # Every selected service receives at least 20 requests (§VI).
    assert min(counts) >= 20
    # Heavy tail: the hottest service several times the coldest.
    assert max(counts) > 3 * min(counts)
