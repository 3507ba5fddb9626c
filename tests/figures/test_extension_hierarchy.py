"""Extension H1 — the hierarchical edge continuum (§IV-A)."""

from repro.experiments import run_extension_hierarchy

from tests.figures.conftest import run_experiment


def test_extension_hierarchy():
    result = run_experiment(run_extension_hierarchy)
    metrics = {row[0]: row[1] for row in result.rows}

    # No request is lost.
    assert metrics["requests ok / total"] == "1708 / 1708"
    # The small near edge holds exactly its capacity.
    capacity = metrics["near-edge capacity"]
    assert metrics["services running near (small edge)"] == capacity
    # The overflow runs at the larger mid tier (all 42 covered).
    assert (
        metrics["services running near (small edge)"]
        + metrics["services running mid (larger edge)"]
        == 42
    )
    # The inward-draining BEST deployments leave nothing on the cloud.
    assert metrics["memorized flows -> cloud"] == 0
    # Latency stays in the edge band despite the constrained near tier.
    assert metrics["median time_total (s)"] < 0.05
