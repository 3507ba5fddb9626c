"""Ablation A2 — §VII hybrid Docker-then-Kubernetes."""

from repro.experiments import run_ablation_hybrid

from tests.figures.conftest import run_experiment


def test_ablation_hybrid():
    result = run_experiment(run_ablation_hybrid)
    rows = {row[0]: row for row in result.rows}
    hybrid = rows["hybrid (Docker first, K8s steady-state)"]
    pure = rows["pure Kubernetes"]

    # Hybrid first response at Docker speed; pure K8s pays ~3 s.
    assert hybrid[1] < 1.0
    assert pure[1] > 2.0
    assert hybrid[1] < pure[1] / 3
    # Both end up fully managed by Kubernetes.
    assert hybrid[2] == pure[2]
