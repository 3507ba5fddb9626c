"""Ablation A1 — first-request latency per deployment mode."""

from repro.experiments import run_ablation_waiting_modes

from tests.figures.conftest import run_experiment


def test_ablation_waiting_modes():
    result = run_experiment(run_ablation_waiting_modes)
    medians = {row[0]: row[1] for row in result.rows}
    waiting = medians["with-waiting (near deploys)"]
    far = medians["without-waiting (far instance)"]
    cloud_fb = medians["without-waiting (cloud fallback)"]
    baseline = medians["cloud-only baseline"]

    # Redirecting to a running far instance beats both holding the
    # request and going to the cloud.
    assert far < cloud_fb < waiting
    # Cloud fallback of the no-waiting mode costs the same as pure
    # cloud for the first request (it IS the cloud).
    assert abs(cloud_fb - baseline) < 0.01
    # With-waiting still answers in < 1 s (cached Docker images).
    assert waiting < 1.0
