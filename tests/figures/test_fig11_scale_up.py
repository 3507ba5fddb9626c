"""Fig. 11 — total time (median) to Scale Up, Docker vs Kubernetes."""

from repro.experiments import run_fig11_scale_up

from tests.figures.conftest import run_experiment


def test_fig11_scale_up():
    result = run_experiment(run_fig11_scale_up, n_instances=42)
    docker = {row[0]: row[1] for row in result.rows}
    k8s = {row[0]: row[2] for row in result.rows}

    # Docker answers the first request in < 1 s for the web services.
    assert docker["Asm"] < 1.0
    assert docker["Nginx"] < 1.0
    # Kubernetes pays the orchestrator overhead: ~3 s.
    assert 2.0 < k8s["Asm"] < 4.5
    assert 2.0 < k8s["Nginx"] < 4.5
    # "no notable difference between ... the tiny Assembler web server
    # and the far larger Nginx instance" (scale-up is image-size blind).
    assert abs(docker["Asm"] - docker["Nginx"]) < 0.15
    # ResNet takes significantly longer on both clusters.
    assert docker["ResNet"] > 3 * docker["Nginx"]
    assert k8s["ResNet"] > k8s["Nginx"] + 1.5
    # Two containers cost more than one.
    assert docker["Nginx+Py"] > docker["Nginx"]
    assert k8s["Nginx+Py"] > k8s["Nginx"]
    # The headline gap: K8s multiple times slower than Docker.
    assert k8s["Nginx"] > 3 * docker["Nginx"]
