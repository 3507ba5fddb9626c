"""Fig. 16 — request times once the instance is running."""

from repro.experiments import run_fig16_warm_requests

from tests.figures.conftest import run_experiment


def test_fig16_warm_requests():
    result = run_experiment(run_fig16_warm_requests)
    docker = {row[0]: row[1] for row in result.rows}
    k8s = {row[0]: row[2] for row in result.rows}

    # Short text responses arrive in ~milliseconds.
    for service in ("Asm", "Nginx", "Nginx+Py"):
        assert docker[service] < 0.01
        assert k8s[service] < 0.01
    # ResNet "requires significantly longer" (inference + 83 KiB POST).
    assert docker["ResNet"] > 20 * docker["Nginx"]
    # "no notable difference between the two clusters" — both run on
    # the same containerd on the EGS.
    for service in ("Asm", "Nginx", "ResNet", "Nginx+Py"):
        assert abs(docker[service] - k8s[service]) < 0.005
