"""Fig. 14 — wait time until ready after Scale Up."""

from repro.experiments import run_fig11_scale_up, run_fig14_wait_after_scale_up

from tests.figures.conftest import run_experiment


def test_fig14_wait_after_scale_up():
    result = run_experiment(run_fig14_wait_after_scale_up, n_instances=42)
    fig11 = run_fig11_scale_up(n_instances=42)  # shares the cached runs

    for service in ("Asm", "Nginx", "ResNet", "Nginx+Py"):
        for column in ("docker median (s)", "k8s median (s)"):
            wait = result.cell(service, column)
            total = fig11.cell(service, column)
            # The wait is a component of — and below — the total.
            assert 0 <= wait < total, (service, column)

    # ResNet: "the waiting time alone accounts for more than a fourth
    # of the total time."
    resnet_wait = result.cell("ResNet", "docker median (s)")
    resnet_total = fig11.cell("ResNet", "docker median (s)")
    assert resnet_wait > resnet_total / 4
    # The web services become ready almost immediately after start.
    assert result.cell("Asm", "docker median (s)") < 0.1
    assert result.cell("Nginx", "docker median (s)") < 0.15
