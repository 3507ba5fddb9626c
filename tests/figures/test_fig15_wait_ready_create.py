"""Fig. 15 — wait time until ready after Create + Scale Up."""

from repro.experiments import (
    run_fig14_wait_after_scale_up,
    run_fig15_wait_after_create_scale_up,
)

from tests.figures.conftest import run_experiment


def test_fig15_wait_after_create_scale_up():
    result = run_experiment(run_fig15_wait_after_create_scale_up, n_instances=42)
    fig14 = run_fig14_wait_after_scale_up(n_instances=42)

    # Same ordering as fig. 14, and creating first doesn't change the
    # wait much (the create cost lands in the total, not the port wait).
    # Docker's start call blocks until the process spawned, so the wait
    # is essentially the application boot: ResNet dwarfs Nginx.
    assert result.cell("ResNet", "docker median (s)") > 5 * result.cell(
        "Nginx", "docker median (s)"
    )
    # K8s's scale call returns immediately; the wait swallows the whole
    # pod-start chain for every service, plus the boot on top for ResNet.
    assert (
        result.cell("ResNet", "k8s median (s)")
        > result.cell("Nginx", "k8s median (s)") + 1.5
    )
    for column in ("docker median (s)", "k8s median (s)"):
        delta = abs(result.cell("Nginx", column) - fig14.cell("Nginx", column))
        assert delta < 0.25
