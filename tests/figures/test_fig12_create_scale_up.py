"""Fig. 12 — total time (median) to Create + Scale Up."""

from repro.experiments import run_fig11_scale_up, run_fig12_create_scale_up

from tests.figures.conftest import run_experiment


def test_fig12_create_scale_up():
    result = run_experiment(run_fig12_create_scale_up, n_instances=42)
    fig11 = run_fig11_scale_up(n_instances=42)  # cached if already run

    for service in ("Asm", "Nginx", "Nginx+Py"):
        for column in ("docker median (s)", "k8s median (s)"):
            extra = result.cell(service, column) - fig11.cell(service, column)
            # "creating the containers adds around 100 ms"
            assert 0.02 < extra < 0.35, (service, column, extra)

    # For ResNet the create overhead is negligible relative to its
    # multi-second total (the paper shows no visible overhead).
    for column in ("docker median (s)", "k8s median (s)"):
        extra = result.cell("ResNet", column) - fig11.cell("ResNet", column)
        assert extra < 0.1 * result.cell("ResNet", column)
