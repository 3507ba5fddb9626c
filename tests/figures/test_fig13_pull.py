"""Fig. 13 — pull times from public vs private registries."""

from repro.experiments import run_fig13_pull

from tests.figures.conftest import run_experiment


def test_fig13_pull():
    result = run_experiment(run_fig13_pull)
    public = {row[0]: row[1] for row in result.rows}
    saving = {row[0]: row[3] for row in result.rows}

    # The tiny Assembler image "shines" in the Pull phase.
    assert public["Asm"] < 0.6
    assert public["Asm"] < public["Nginx"] / 3
    # Ordering by size/layers: Nginx < Nginx+Py < ResNet.
    assert public["Nginx"] < public["Nginx+Py"] < public["ResNet"]
    # "pull times improve by about 1.5 to 2 seconds" with the private
    # registry (for the real, multi-layer images).
    for service in ("Nginx", "ResNet", "Nginx+Py"):
        assert 1.0 < saving[service] < 3.5, (service, saving[service])
