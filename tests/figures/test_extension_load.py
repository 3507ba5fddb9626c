"""Extension L1 — warm latency under concurrent load."""

from repro.experiments import run_extension_load

from tests.figures.conftest import run_experiment


def test_extension_load():
    result = run_experiment(run_extension_load)

    # The file server stays flat across the sweep.
    nginx = [result.cell("Nginx", f"x{n} median (s)") for n in (1, 4, 8, 16)]
    assert max(nginx) < 2 * min(nginx)
    # The inference service queues once the burst exceeds its 4-worker
    # pool: x16 is several times x1.
    assert result.cell("ResNet", "x16 median (s)") > 2 * result.cell(
        "ResNet", "x1 median (s)"
    )
    # Below the pool size it holds steady.
    assert result.cell("ResNet", "x4 median (s)") < 1.3 * result.cell(
        "ResNet", "x1 median (s)"
    )
