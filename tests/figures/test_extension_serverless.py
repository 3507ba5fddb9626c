"""Extension S1 — serverless (wasm) vs containers (§VIII future work)."""

from repro.experiments import run_extension_serverless

from tests.figures.conftest import run_experiment


def test_extension_serverless():
    result = run_experiment(run_extension_serverless)
    cold = {row[0]: row[1] for row in result.rows}
    warm = {row[0]: row[2] for row in result.rows}

    # Cold starts: wasm in milliseconds, orders below the containers.
    assert cold["Nginx / wasm"] < 0.05
    assert cold["Nginx / wasm"] < cold["Nginx / docker"] / 10
    assert cold["Nginx / docker"] < cold["Nginx / k8s"] / 3
    # Even the heavyweight function instantiates quickly (model load is
    # part of the module, compiled/cached ahead of time).
    assert cold["ResNet / wasm"] < cold["ResNet / docker"] / 5
    # The flip side: compute-bound execution is slower than native.
    assert warm["ResNet / wasm"] > 1.2 * warm["ResNet / docker"]
    # Cheap text handlers barely notice the slowdown.
    assert warm["Nginx / wasm"] < 2 * warm["Nginx / docker"]
