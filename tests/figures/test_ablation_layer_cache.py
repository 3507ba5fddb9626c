"""Ablation A4 — layer-cache sharing across images."""

from repro.experiments import run_ablation_layer_cache

from tests.figures.conftest import run_experiment


def test_ablation_layer_cache():
    result = run_experiment(run_ablation_layer_cache)
    medians = {row[0]: row[1] for row in result.rows}
    cold = medians["derived image, cold cache"]
    warm = medians["derived image, base layers cached"]
    # Cached base layers make the pull substantially cheaper.
    assert warm < 0.75 * cold
    assert medians["saving (s)"] > 0
