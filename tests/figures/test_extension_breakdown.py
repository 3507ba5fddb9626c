"""Extension B1 — first-request latency breakdown."""

from repro.experiments import run_extension_breakdown

from tests.figures.conftest import run_experiment


def test_extension_breakdown():
    result = run_experiment(run_extension_breakdown)
    rows = {row[0]: row for row in result.rows}

    def parts(key):
        _, total, scale, wait, rest = rows[key]
        return total, scale, wait, rest

    # Docker: the blocking start call is the dominant component for the
    # web services.
    total, scale, wait, rest = parts("Nginx / docker")
    assert scale > 0.6 * total
    assert rest < 0.01
    # Kubernetes: the scale call is cheap; the wait absorbs the chain.
    total, scale, wait, rest = parts("Nginx / k8s")
    assert scale < 0.1
    assert wait > 0.9 * total
    # ResNet adds its model load to the wait on both clusters.
    assert rows["ResNet / docker"][3] > 2.0
    assert rows["ResNet / k8s"][3] > 4.0
    # Components sum to the total (within the poll quantisation).
    for key, row in rows.items():
        assert abs(row[1] - (row[2] + row[3] + row[4])) < 1e-6
