"""Extension P1 — proactive deployment via prediction (§VII)."""

from repro.experiments import run_extension_proactive

from tests.figures.conftest import run_experiment


def test_extension_proactive():
    result = run_experiment(run_extension_proactive)
    rows = {row[0]: row for row in result.rows}
    reactive, proactive = rows["reactive"], rows["proactive"]

    # Reactive: every periodic visit is a cold start.
    assert reactive[2] == reactive[1]  # cold == visits
    # Proactive: after the learning phase, visits find a running
    # instance; at least half the visits are warm.
    assert proactive[3] >= proactive[1] // 2
    # The median visit latency collapses to warm-request time.
    assert proactive[4] < reactive[4] / 20
