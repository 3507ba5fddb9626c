"""Ablation A3 — flow-table occupancy: low idle + FlowMemory vs high idle."""

from repro.experiments import run_ablation_flow_occupancy

from tests.figures.conftest import run_experiment


def test_ablation_flow_occupancy():
    result = run_experiment(run_ablation_flow_occupancy)
    rows = {row[0]: row for row in result.rows}
    low = rows["low idle (5 s) + FlowMemory"]
    high = rows["high idle (120 s)"]

    # The table stays a fraction of the high-timeout size on average...
    assert low[2] < 0.5 * high[2]
    # ...thanks to FlowMemory reinstalls doing the work...
    assert low[4] > 100
    assert high[4] == 0
    # ...while request latency stays in the same millisecond band.
    assert low[3] < 0.01 and high[3] < 0.01
