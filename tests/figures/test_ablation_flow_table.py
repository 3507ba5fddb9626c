"""Ablation A5 — data-path cost per flow-table state."""

from repro.experiments import run_ablation_flow_table

from tests.figures.conftest import run_experiment


def test_ablation_flow_table():
    result = run_experiment(run_ablation_flow_table)
    medians = {row[0]: row[1] for row in result.rows}
    cold = medians["cold (dispatch + deployment)"]
    installed = medians["installed flow (switch only)"]
    memory = medians["FlowMemory reinstall (packet-in)"]

    # Installed flows are the fastest path; the FlowMemory reinstall
    # only adds a controller round trip; a cold dispatch is orders of
    # magnitude above both.
    assert installed < memory < cold
    assert memory - installed < 0.01
    assert cold > 10 * memory
    # The reinstall path was served from memory, not re-dispatched.
    assert result.extras["memory_hits"] >= 5
