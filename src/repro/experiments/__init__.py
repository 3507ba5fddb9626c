"""Experiment runners: one per table/figure of the evaluation (§VI).

Each ``run_*`` function builds the testbed(s), executes the paper's
measurement protocol, and returns an :class:`ExperimentResult` whose
rows mirror the corresponding figure.  The shape tests under
``tests/figures/`` and EXPERIMENTS.md are both generated from these.
"""

import typing as _t

from repro.experiments.base import ExperimentResult
from repro.experiments.table1 import run_table1
from repro.experiments.fig09_10_workload import (
    run_fig09_request_distribution,
    run_fig10_deployment_distribution,
)
from repro.experiments.fig11_15_deployment import (
    run_fig11_scale_up,
    run_fig12_create_scale_up,
    run_fig14_wait_after_scale_up,
    run_fig15_wait_after_create_scale_up,
    run_scale_up_experiment,
)
from repro.experiments.fig13_pull import run_fig13_pull
from repro.experiments.fig16_warm import run_fig16_warm_requests
from repro.experiments.trace_replay import run_trace_replay
from repro.experiments.ablations import (
    run_ablation_flow_occupancy,
    run_ablation_flow_table,
    run_ablation_hybrid,
    run_ablation_layer_cache,
    run_ablation_waiting_modes,
)
from repro.experiments.extension_serverless import run_extension_serverless
from repro.experiments.resilience import run_resilience
from repro.experiments.extension_proactive import run_extension_proactive
from repro.experiments.extension_load import run_extension_load
from repro.experiments.extension_breakdown import run_extension_breakdown
from repro.experiments.extension_hierarchy import run_extension_hierarchy
from repro.experiments.extension_d1_federation import run_extension_d1_federation
from repro.experiments.extension_m1_migration import run_extension_m1_migration
from repro.workload import BigFlowsParams

#: Name -> runner, for the CLI and docs generation.
EXPERIMENTS = {
    "table1": run_table1,
    "fig09": run_fig09_request_distribution,
    "fig10": run_fig10_deployment_distribution,
    "fig11": run_fig11_scale_up,
    "fig12": run_fig12_create_scale_up,
    "fig13": run_fig13_pull,
    "fig14": run_fig14_wait_after_scale_up,
    "fig15": run_fig15_wait_after_create_scale_up,
    "fig16": run_fig16_warm_requests,
    "trace": run_trace_replay,
    "ablation_waiting": run_ablation_waiting_modes,
    "ablation_hybrid": run_ablation_hybrid,
    "ablation_layer_cache": run_ablation_layer_cache,
    "ablation_flow_table": run_ablation_flow_table,
    "ablation_flow_occupancy": run_ablation_flow_occupancy,
    "extension_serverless": run_extension_serverless,
    "extension_proactive": run_extension_proactive,
    "extension_load": run_extension_load,
    "extension_breakdown": run_extension_breakdown,
    "extension_hierarchy": run_extension_hierarchy,
    "extension_federation": run_extension_d1_federation,
    "extension_migration": run_extension_m1_migration,
    "resilience": run_resilience,
}

#: Reduced parameters per experiment for ``--fast`` runs; an experiment
#: without an entry is already quick at full size.
FAST_KWARGS: dict[str, dict[str, _t.Any]] = {
    "fig11": {"n_instances": 8},
    "fig12": {"n_instances": 8},
    "fig13": {"repetitions": 2},
    "fig14": {"n_instances": 8},
    "fig15": {"n_instances": 8},
    "fig16": {"n_requests": 10},
    "trace": {
        "params": BigFlowsParams(n_services=10, n_requests=220, duration_s=60.0)
    },
    "ablation_waiting": {"n_instances": 3},
    "ablation_hybrid": {"n_instances": 3},
    "ablation_layer_cache": {"repetitions": 2},
    "ablation_flow_table": {"n_requests": 5},
    "ablation_flow_occupancy": {
        "n_services": 4,
        "n_clients": 4,
        "duration_s": 60.0,
    },
    "extension_serverless": {"n_instances": 3, "n_warm": 5},
    "extension_proactive": {"n_visits": 6},
    "extension_load": {"concurrency_levels": (1, 8), "rounds": 2},
    "extension_breakdown": {"n_instances": 3},
    "extension_federation": {
        "site_counts": (1, 2),
        "delays": (0.025,),
        "fixed_sites": 2,
    },
    "extension_migration": {"n_clients": 3, "with_planner": False},
    "resilience": {"failure_rates": (0.0, 0.9), "n_rounds": 4},
}


def run_experiment(name: str, fast: bool = False) -> ExperimentResult:
    """Run one registered experiment, at ``--fast`` size if asked."""
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        )
    kwargs = FAST_KWARGS.get(name, {}) if fast else {}
    return EXPERIMENTS[name](**kwargs)


__all__ = [
    "EXPERIMENTS",
    "FAST_KWARGS",
    "ExperimentResult",
    "run_ablation_flow_occupancy",
    "run_ablation_flow_table",
    "run_ablation_hybrid",
    "run_ablation_layer_cache",
    "run_ablation_waiting_modes",
    "run_fig09_request_distribution",
    "run_fig10_deployment_distribution",
    "run_fig11_scale_up",
    "run_fig12_create_scale_up",
    "run_fig13_pull",
    "run_fig14_wait_after_scale_up",
    "run_fig15_wait_after_create_scale_up",
    "run_experiment",
    "run_extension_breakdown",
    "run_extension_d1_federation",
    "run_extension_hierarchy",
    "run_extension_m1_migration",
    "run_extension_load",
    "run_extension_proactive",
    "run_extension_serverless",
    "run_fig16_warm_requests",
    "run_resilience",
    "run_scale_up_experiment",
    "run_table1",
    "run_trace_replay",
]
