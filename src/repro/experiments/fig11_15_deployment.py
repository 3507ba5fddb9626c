"""Figures 11, 12, 14, 15 — deployment-phase timings.

The measurement protocol follows §VI: for each service type and each
cluster type, 42 service instances are brought into the target state
(images cached; containers/Deployments pre-created for the Scale-Up
tests), then each instance receives its first client request through
the transparent-edge path.  The reported ``total`` is the client's
timecurl ``time_total``; ``wait_ready`` is the controller's
port-polling wait (figs. 14/15), a component of the total.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.experiments.base import ExperimentResult
from repro.metrics import Summary, summarize
from repro.services.catalog import PAPER_SERVICES, ServiceTemplate
from repro.testbed import C3Testbed, TestbedConfig

#: The paper's two clusters, one column each.
CLUSTER_TYPES = ("docker", "k8s")

#: Cache: one (template, cluster, mode, n) run feeds both the total-time
#: figure (11/12) and its wait-time companion (14/15).
_CACHE: dict[tuple, "ScaleUpRun"] = {}

#: Each figure is a (pre_create, value) view over the same
#: per-(service, cluster) measurement cells.
FIGURE_SPECS: dict[str, dict[str, _t.Any]] = {
    "fig11": {
        "experiment_id": "Fig. 11",
        "title": "Total time (median) to scale up four services on two clusters",
        "pre_create": True,
        "value": "total",
        "paper_shape": (
            "Docker < 1 s for Asm/Nginx, Kubernetes ~ 3 s; no notable "
            "Asm-vs-Nginx difference; ResNet significantly slower; "
            "Nginx+Py slower than Nginx."
        ),
    },
    "fig12": {
        "experiment_id": "Fig. 12",
        "title": "Total time (median) to create + scale up four services",
        "pre_create": False,
        "value": "total",
        "paper_shape": (
            "Creating the containers adds around 100 ms to the first "
            "request versus fig. 11 (relatively negligible for ResNet)."
        ),
    },
    "fig14": {
        "experiment_id": "Fig. 14",
        "title": "Wait time (median) until services are ready after scale up",
        "pre_create": True,
        "value": "wait",
        "paper_shape": (
            "Included in fig. 11's totals; for ResNet the wait alone "
            "accounts for more than a fourth of the total time."
        ),
    },
    "fig15": {
        "experiment_id": "Fig. 15",
        "title": "Wait time (median) until ready after create + scale up",
        "pre_create": False,
        "value": "wait",
        "paper_shape": "Included in fig. 12's totals; same ordering as fig. 14.",
    },
}


@dataclasses.dataclass
class ScaleUpRun:
    """Raw outcome of one (service, cluster, mode) measurement."""

    template_key: str
    cluster_type: str
    pre_created: bool
    totals: list[float]
    wait_ready: list[float]
    scale_up_api: list[float]
    create: list[float]

    @property
    def total_summary(self) -> Summary:
        return summarize(self.totals)

    @property
    def wait_summary(self) -> Summary:
        return summarize(self.wait_ready)


def run_scale_up_experiment(
    template: ServiceTemplate,
    cluster_type: str,
    n_instances: int = 42,
    pre_create: bool = True,
) -> ScaleUpRun:
    """Deploy ``n_instances`` fresh instances and measure first requests.

    ``pre_create=True`` leaves only Scale Up to do (fig. 11/14);
    ``pre_create=False`` leaves Create + Scale Up (fig. 12/15).
    Images are always cached first — the Pull phase is fig. 13's
    separate experiment.
    """
    key = (template.key, cluster_type, pre_create, n_instances)
    if key in _CACHE:
        return _CACHE[key]

    tb = C3Testbed(TestbedConfig(cluster_types=(cluster_type,)))
    cluster = tb.docker_cluster if cluster_type == "docker" else tb.k8s_cluster
    assert cluster is not None

    services = [tb.register_template(template) for _ in range(n_instances)]
    for service in services:
        if pre_create:
            tb.prepare_created(cluster, service)
        else:
            tb.prepare_pulled(cluster, service)
    tb.settle(1.0)

    totals: list[float] = []
    for i, service in enumerate(services):
        client = tb.clients[i % len(tb.clients)]
        result = tb.run_request(client, service, template.request)
        if not result.response.ok:
            raise RuntimeError(
                f"first request to {service.name} failed: {result.response.status}"
            )
        totals.append(result.time_total)
        tb.settle(0.25)

    run = ScaleUpRun(
        template_key=template.key,
        cluster_type=cluster_type,
        pre_created=pre_create,
        totals=totals,
        wait_ready=tb.recorder.samples(f"wait_ready/{cluster.name}/{template.key}"),
        scale_up_api=tb.recorder.samples(f"scale_up/{cluster.name}/{template.key}"),
        create=tb.recorder.samples(f"create/{cluster.name}/{template.key}"),
    )
    _CACHE[key] = run
    return run


def _figure_from_spec(
    name: str,
    services: _t.Sequence[ServiceTemplate],
    n_instances: int,
) -> ExperimentResult:
    """Measure every (service, cluster) cell and tabulate the medians."""
    spec = FIGURE_SPECS[name]
    runs: dict[tuple[str, str], ScaleUpRun] = {}
    rows = []
    for template in services:
        row: list[_t.Any] = [template.title]
        for cluster_type in CLUSTER_TYPES:
            run = runs[(template.key, cluster_type)] = run_scale_up_experiment(
                template,
                cluster_type,
                n_instances=n_instances,
                pre_create=spec["pre_create"],
            )
            summary = (
                run.total_summary if spec["value"] == "total" else run.wait_summary
            )
            row.append(round(summary.median, 4))
        rows.append(row)
    return ExperimentResult(
        experiment_id=spec["experiment_id"],
        title=spec["title"],
        headers=["Service"] + [f"{c} median (s)" for c in CLUSTER_TYPES],
        rows=rows,
        paper_shape=spec["paper_shape"],
        extras={"runs": runs},
    )


def run_fig11_scale_up(
    n_instances: int = 42,
    services: _t.Sequence[ServiceTemplate] = PAPER_SERVICES,
) -> ExperimentResult:
    """Fig. 11: total time (median) to *scale up* on both clusters."""
    return _figure_from_spec("fig11", services, n_instances)


def run_fig12_create_scale_up(
    n_instances: int = 42,
    services: _t.Sequence[ServiceTemplate] = PAPER_SERVICES,
) -> ExperimentResult:
    """Fig. 12: total time (median) to *create + scale up*."""
    return _figure_from_spec("fig12", services, n_instances)


def run_fig14_wait_after_scale_up(
    n_instances: int = 42,
    services: _t.Sequence[ServiceTemplate] = PAPER_SERVICES,
) -> ExperimentResult:
    """Fig. 14: wait time (median) until ready after *scale up*."""
    return _figure_from_spec("fig14", services, n_instances)


def run_fig15_wait_after_create_scale_up(n_instances: int = 42) -> ExperimentResult:
    """Fig. 15: wait time (median) until ready after *create + scale up*."""
    return _figure_from_spec("fig15", PAPER_SERVICES, n_instances)
