"""Extension experiment — where the first-request time goes.

Decomposes the with-waiting first request (fig. 5's sequence) into its
components, per service and cluster:

* **scale-up API** — the orchestrator call (blocking for Docker,
  fire-and-forget for Kubernetes),
* **wait-ready** — port polling until the service answers,
* **create** / **pull** when those phases ran,
* **control + network** — the residual: packet-in round trips,
  controller processing, flow installation, handshake, and the HTTP
  exchange itself.

This is the quantitative version of the paper's §VI narrative about
which phase dominates for which service.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.metrics import median
from repro.services.catalog import PAPER_SERVICES, ServiceTemplate
from repro.testbed import C3Testbed, TestbedConfig


def _breakdown(
    template: ServiceTemplate, cluster_type: str, n_instances: int
) -> dict[str, float]:
    tb = C3Testbed(TestbedConfig(cluster_types=(cluster_type,)))
    cluster = tb.docker_cluster if cluster_type == "docker" else tb.k8s_cluster
    assert cluster is not None
    totals = []
    for i in range(n_instances):
        service = tb.register_template(template)
        tb.prepare_created(cluster, service)
        result = tb.run_request(tb.clients[i % 20], service, template.request)
        totals.append(result.time_total)
        tb.settle(0.25)

    rec = tb.recorder
    key = f"{cluster.name}/{template.key}"
    scale = median(rec.samples(f"scale_up/{key}"))
    wait = median(rec.samples(f"wait_ready/{key}"))
    total = median(totals)
    return {
        "total": total,
        "scale_up_api": scale,
        "wait_ready": wait,
        "control_network": max(0.0, total - scale - wait),
    }


def run_extension_breakdown(n_instances: int = 10) -> ExperimentResult:
    """Median component breakdown of the scale-up-only first request."""
    rows = []
    for template in PAPER_SERVICES:
        for cluster_type in ("docker", "k8s"):
            parts = _breakdown(template, cluster_type, n_instances)
            rows.append(
                [
                    f"{template.title} / {cluster_type}",
                    round(parts["total"], 4),
                    round(parts["scale_up_api"], 4),
                    round(parts["wait_ready"], 4),
                    round(parts["control_network"], 4),
                ]
            )
    return ExperimentResult(
        experiment_id="Extension B1",
        title="First-request latency breakdown (scale-up only)",
        headers=[
            "service / cluster",
            "total (s)",
            "scale-up API (s)",
            "wait-ready (s)",
            "control+network (s)",
        ],
        rows=rows,
        paper_shape=(
            "Docker's blocking start dominates its sub-second totals; "
            "Kubernetes shifts nearly everything into the port-polling "
            "wait; ResNet adds its model load to the wait on both; the "
            "control+network share stays in the low milliseconds."
        ),
    )
