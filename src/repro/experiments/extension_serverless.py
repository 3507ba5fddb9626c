"""Extension experiment — serverless (wasm) vs containers (§VIII).

The paper's future work asks "how well the latter [serverless
applications] would perform in a transparent access approach".  We
measure exactly the paper's quantities for the wasm runtime:

* first-request ``time_total`` with on-demand deployment (the fig. 11
  protocol: artifacts cached + function registered, only the
  instantiate/Scale-Up left), and
* warm-request ``time_total`` (the fig. 16 protocol),

side by side with the Docker and Kubernetes numbers.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.metrics import summarize
from repro.services.catalog import NGINX, RESNET, ServiceTemplate
from repro.testbed import C3Testbed, TestbedConfig


def _measure(
    template: ServiceTemplate,
    runtime: str,
    n_instances: int,
    n_warm: int,
) -> tuple[list[float], list[float]]:
    """Cold first requests (one per fresh service) + warm requests."""
    if runtime == "wasm":
        tb = C3Testbed(TestbedConfig(cluster_types=()))
        cluster = tb.add_serverless()
    else:
        tb = C3Testbed(TestbedConfig(cluster_types=(runtime,)))
        cluster = tb.docker_cluster if runtime == "docker" else tb.k8s_cluster
    assert cluster is not None

    cold: list[float] = []
    services = []
    for i in range(n_instances):
        service = tb.register_template(template)
        services.append(service)
        tb.prepare_created(cluster, service)
        result = tb.run_request(tb.clients[i % 20], service, template.request)
        if not result.response.ok:
            raise RuntimeError(f"cold request failed on {runtime}")
        cold.append(result.time_total)
        tb.settle(0.2)

    warm: list[float] = []
    for i in range(n_warm):
        result = tb.run_request(
            tb.clients[i % 20], services[0], template.request
        )
        warm.append(result.time_total)
    return cold, warm


def run_extension_serverless(
    n_instances: int = 10,
    n_warm: int = 20,
) -> ExperimentResult:
    """First-request and warm-request latency per runtime."""
    rows = []
    raw: dict[tuple[str, str], dict[str, list[float]]] = {}
    for template in (NGINX, RESNET):
        for runtime in ("docker", "k8s", "wasm"):
            cold, warm = _measure(template, runtime, n_instances, n_warm)
            raw[(template.key, runtime)] = {"cold": cold, "warm": warm}
            rows.append(
                [
                    f"{template.title} / {runtime}",
                    round(summarize(cold).median, 4),
                    round(summarize(warm).median, 5),
                ]
            )
    return ExperimentResult(
        experiment_id="Extension S1",
        title="Serverless (wasm) vs containers: cold and warm requests",
        headers=["service / runtime", "first request (s)", "warm request (s)"],
        rows=rows,
        paper_shape=(
            "§VIII / [7]: wasm cold starts are far below container "
            "starts (ms vs 0.4 s Docker vs ~3 s K8s); execution runs "
            "somewhat slower than native, visible on the compute-bound "
            "ResNet service."
        ),
        extras={"samples": raw},
    )
