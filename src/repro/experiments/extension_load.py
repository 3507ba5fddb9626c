"""Extension experiment — warm-request latency under concurrent load.

Fig. 16 measures isolated warm requests.  Real edge services see
bursts; a compute-bound service with a bounded worker pool (TF-Serving
style) saturates while an I/O-light file server does not.  This
experiment sweeps the number of *simultaneous* clients hitting one
running instance and reports the median ``time_total`` per level.
"""

from __future__ import annotations

import typing as _t

from repro.experiments.base import ExperimentResult
from repro.metrics import summarize
from repro.services.catalog import NGINX, RESNET, ServiceTemplate
from repro.sim import AllOf
from repro.testbed import C3Testbed, TestbedConfig


def _burst_latencies(
    template: ServiceTemplate, concurrency: int, rounds: int
) -> list[float]:
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
    service = tb.register_template(template)
    tb.prepare_created(tb.docker_cluster, service)
    tb.run_request(tb.clients[0], service, template.request)  # deploy
    tb.settle(0.5)

    latencies: list[float] = []

    def one(env, client):
        result = yield from tb.http_request(client, service, template.request)
        latencies.append(result.time_total)

    for _ in range(rounds):
        procs = [
            tb.env.process(one(tb.env, tb.clients[i % 20]))
            for i in range(concurrency)
        ]
        tb.env.run(until=AllOf(tb.env, procs))
        tb.settle(0.5)
    return latencies


def run_extension_load(
    concurrency_levels: _t.Sequence[int] = (1, 4, 8, 16),
    rounds: int = 5,
) -> ExperimentResult:
    """Median warm latency vs number of simultaneous clients."""
    rows = []
    raw: dict[tuple[str, int], list[float]] = {}
    for template in (NGINX, RESNET):
        row: list[_t.Any] = [template.title]
        for level in concurrency_levels:
            samples = _burst_latencies(template, level, rounds)
            raw[(template.key, level)] = samples
            row.append(round(summarize(samples).median, 4))
        rows.append(row)
    return ExperimentResult(
        experiment_id="Extension L1",
        title="Warm-request latency under concurrent load (Docker edge)",
        headers=["Service"]
        + [f"x{level} median (s)" for level in concurrency_levels],
        rows=rows,
        paper_shape=(
            "The file server's latency stays flat with concurrency; the "
            "inference service queues behind its worker pool and its "
            "latency grows once the burst exceeds the pool size."
        ),
        extras={"samples": raw},
    )
