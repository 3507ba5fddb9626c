"""Extension experiment — proactive deployment via prediction (§VII).

A periodic client (period longer than the FlowMemory idle timeout, so
the service is scaled down between visits) hits the edge repeatedly:

* **reactive** — every visit is a cold start: the request waits for
  the on-demand deployment;
* **proactive** — the EWMA predictor learns the period from the
  packet-ins and the deployer re-instantiates the service shortly
  before each predicted visit, so later requests find it running.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.base import ExperimentResult
from repro.metrics import summarize
from repro.services import DEFAULT_CALIBRATION
from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, TestbedConfig

#: The client's visit period, longer than FlowMemory's 30 s idle timeout.
PERIOD_S = 60.0


def _periodic_run(proactive: bool, n_visits: int) -> list[float]:
    calibration = dataclasses.replace(
        DEFAULT_CALIBRATION,
        switch_idle_timeout_s=5.0,
        memory_idle_timeout_s=30.0,
    )
    tb = C3Testbed(
        TestbedConfig(cluster_types=("docker",), auto_scale_down=True),
        calibration=calibration,
    )
    if proactive:
        tb.controller.enable_proactive(check_interval_s=2.0, lead_time_s=10.0)
    service = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, service)

    times: list[float] = []
    for _ in range(n_visits):
        result = tb.run_request(tb.clients[0], service, NGINX.request)
        times.append(result.time_total)
        tb.env.run(until=tb.env.now + PERIOD_S)
    return times


def run_extension_proactive(n_visits: int = 10) -> ExperimentResult:
    """Reactive vs proactive first-request latency on a periodic client."""
    rows = []
    raw: dict[str, list[float]] = {}
    for label, proactive in (("reactive", False), ("proactive", True)):
        times = _periodic_run(proactive, n_visits)
        raw[label] = times
        cold = sum(1 for t in times if t > 0.1)
        rows.append(
            [
                label,
                n_visits,
                cold,
                n_visits - cold,
                round(summarize(times).median, 4),
                round(max(times), 4),
            ]
        )
    return ExperimentResult(
        experiment_id="Extension P1",
        title=(
            f"Proactive deployment: periodic {NGINX.title} client "
            f"(period {PERIOD_S:.0f}s > idle timeout)"
        ),
        headers=["mode", "visits", "cold", "warm", "median (s)", "max (s)"],
        rows=rows,
        paper_shape=(
            "§I/§VII: prediction pre-deploys just in time; after the "
            "predictor has learned the period, visits find a running "
            "instance — while the on-demand path still covers the "
            "unpredicted (early) visits."
        ),
        extras={"samples": raw},
    )
