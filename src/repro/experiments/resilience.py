"""Resilience experiment — availability and tail latency vs failure rate.

The paper's testbed never fails; this extension asks what transparent
access costs when the infrastructure does.  A seeded registry fault
rate is injected for the whole run (via the PR-4 fault layer) while a
small client population issues paced requests against a cold near edge,
with a warm far edge behind it.  Each cell is run twice — circuit
breaker enabled and disabled — and reports availability (fraction of
requests answered) plus p50/p99 request latency.

The mechanism under test: with the breaker, a failing near edge is
evicted from scheduling after a few failures and degraded flows ride
the FlowMemory fast path to the far edge (tail stays low).  Without
it, every punt of a degraded flow re-enters a doomed with-waiting
deployment and the tail absorbs the retry cost.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.experiments.base import ExperimentResult
from repro.faults import FaultPlan, Injector
from repro.metrics import median, percentile
from repro.net.host import ConnectionRefused, ConnectionReset, ConnectionTimeout
from repro.services import DEFAULT_CALIBRATION
from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, TestbedConfig

_CLIENT_ERRORS = (ConnectionRefused, ConnectionReset, ConnectionTimeout)

#: Each client requests once per period; the fault plan's seed.
PERIOD_S = 2.0
SEED = 7


def migration_stats(recorder) -> dict[str, _t.Any]:
    """Aggregate the live-migration pipeline's recorder surface
    (:mod:`repro.core.migration`) across all sites: lifecycle counters
    plus the per-session cost samples.  Zero everywhere on testbeds
    that never migrate — the shape is stable either way, so any
    resilience-style report can carry it."""
    counters = recorder.counters("migrations")

    def total(prefix: str) -> int:
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    downtimes = recorder.samples("migration/downtime_s")
    return {
        "started": total("migrations_started/"),
        "completed": total("migrations_completed/"),
        "aborted": total("migrations_aborted/"),
        "rolled_back": total("migrations_rolled_back/"),
        "auto_thawed": total("migrations_auto_thawed/"),
        "bytes_moved": sum(recorder.samples("migration/bytes_moved")),
        "downtime_per_session_s": downtimes,
        "downtime_p99_s": percentile(downtimes, 99) if downtimes else None,
    }


def _run_cell(
    failure_rate: float,
    with_breaker: bool,
    n_clients: int,
    n_rounds: int,
) -> dict[str, _t.Any]:
    # Short switch idle timeout: consecutive requests punt to the
    # controller, so every round is a fresh resolution decision.
    calibration = dataclasses.replace(
        DEFAULT_CALIBRATION, switch_idle_timeout_s=1.0
    )
    tb = C3Testbed(
        TestbedConfig(cluster_types=("docker",), n_clients=n_clients),
        calibration=calibration,
    )
    far = tb.add_far_edge()
    service = tb.register_template(NGINX)

    # Warm the far edge to running: the degradation target.
    tb.prepare_created(far, service)
    proc = tb.env.process(far.scale_up(service.plan))
    tb.env.run(until=proc)
    proc = tb.env.process(
        far.wait_ready(service.plan, poll_interval_s=0.02, timeout_s=30.0)
    )
    tb.env.run(until=proc)

    dispatcher = tb.controller.dispatcher
    dispatcher.breaker_enabled = with_breaker
    dispatcher.max_phase_retries = 0
    dispatcher.breaker_cooldown_s = 10.0

    horizon_s = n_rounds * PERIOD_S
    if failure_rate:
        plan = FaultPlan(seed=SEED).registry_outage(
            0.0, tb.active_registry.name, horizon_s + 60.0, rate=failure_rate
        )
        Injector(tb, plan).arm()

    env = tb.env
    latencies: list[float] = []
    errors = 0

    def client_loop(client, offset_s):
        nonlocal errors
        yield env.timeout(0.5 + offset_s)
        for _ in range(n_rounds):
            t0 = env.now
            try:
                yield from tb.http_request(
                    client, service, NGINX.request, timeout=60.0
                )
                latencies.append(env.now - t0)
            except _CLIENT_ERRORS:
                errors += 1
            yield env.timeout(PERIOD_S)

    for i, client in enumerate(tb.clients):
        env.process(client_loop(client, 0.05 * i), name=f"res:{client.name}")
    env.run(until=env.now + horizon_s + 90.0)

    total = n_clients * n_rounds
    breaker = dispatcher.breakers.get("docker")
    return {
        "availability": (total - errors) / total,
        "latencies": latencies,
        "deploy_failures": tb.recorder.counter("deploy_failures/docker"),
        "breaker_opens": breaker.stats["opens"] if breaker else 0,
        "migrations": migration_stats(tb.recorder),
    }


def run_resilience(
    failure_rates: _t.Sequence[float] = (0.0, 0.6, 0.95),
    n_clients: int = 4,
    n_rounds: int = 10,
) -> ExperimentResult:
    """Availability and p99 latency vs injected registry failure rate,
    with and without the dispatcher's circuit breaker."""
    rows = []
    raw: dict[tuple[float, str], dict[str, _t.Any]] = {}
    for rate in failure_rates:
        for with_breaker in (True, False):
            cell = _run_cell(rate, with_breaker, n_clients, n_rounds)
            raw[(rate, "breaker" if with_breaker else "no-breaker")] = cell
            samples = cell["latencies"]
            rows.append(
                [
                    f"{rate:.2f}",
                    "on" if with_breaker else "off",
                    f"{100 * cell['availability']:.1f}",
                    round(median(samples), 4) if samples else float("nan"),
                    round(percentile(samples, 99), 4) if samples else float("nan"),
                    cell["deploy_failures"],
                    cell["breaker_opens"],
                ]
            )
    return ExperimentResult(
        experiment_id="Extension R1",
        title="Availability and latency under injected registry failures",
        headers=[
            "Failure rate",
            "Breaker",
            "Availability (%)",
            "p50 (s)",
            "p99 (s)",
            "Failed deploys",
            "Breaker opens",
        ],
        rows=rows,
        paper_shape=(
            "Graceful degradation keeps availability at 100 % at every "
            "failure rate (requests fall back to the warm far edge).  "
            "The breaker's value is in the median and the control plane: "
            "with it, failing deployments stop after the threshold and "
            "p50 collapses to the far edge's serving latency; without "
            "it, every punt re-enters a doomed deployment, so failed "
            "deploys pile up and p50 carries the retry cost.  p99 of 40 "
            "samples is their maximum: the first round, which waits out "
            "the first failing deployment before any breaker can open, "
            "so it is the same with and without one."
        ),
        extras={"cells": raw},
    )
