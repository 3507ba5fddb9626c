"""Chaos end-to-end: a seeded FaultPlan against a live workload.

The acceptance scenario for the fault layer: a full registry outage
plus a crash of the (preferred) near-edge host, injected mid-run while
clients keep issuing requests.  The control plane must absorb both —
every request is answered (from the far edge while the near one is
sick), the circuit breaker opens, probes, and finally readmits the
recovered cluster — and the whole trajectory is byte-identical across
two runs of the same seed.

Run just these with ``pytest -m chaos``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.faults import BreakerState, FaultPlan, Injector
from repro.net.host import ConnectionRefused, ConnectionReset, ConnectionTimeout
from repro.services import DEFAULT_CALIBRATION
from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, TestbedConfig

pytestmark = pytest.mark.chaos

#: Errors a client could observe (all of which the scenario forbids).
CLIENT_ERRORS = (ConnectionRefused, ConnectionReset, ConnectionTimeout)


def _run_scenario(seed: int, horizon_s: float = 60.0):
    """One full chaos run; returns (testbed, service, injector, trace).

    The trace is a list of per-request tuples
    ``(start_s, client, ok, error, duration_s, serving_cluster)`` —
    the availability record the determinism assertion hashes.
    """
    # Short switch idle timeout: every request (2s apart) punts to the
    # controller, so each one is a fresh availability decision.
    calibration = dataclasses.replace(
        DEFAULT_CALIBRATION, switch_idle_timeout_s=1.0
    )
    tb = C3Testbed(
        TestbedConfig(cluster_types=("docker",), n_clients=4),
        calibration=calibration,
    )
    far = tb.add_far_edge()
    svc = tb.register_template(NGINX)

    # The far edge is warm and running: the degradation target while
    # the near edge is down.
    tb.prepare_created(far, svc)
    proc = tb.env.process(far.scale_up(svc.plan))
    tb.env.run(until=proc)
    proc = tb.env.process(
        far.wait_ready(svc.plan, poll_interval_s=0.02, timeout_s=30.0)
    )
    assert tb.env.run(until=proc)

    dispatcher = tb.controller.dispatcher
    dispatcher.max_phase_retries = 0  # fail fast; the breaker does the pacing
    dispatcher.breaker_cooldown_s = 8.0

    # The plan: the registry dies before the first request and stays
    # dead for ~30s; the near-edge host crashes mid-outage for 10s.
    plan = (
        FaultPlan(seed=seed)
        .registry_outage(0.5, "docker-hub", 29.5, rate=1.0)
        .node_crash(12.0, "egs", duration_s=10.0)
    )
    injector = Injector(tb, plan).arm()

    env = tb.env
    base = env.now
    trace: list[tuple] = []

    def client_loop(client, offset_s):
        yield env.timeout(2.0 + offset_s)
        while env.now - base < horizon_s:
            t0 = env.now
            ok, error = True, ""
            try:
                result = yield from tb.http_request(
                    client, svc, NGINX.request, timeout=30.0
                )
                ok = result.response.status == 200
            except CLIENT_ERRORS as exc:
                ok, error = False, type(exc).__name__
            flow = tb.controller.flow_memory.lookup(client.ip, svc)
            trace.append(
                (
                    round(t0 - base, 6),
                    client.name,
                    ok,
                    error,
                    round(env.now - t0, 9),
                    flow.cluster_name if flow is not None else None,
                )
            )
            yield env.timeout(2.0)

    for i, client in enumerate(tb.clients):
        env.process(client_loop(client, 0.1 * i), name=f"chaos:{client.name}")
    env.run(until=base + horizon_s + 30.0)
    return tb, svc, injector, trace


def _digest(trace) -> str:
    return hashlib.md5(repr(trace).encode()).hexdigest()


class TestChaosScenario:
    def test_outage_and_crash_cause_zero_client_errors(self):
        tb, svc, injector, trace = _run_scenario(seed=7)

        # Plenty of requests were issued across the outage window...
        assert len(trace) >= 90
        # ...and not one produced a client-visible error.
        failed = [t for t in trace if not t[2]]
        assert failed == []

        # While the near edge was sick, requests were served from the
        # far edge; after recovery they migrate back.
        during = {t[5] for t in trace if 4.0 < t[0] < 28.0}
        assert during == {"far-docker"}
        assert trace[-1][5] == "docker"
        for client in tb.clients:
            flow = tb.controller.flow_memory.lookup(client.ip, svc)
            assert flow.cluster_name == "docker"
            assert not flow.degraded

        # The breaker did its job: opened under the outage, probed,
        # reopened on failed probes, and readmitted the cluster.
        breaker = tb.controller.dispatcher.breakers["docker"]
        assert breaker.state is BreakerState.CLOSED
        assert breaker.stats["opens"] >= 2
        assert breaker.stats["probes"] >= 2
        assert breaker.stats["closes"] == 1
        assert tb.docker_cluster.is_running(svc.plan)

        # All four plan callbacks fired.
        words = [entry.split()[0] for _, entry in injector.log]
        assert words == [
            "registry-outage",
            "node-crash",
            "node-restore",
            "registry-restore",
        ]

    def test_same_seed_gives_byte_identical_availability_trace(self):
        _, _, _, first = _run_scenario(seed=7)
        _, _, _, second = _run_scenario(seed=7)
        assert _digest(first) == _digest(second)
        assert first == second
