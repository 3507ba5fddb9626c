"""Ablations for the design choices DESIGN.md calls out.

* A1 — with-waiting vs. without-waiting vs. cloud-only first requests;
* A2 — the §VII hybrid Docker-then-Kubernetes strategy;
* A4 — layer-cache sharing across images (pull-time reduction);
* A5 — data-path cost: installed flow vs. FlowMemory reinstall vs.
  full dispatch.
"""

from __future__ import annotations

from repro.containers import Containerd, ImageSpec, Registry
from repro.containers.image import MIB
from repro.containers.registry import PUBLIC_PROFILE
from repro.core import HybridDockerK8sScheduler, LowLatencyScheduler
from repro.core.schedulers import CloudOnlyScheduler
from repro.experiments.base import ExperimentResult
from repro.metrics import summarize
from repro.net import Host
from repro.net.addressing import IPAllocator
from repro.services.catalog import NGINX
from repro.sim import Environment
from repro.testbed import C3Testbed, TestbedConfig

#: A3: every client requests its service once per period.
REQUEST_PERIOD_S = 20.0


def run_ablation_waiting_modes(n_instances: int = 10) -> ExperimentResult:
    """A1: what the first request costs under each deployment mode."""
    rows = []

    # (a) With waiting: hold the request while the near edge deploys.
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
    samples = []
    for i in range(n_instances):
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        samples.append(
            tb.run_request(tb.clients[i % 20], svc, NGINX.request).time_total
        )
        tb.settle(0.2)
    rows.append(["with-waiting (near deploys)", round(summarize(samples).median, 4)])

    # (b) Without waiting: far edge already runs an instance.
    tb = C3Testbed(
        TestbedConfig(cluster_types=("docker",)), scheduler=LowLatencyScheduler()
    )
    far = tb.add_far_edge("far-docker", distance=1)
    samples = []
    for i in range(n_instances):
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        tb.prepare_created(far, svc)
        proc = tb.env.process(far.scale_up(svc.plan))
        tb.env.run(until=proc)
        proc = tb.env.process(far.wait_ready(svc.plan, timeout_s=30))
        tb.env.run(until=proc)
        samples.append(
            tb.run_request(tb.clients[i % 20], svc, NGINX.request).time_total
        )
        tb.settle(0.2)
    rows.append(
        ["without-waiting (far instance)", round(summarize(samples).median, 4)]
    )

    # (c) Without waiting, cloud fallback: nothing runs anywhere.
    tb = C3Testbed(
        TestbedConfig(cluster_types=("docker",)), scheduler=LowLatencyScheduler()
    )
    samples = []
    for i in range(n_instances):
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.docker_cluster, svc)
        samples.append(
            tb.run_request(tb.clients[i % 20], svc, NGINX.request).time_total
        )
        tb.settle(0.2)
    rows.append(["without-waiting (cloud fallback)", round(summarize(samples).median, 4)])

    # (d) Cloud only, no edge at all (baseline).
    tb = C3Testbed(
        TestbedConfig(cluster_types=("docker",)), scheduler=CloudOnlyScheduler()
    )
    samples = []
    for i in range(n_instances):
        svc = tb.register_template(NGINX)
        samples.append(
            tb.run_request(tb.clients[i % 20], svc, NGINX.request).time_total
        )
        tb.settle(0.2)
    rows.append(["cloud-only baseline", round(summarize(samples).median, 4)])

    return ExperimentResult(
        experiment_id="Ablation A1",
        title="First-request latency per on-demand deployment mode",
        headers=["mode", "median first request (s)"],
        rows=rows,
        paper_shape=(
            "with-waiting pays the deployment; redirecting to a running "
            "instance (or the cloud) answers in network time instead."
        ),
    )


def run_ablation_hybrid(n_instances: int = 10) -> ExperimentResult:
    """A2: hybrid Docker-then-K8s vs. pure Kubernetes first requests."""
    rows = []

    def first_requests(scheduler, cluster_types):
        tb = C3Testbed(
            TestbedConfig(cluster_types=cluster_types), scheduler=scheduler
        )
        samples = []
        k8s_serving = 0
        for i in range(n_instances):
            svc = tb.register_template(NGINX)
            for cluster in tb.clusters:
                tb.prepare_created(cluster, svc)
            samples.append(
                tb.run_request(tb.clients[i % 20], svc, NGINX.request).time_total
            )
            tb.settle(0.2)
        # Let background K8s deployments finish, then count flows on K8s.
        tb.env.run(until=tb.env.now + 15.0)
        if tb.k8s_cluster is not None:
            for svc in tb.service_registry.all():
                if tb.k8s_cluster.is_running(svc.plan):
                    k8s_serving += 1
        return samples, k8s_serving

    hybrid_samples, hybrid_k8s = first_requests(
        HybridDockerK8sScheduler("docker", "k8s"), ("docker", "k8s")
    )
    rows.append(
        [
            "hybrid (Docker first, K8s steady-state)",
            round(summarize(hybrid_samples).median, 4),
            hybrid_k8s,
        ]
    )

    k8s_samples, k8s_k8s = first_requests(None, ("k8s",))
    rows.append(
        ["pure Kubernetes", round(summarize(k8s_samples).median, 4), k8s_k8s]
    )

    return ExperimentResult(
        experiment_id="Ablation A2",
        title="Hybrid Docker-then-K8s vs pure Kubernetes (§VII)",
        headers=["strategy", "median first request (s)", "K8s instances after"],
        rows=rows,
        paper_shape=(
            "Hybrid answers the first request at Docker speed (<1 s) while "
            "ending up with Kubernetes-managed instances, combining 'fast "
            "initial response (Docker) and automated cluster management "
            "(Kubernetes)'."
        ),
    )


def run_ablation_layer_cache(repetitions: int = 5) -> ExperimentResult:
    """A4: shared base layers make re-pulls cheaper (§IV-C note)."""

    def pull_pair(pull_base_first: bool) -> float:
        env = Environment()
        node = Host(env, "node", IPAllocator("10.9.0.0").allocate())
        registry = Registry(env, "hub", PUBLIC_PROFILE)
        base = ImageSpec.synthesize("base:1", 80 * MIB, 4)
        derived = ImageSpec.synthesize(
            "derived:1", 120 * MIB, 6, shared_layers=base.layers
        )
        registry.publish(base)
        registry.publish(derived)
        runtime = Containerd(env, node)

        def go(env):
            if pull_base_first:
                yield from runtime.pull(base, registry)
            t0 = env.now
            yield from runtime.pull(derived, registry)
            return env.now - t0

        proc = env.process(go(env))
        return env.run(until=proc)

    cold = [pull_pair(False) for _ in range(repetitions)]
    warm = [pull_pair(True) for _ in range(repetitions)]
    rows = [
        ["derived image, cold cache", round(summarize(cold).median, 3)],
        ["derived image, base layers cached", round(summarize(warm).median, 3)],
        ["saving (s)", round(summarize(cold).median - summarize(warm).median, 3)],
    ]
    return ExperimentResult(
        experiment_id="Ablation A4",
        title="Layer-cache sharing across images",
        headers=["scenario", "median pull (s)"],
        rows=rows,
        paper_shape=(
            "'popular base layers of the image might also be included in "
            "other cached images and thus already be on disk' — shared "
            "layers are skipped on pull."
        ),
    )


def run_ablation_flow_occupancy(
    n_services: int = 8,
    n_clients: int = 10,
    duration_s: float = 160.0,
) -> ExperimentResult:
    """A3: why FlowMemory lets switch idle timeouts stay low.

    The same periodic workload runs under a *low* (5 s) and a *high*
    (120 s) switch idle timeout.  With the low timeout the table stays
    small — expired flows are reinstalled from FlowMemory at packet-in
    cost; with the high timeout every (client, service) pair
    accumulates in the switch.
    """
    import dataclasses as _dc

    from repro.services import DEFAULT_CALIBRATION

    def run_once(switch_idle_s: float):
        calibration = _dc.replace(
            DEFAULT_CALIBRATION,
            switch_idle_timeout_s=switch_idle_s,
            memory_idle_timeout_s=600.0,
        )
        tb = C3Testbed(
            TestbedConfig(cluster_types=("docker",)), calibration=calibration
        )
        services = [tb.register_template(NGINX) for _ in range(n_services)]
        for svc in services:
            tb.prepare_created(tb.docker_cluster, svc)

        table_samples: list[int] = []
        latencies: list[float] = []

        def sampler(env):
            while True:
                yield env.timeout(2.0)
                table_samples.append(
                    sum(
                        1
                        for e in tb.switch.table
                        if str(e.cookie or "").startswith("redirect:")
                    )
                )

        def client_loop(env, client, svc, offset):
            yield env.timeout(offset)
            while env.now < start + duration_s:
                result = yield from tb.http_request(client, svc, NGINX.request)
                latencies.append(result.time_total)
                yield env.timeout(REQUEST_PERIOD_S)

        start = tb.env.now
        tb.env.process(sampler(tb.env))
        for i in range(n_clients):
            for j, svc in enumerate(services):
                tb.env.process(
                    client_loop(
                        tb.env,
                        tb.clients[i % 20],
                        svc,
                        offset=(i * 0.37 + j * 0.73) % REQUEST_PERIOD_S,
                    )
                )
        tb.env.run(until=start + duration_s + 5.0)
        return {
            "peak_table": max(table_samples),
            "mean_table": sum(table_samples) / len(table_samples),
            "median_latency": summarize(latencies).median,
            "memory_hits": tb.controller.stats["memory_hits"],
        }

    low = run_once(5.0)
    high = run_once(120.0)
    rows = [
        [
            "low idle (5 s) + FlowMemory",
            low["peak_table"],
            round(low["mean_table"], 1),
            round(low["median_latency"], 5),
            low["memory_hits"],
        ],
        [
            "high idle (120 s)",
            high["peak_table"],
            round(high["mean_table"], 1),
            round(high["median_latency"], 5),
            high["memory_hits"],
        ],
    ]
    return ExperimentResult(
        experiment_id="Ablation A3",
        title="Switch flow-table occupancy: low idle + FlowMemory vs high idle",
        headers=[
            "configuration",
            "peak redirect entries",
            "mean entries",
            "median latency (s)",
            "memory reinstalls",
        ],
        rows=rows,
        paper_shape=(
            "§V: memorizing flows 'allows us to keep the idle timeout "
            "values in the switches low' — the table stays a fraction of "
            "the high-timeout size while latency stays in the same "
            "millisecond band."
        ),
    )


def run_ablation_flow_table(n_requests: int = 20) -> ExperimentResult:
    """A5: per-request cost of the three data-path states."""
    tb = C3Testbed(TestbedConfig(cluster_types=("docker",)))
    svc = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, svc)
    client = tb.clients[0]

    # Cold: full dispatch incl. deployment (first request).
    cold = tb.run_request(client, svc, NGINX.request).time_total

    # Warm flow: switch entry still installed.
    warm = [
        tb.run_request(client, svc, NGINX.request).time_total
        for _ in range(n_requests)
    ]

    # FlowMemory path: expire the switch entry, keep the memory entry.
    idle = tb.controller.calibration.switch_idle_timeout_s
    memory_path = []
    for _ in range(5):
        tb.env.run(until=tb.env.now + idle + 1.0)
        memory_path.append(
            tb.run_request(client, svc, NGINX.request).time_total
        )

    rows = [
        ["cold (dispatch + deployment)", round(cold, 4)],
        ["installed flow (switch only)", round(summarize(warm).median, 5)],
        ["FlowMemory reinstall (packet-in)", round(summarize(memory_path).median, 5)],
    ]
    return ExperimentResult(
        experiment_id="Ablation A5",
        title="Per-request cost of data-path states",
        headers=["path", "median time_total (s)"],
        rows=rows,
        paper_shape=(
            "Memorized flows let switch idle timeouts stay low: the "
            "reinstall path costs only a controller round trip more than "
            "an installed flow, far from a full dispatch."
        ),
        extras={"memory_hits": tb.controller.stats["memory_hits"]},
    )
