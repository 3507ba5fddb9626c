"""Each workload at a tiny size: every named metric, exact repeats."""

import functools
import json
import os
import subprocess
import sys

import pytest

import harness
import run
import workloads
from conftest import BENCH_DIR

SPEC = run.load_spec()
WORKLOADS = list(SPEC["workloads"])


@functools.lru_cache(maxsize=None)
def measure(name: str, trace: int, hashseed: str = "0", attempt: int = 0) -> dict:
    """One tiny run in a fresh subprocess (``attempt`` defeats the cache)."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(BENCH_DIR, "run.py"), "--child", "--tiny",
            "--workload", name, "--trace", str(trace), "--seconds", "0.2",
            "--seed", "42",
        ],
        env=dict(os.environ, PYTHONHASHSEED=hashseed),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def exact(document: dict) -> dict:
    """The part of a result that must repeat bit for bit."""
    return {
        "attempted": document["attempted"],
        "failed": document["failed"],
        "fingerprints": document["fingerprints"],
        "metrics": {
            name: row["value"]
            for name, row in document["metrics"].items()
            if row["unit"] not in harness.HOST_UNITS
        },
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics(name):
    document = measure(name, 0)
    assert document["correct"], document["problems"]
    assert document["repeats"] >= 3
    assert list(document["metrics"]) == list(SPEC["end_to_end"])
    for metric, row in document["metrics"].items():
        assert row["value"] > 0, metric
        assert row["unit"] == SPEC["end_to_end"][metric]["unit"]
    for metric in ("setup_s", "wall_s", "requests_per_s"):
        row = document["metrics"][metric]
        assert row["min"] <= row["q1"] <= row["value"] <= row["q3"]
        assert row["n"] == document["repeats"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_per_layer_metrics(name):
    document = measure(name, 1)
    assert document["correct"], document["problems"]
    metrics = document["metrics"]
    assert list(metrics) == list(SPEC["per_layer"])
    shares = [row["value"] for key, row in metrics.items() if key.endswith(".share")
              and key != "sim.parallel.barrier_idle_share"]
    assert abs(sum(shares) - 1.0) < 1e-9
    assert metrics["python.share"]["value"] <= 0.05
    # A forked tiny run is pipes and scheduling; its two walls are noise.
    floor = 0.0 if name == "shard_replay" else 1.0
    assert metrics["trace.overhead_x"]["value"] > floor
    assert metrics["sim.events"]["value"] > 0
    assert metrics["workload.calls_per_req"]["value"] > 0
    assert document["fingerprints"]["profiled_calls"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_values_repeat_across_runs_and_hash_seeds(name):
    first = exact(measure(name, 1))
    assert any(key.endswith(".calls_per_req") for key in first["metrics"])
    assert exact(measure(name, 1, attempt=1)) == first
    assert exact(measure(name, 1, hashseed="7")) == first


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_runs_agree(name):
    plain, traced = measure(name, 0), measure(name, 1)
    assert plain["fingerprints"]["latency_md5"] == traced["fingerprints"]["latency_md5"]
    # The traced run makes two repeats, the plain one at least three.
    assert plain["attempted"] * 2 == traced["attempted"] * plain["repeats"]


def test_workload_specific_metrics_are_live():
    """Each family of layer metrics moves on the workload built for it."""
    cold = measure("cold_deploy", 1)["metrics"]
    assert cold["cluster.k8s.first_request_p50_s"]["value"] > 2.0
    assert cold["cluster.docker.first_request_p50_s"]["value"] < 1.0
    assert cold["k8s.selector_matches_per_deploy"]["value"] > 0
    assert cold["cluster.k8s.host_ms_per_deploy"]["value"] > 0
    assert cold["containers.registry_bytes"]["value"] > 0
    churn = measure("c3_churn", 1)["metrics"]
    assert churn["core.controller.scale_downs"]["value"] > 0
    assert churn["net.openflow.table_writes_per_req"]["value"] > 0
    fed = measure("fed_replay", 1)["metrics"]
    assert fed["core.state.cross_site_redirects"]["value"] > 0
    assert fed["core.state.replica_writes_per_req"]["value"] > 0
    assert fed["ops.collections"]["value"] > 0
    storm = measure("handover_storm", 1)["metrics"]
    assert storm["core.migration.completed"]["value"] == 1
    assert storm["core.migration.bytes_moved"]["value"] > 0
    assert storm["core.controller.flows_repointed"]["value"] > 0
    shard = measure("shard_replay", 1)["metrics"]
    assert shard["sim.parallel.rounds"]["value"] > 0
    assert shard["sim.parallel.serial_wall_s"]["value"] > 0
    assert shard["sim.parallel.self_s"]["value"] > 0
    replay = measure("c3_replay", 1)["metrics"]
    assert replay["sim.parallel.rounds"]["value"] == 0
    assert 0 < replay["net.openflow.slow_lookup_ratio"]["value"] < 1


@pytest.mark.parametrize("name", [w for w in WORKLOADS if w != "shard_replay"])
def test_layer_self_times_sum_to_the_traced_wall(name):
    """In-process workloads: one profile, one wall (shard_replay has a
    profile per forked process and no single wall to sum to)."""
    metrics = {k: row["value"] for k, row in measure(name, 1)["metrics"].items()}
    layers_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    plain_wall_s = metrics["sim.us_per_event"] * metrics["sim.events"] / 1e6
    traced_wall_s = metrics["trace.overhead_x"] * plain_wall_s
    assert abs(layers_s - traced_wall_s) <= 0.01 * traced_wall_s


def test_churn_arrivals_stay_clear_of_the_flow_memory_sweep():
    """c3_churn issues nothing while a sweep may be stopping an idle
    instance (the program loses such a request), and keeps its order."""
    base_s = 6.495
    trace = [workloads.RequestEvent(0.0137 * k, k % 42, k % 200) for k in range(2_000)]
    moved = workloads.clear_of_sweeps(trace, base_s)
    before_s, after_s = workloads.SWEEP_QUIET_S
    for was, now in zip(trace, moved):
        into_s = (base_s + now.time_s) % workloads.SWEEP_PERIOD_S
        assert after_s - 1e-9 <= into_s <= workloads.SWEEP_PERIOD_S - before_s + 1e-9
        assert abs(now.time_s - was.time_s) <= max(before_s, after_s)
        assert now.service_index == was.service_index
        assert now.client_index == was.client_index
    assert all(a.time_s < b.time_s for a, b in zip(moved, moved[1:]))
