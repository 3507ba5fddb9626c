"""Tests for the experiment runners (reduced sizes; full sizes run in
``tests/figures/``)."""

from __future__ import annotations

import inspect

import pytest

from repro.experiments import (
    EXPERIMENTS,
    FAST_KWARGS,
    run_experiment,
    run_fig11_scale_up,
    run_fig12_create_scale_up,
    run_fig13_pull,
    run_fig14_wait_after_scale_up,
    run_fig16_warm_requests,
    run_scale_up_experiment,
    run_table1,
    run_trace_replay,
)
from repro.experiments.base import ExperimentResult
from repro.services.catalog import ASM, NGINX
from repro.workload import BigFlowsParams


class TestExperimentResult:
    def test_render_and_accessors(self):
        result = ExperimentResult(
            experiment_id="X",
            title="t",
            headers=["k", "v"],
            rows=[["a", 1], ["b", 2]],
            paper_shape="shape",
        )
        text = result.render()
        assert "X: t" in text and "shape" in text
        assert result.cell("a", "v") == 1
        assert result.cell("b", "v") == 2

    def test_missing_row_error_names_experiment_and_keys(self):
        result = ExperimentResult(
            experiment_id="Fig. 11",
            title="t",
            headers=["k", "v"],
            rows=[["a", 1], ["b", 2]],
        )
        with pytest.raises(KeyError) as excinfo:
            result.cell("c", "v")
        message = str(excinfo.value)
        assert "Fig. 11" in message  # which experiment
        assert "'c'" in message  # what was asked for
        assert "'a'" in message and "'b'" in message  # what exists

    def test_missing_column_error_names_experiment_and_headers(self):
        result = ExperimentResult(
            experiment_id="Fig. 11",
            title="t",
            headers=["k", "v"],
            rows=[["a", 1]],
        )
        with pytest.raises(KeyError) as excinfo:
            result.cell("a", "nope")
        message = str(excinfo.value)
        assert "Fig. 11" in message
        assert "'nope'" in message
        assert "'k'" in message and "'v'" in message

    def test_registry_complete(self):
        expected = {
            "table1", "fig09", "fig10", "fig11", "fig12", "fig13",
            "fig14", "fig15", "fig16", "trace",
            "ablation_waiting", "ablation_hybrid",
            "ablation_layer_cache", "ablation_flow_table",
            "ablation_flow_occupancy",
            "extension_serverless", "extension_proactive", "extension_load",
            "extension_breakdown", "extension_hierarchy",
            "extension_federation", "extension_migration", "resilience",
        }
        assert set(EXPERIMENTS) == expected


class TestRunExperiment:
    def test_matches_direct_runner(self):
        assert run_experiment("table1").rows == run_table1().rows

    def test_unknown_experiment_names_the_available_ones(self):
        with pytest.raises(KeyError, match="unknown experiment 'fig99'") as excinfo:
            run_experiment("fig99")
        assert "table1" in str(excinfo.value)

    def test_fast_kwargs_name_real_parameters(self):
        # Catches a typo in the table without running anything.
        assert set(FAST_KWARGS) <= set(EXPERIMENTS)
        for name, kwargs in FAST_KWARGS.items():
            parameters = inspect.signature(EXPERIMENTS[name]).parameters
            assert set(kwargs) <= set(parameters), name


class TestScaleUpExperiment:
    def test_scale_up_only_skips_pull_and_create(self):
        run = run_scale_up_experiment(ASM, "docker", n_instances=3, pre_create=True)
        assert run.totals and len(run.totals) == 3
        assert run.create == []  # nothing created during the dispatch
        assert len(run.wait_ready) == 3

    def test_create_mode_records_create(self):
        run = run_scale_up_experiment(ASM, "docker", n_instances=3, pre_create=False)
        assert len(run.create) == 3

    def test_cache_returns_same_object(self):
        a = run_scale_up_experiment(ASM, "docker", n_instances=2)
        b = run_scale_up_experiment(ASM, "docker", n_instances=2)
        assert a is b

    def test_docker_vs_k8s_gap(self):
        docker = run_scale_up_experiment(NGINX, "docker", n_instances=3)
        k8s = run_scale_up_experiment(NGINX, "k8s", n_instances=3)
        assert k8s.total_summary.median > 3 * docker.total_summary.median


class TestFigureRunners:
    def test_fig11_small(self):
        result = run_fig11_scale_up(n_instances=3, services=(ASM, NGINX))
        assert len(result.rows) == 2
        assert result.cell("Asm", "docker median (s)") < 1.0
        assert result.cell("Asm", "k8s median (s)") > 2.0

    def test_fig14_waits_never_exceed_fig11_totals(self):
        # Wait-until-ready is a component of the total, cell by cell.
        fig11 = run_fig11_scale_up(n_instances=2, services=(ASM, NGINX))
        fig14 = run_fig14_wait_after_scale_up(n_instances=2, services=(ASM, NGINX))
        for row11, row14 in zip(fig11.rows, fig14.rows):
            assert row11[0] == row14[0]
            assert all(w <= t for w, t in zip(row14[1:], row11[1:]))

    def test_fig12_exceeds_fig11(self):
        fig11 = run_fig11_scale_up(n_instances=3, services=(NGINX,))
        fig12 = run_fig12_create_scale_up(n_instances=3, services=(NGINX,))
        assert (
            fig12.cell("Nginx", "docker median (s)")
            > fig11.cell("Nginx", "docker median (s)")
        )

    def test_fig13_private_beats_public(self):
        result = run_fig13_pull(services=(NGINX,), repetitions=2)
        assert result.cell("Nginx", "private median (s)") < result.cell(
            "Nginx", "public median (s)"
        )

    def test_fig16_resnet_slowest(self):
        from repro.services.catalog import RESNET

        result = run_fig16_warm_requests(
            services=(NGINX, RESNET), cluster_types=("docker",), n_requests=5
        )
        assert result.cell("ResNet", "docker median (s)") > 10 * result.cell(
            "Nginx", "docker median (s)"
        )

    def test_table1_row_count(self):
        assert len(run_table1().rows) == 4

    def test_trace_replay_small(self):
        params = BigFlowsParams(n_services=6, n_requests=130, duration_s=40.0)
        result = run_trace_replay(params=params, seed=7)
        metrics = {row[0]: row[1] for row in result.rows}
        assert metrics["requests issued"] == 130
        assert metrics["request errors"] == 0
        assert metrics["services deployed"] == 6


class TestResilience:
    def test_degradation_keeps_availability_and_breaker_cuts_failures(self):
        from repro.experiments import run_resilience

        result = run_resilience(
            failure_rates=(0.95,), n_clients=3, n_rounds=6
        )
        # Graceful degradation: no client-visible errors either way.
        availability = result.headers.index("Availability (%)")
        assert {row[availability] for row in result.rows} == {"100.0"}
        by_mode = {row[1]: row for row in result.rows}
        # The breaker stops the doomed re-deployments...
        failed = result.headers.index("Failed deploys")
        assert by_mode["on"][failed] < by_mode["off"][failed]
        assert by_mode["on"][result.headers.index("Breaker opens")] >= 1
        # ...and the median collapses to the fast-path serving latency.
        p50 = result.headers.index("p50 (s)")
        assert by_mode["on"][p50] < by_mode["off"][p50]


class TestFederationExperiment:
    def test_small_sweep_shapes(self):
        from repro.experiments import run_extension_d1_federation

        result = run_extension_d1_federation(
            site_counts=(1, 2), delays=(0.025,), fixed_sites=2
        )
        assert [row[0] for row in result.rows] == [
            "sites=1", "sites=2", "delay=25ms",
        ]
        # Single site: no cross-site columns.
        assert result.cell("sites=1", "remote first-packet (s)") == "-"
        assert result.cell("sites=1", "cross-site redirects") == 0
        # Two sites: the peer's first packet is served cross-site,
        # faster than the origin's cold start, slower than warm local.
        warm = result.cell("sites=2", "warm local (s)")
        remote = result.cell("sites=2", "remote first-packet (s)")
        cold = result.cell("sites=2", "cold first-packet (s)")
        assert warm < remote < cold
        assert result.cell("sites=2", "cross-site redirects") >= 1
        # Concurrent cold starts inside the propagation window: every
        # site deploys its own copy, and every request succeeds.
        assert result.cell("sites=2", "duplicate deployments") == 2
        assert result.cell("sites=2", "concurrent ok") == "2/2"
