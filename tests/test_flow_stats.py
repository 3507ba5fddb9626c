"""Tests for the stats-fed predictor: warm traffic reaches it through
the flow-stats collector, the one poller of switch counters."""

from __future__ import annotations

import dataclasses

from repro.services import DEFAULT_CALIBRATION
from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, TestbedConfig


def _warm_testbed(flow_stats_period_s: float | None) -> tuple[C3Testbed, object]:
    """One cold request, then a warm request every 6 s: all warm
    traffic rides the installed flow (idle timeout is huge)."""
    calibration = dataclasses.replace(
        DEFAULT_CALIBRATION, switch_idle_timeout_s=600.0
    )
    tb = C3Testbed(
        TestbedConfig(
            cluster_types=("docker",), flow_stats_period_s=flow_stats_period_s
        ),
        calibration=calibration,
    )
    tb.controller.enable_proactive(check_interval_s=1e6)  # deployer off
    svc = tb.register_template(NGINX)
    tb.prepare_created(tb.docker_cluster, svc)
    for _ in range(6):
        tb.run_request(tb.clients[0], svc, NGINX.request)
        tb.env.run(until=tb.env.now + 6.0)
    assert tb.controller.stats["packet_in"] == 1
    return tb, svc


class TestStatsFedPredictor:
    def test_sampler_sees_warm_traffic(self):
        """Warm requests never reach the controller as packet-ins, but
        a testbed with a collector feeds its per-service rates to the
        predictor — no option to set."""
        tb, svc = _warm_testbed(flow_stats_period_s=2.0)
        assert tb.collector.collections > 5
        # The predictor learned the ~6 s period from one packet-in plus
        # the collector's windows.
        interval = tb.controller.predictor.interval_estimate(svc.name)
        assert interval is not None and 3.0 < interval < 10.0

    def test_without_sampler_predictor_is_blind_to_warm_traffic(self):
        tb, svc = _warm_testbed(flow_stats_period_s=None)
        assert tb.collector is None
        # Only the single cold packet-in was observed: no interval yet.
        assert tb.controller.predictor.interval_estimate(svc.name) is None
