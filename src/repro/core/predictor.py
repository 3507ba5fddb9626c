"""Proactive deployment via request prediction (§I / §VII).

"Of course, prediction algorithms could be used to pre-deploy the
required services just in time" (§I); the discussion closes with "More
so when combined with good prediction for proactive deployment."

This module provides that layer: a :class:`RequestPredictor` learns
per-service arrival patterns from the packet-ins the controller sees;
a :class:`ProactiveDeployer` periodically deploys services that are
predicted to be requested soon, so the first request after an idle
scale-down finds a running instance.  Prediction is best-effort by
design — the on-demand path remains the correctness backstop, exactly
the paper's argument ("a hundred percent correct prediction rate is
impossible").
"""

from __future__ import annotations

import abc
import dataclasses
import typing as _t

from repro.cluster.base import EdgeCluster
from repro.core.dispatcher import Dispatcher
from repro.core.service_registry import EdgeService, ServiceRegistry
from repro.sim import Environment


class RequestPredictor(abc.ABC):
    """Learns arrival patterns and predicts next-request times."""

    @abc.abstractmethod
    def observe(self, service_name: str, time: float) -> None:
        """Record one request arrival."""

    @abc.abstractmethod
    def predicted_next(self, service_name: str, now: float) -> float | None:
        """Estimated time of the service's next request (None: unknown)."""


@dataclasses.dataclass
class _ArrivalState:
    last_arrival: float
    ewma_interval: float | None = None
    count: int = 1


class EWMAPredictor(RequestPredictor):
    """Exponentially-weighted moving average of inter-arrival times.

    After ``min_observations`` arrivals the predictor extrapolates the
    next request as ``last_arrival + ewma_interval`` — enough to catch
    periodic workloads (telemetry uploads, polling clients) without any
    offline training.
    """

    def __init__(self, alpha: float = 0.3, min_observations: int = 3) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if min_observations < 2:
            raise ValueError("min_observations must be >= 2")
        self.alpha = alpha
        self.min_observations = min_observations
        self._state: dict[str, _ArrivalState] = {}

    def observe(self, service_name: str, time: float) -> None:
        state = self._state.get(service_name)
        if state is None:
            self._state[service_name] = _ArrivalState(last_arrival=time)
            return
        interval = time - state.last_arrival
        if interval <= 0:
            return  # simultaneous arrivals carry no period information
        if state.ewma_interval is None:
            state.ewma_interval = interval
        else:
            state.ewma_interval = (
                self.alpha * interval + (1 - self.alpha) * state.ewma_interval
            )
        state.last_arrival = time
        state.count += 1

    def predicted_next(self, service_name: str, now: float) -> float | None:
        state = self._state.get(service_name)
        if (
            state is None
            or state.ewma_interval is None
            or state.count < self.min_observations
        ):
            return None
        return state.last_arrival + state.ewma_interval

    def interval_estimate(self, service_name: str) -> float | None:
        state = self._state.get(service_name)
        return state.ewma_interval if state else None


class ProactiveDeployer:
    """Pre-deploys services predicted to be requested soon.

    Every ``check_interval_s`` it asks the predictor for each
    registered service's next-request estimate; services whose estimate
    falls within ``lead_time_s`` (and that are not running anywhere)
    are deployed in the background to the nearest cluster.
    """

    def __init__(
        self,
        env: Environment,
        dispatcher: Dispatcher,
        registry: ServiceRegistry,
        predictor: RequestPredictor,
        check_interval_s: float = 5.0,
        lead_time_s: float = 10.0,
    ) -> None:
        if check_interval_s <= 0 or lead_time_s <= 0:
            raise ValueError("intervals must be positive")
        self.env = env
        self.dispatcher = dispatcher
        self.registry = registry
        self.predictor = predictor
        self.check_interval_s = check_interval_s
        self.lead_time_s = lead_time_s
        self.stats = {"checks": 0, "proactive_deployments": 0}
        env.spawn(self._loop(), name="proactive-deployer")

    @staticmethod
    def _nearest(
        service: EdgeService, clusters: _t.Sequence[EdgeCluster]
    ) -> EdgeCluster | None:
        if not clusters:
            return None
        return min(clusters, key=lambda c: (c.distance, c.name))

    def _loop(self):
        while True:
            yield self.env.timeout(self.check_interval_s)
            self.stats["checks"] += 1
            now = self.env.now
            for service in self.registry.all():
                predicted = self.predictor.predicted_next(service.name, now)
                if predicted is None or predicted - now > self.lead_time_s:
                    continue
                if any(
                    c.is_running(service.plan) for c in self.dispatcher.clusters
                ):
                    continue
                cluster = self._nearest(service, self.dispatcher.clusters)
                if cluster is None:
                    continue
                self.stats["proactive_deployments"] += 1
                self.dispatcher.deploy_in_background(service, cluster)
