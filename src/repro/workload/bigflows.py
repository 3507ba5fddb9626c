"""Synthetic bigFlows-like request trace.

We cannot ship the bigFlows.pcap capture, so we generate traces that
reproduce the published marginals the evaluation depends on:

* exactly ``n_services`` services (paper: 42), each receiving at least
  ``min_requests_per_service`` requests (paper: 20),
* exactly ``n_requests`` requests total (paper: 1708) over
  ``duration_s`` seconds (paper: 300),
* a heavy-tailed request count per service (a handful of hot services
  dominate, as in fig. 9),
* service *first occurrences* concentrated near the start of the
  capture — the pcap begins with many live conversations — yielding
  fig. 10's burst of deployments (up to 8 per second early on).

Generation is fully deterministic given the seed: every draw comes
from one ``random.Random(seed)`` — Mersenne Twister with the same
``shuffle``, ``uniform``, ``expovariate`` and ``randrange`` on every
CPython 3.x — so a seed names the same trace on every interpreter.
"""

from __future__ import annotations

import dataclasses
import random
import typing as _t


@dataclasses.dataclass(frozen=True)
class RequestEvent:
    """One client request in the trace."""

    time_s: float
    service_index: int
    client_index: int


@dataclasses.dataclass(frozen=True)
class BigFlowsParams:
    """Trace-shape parameters (defaults = the paper's workload)."""

    n_services: int = 42
    n_requests: int = 1708
    duration_s: float = 300.0
    min_requests_per_service: int = 20
    n_clients: int = 20
    #: Zipf-ish skew of the per-service request counts.
    skew: float = 1.1
    #: Fraction of services whose conversations are live at capture
    #: start (first request within the first couple of seconds).
    early_fraction: float = 0.45
    #: Window (seconds) in which "early" services first appear.
    early_window_s: float = 3.0
    #: Mean of the exponential start-time distribution for the rest.
    late_start_mean_s: float = 45.0

    def __post_init__(self) -> None:
        if self.n_services < 1 or self.n_requests < self.n_services:
            raise ValueError("need at least one request per service")
        if self.min_requests_per_service * self.n_services > self.n_requests:
            raise ValueError(
                "min_requests_per_service * n_services exceeds n_requests"
            )
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.early_fraction <= 1:
            raise ValueError("early_fraction must be in [0, 1]")


def _request_counts(params: BigFlowsParams, rng: random.Random) -> list[int]:
    """Heavy-tailed per-service counts, each >= the minimum, summing
    exactly to ``n_requests``."""
    base = params.min_requests_per_service
    extra_total = params.n_requests - base * params.n_services
    # Zipf-like weights over a random permutation of ranks.
    ranks = list(range(1, params.n_services + 1))
    rng.shuffle(ranks)
    weights = [1.0 / rank**params.skew for rank in ranks]
    total = sum(weights)
    weights = [w / total for w in weights]
    extras = [int(w * extra_total) for w in weights]
    # Distribute the rounding remainder to the largest weights.
    shortfall = extra_total - sum(extras)
    order = sorted(range(params.n_services), key=weights.__getitem__, reverse=True)
    for i in range(shortfall):
        extras[order[i % params.n_services]] += 1
    return [base + extra for extra in extras]


def _start_times(params: BigFlowsParams, rng: random.Random) -> list[float]:
    """First-occurrence time per service (bursty at capture start)."""
    n_early = int(round(params.early_fraction * params.n_services))
    early = [rng.uniform(0.0, params.early_window_s) for _ in range(n_early)]
    late = [
        min(rng.expovariate(1 / params.late_start_mean_s), params.duration_s * 0.9)
        for _ in range(params.n_services - n_early)
    ]
    return early + late


def generate_trace(
    params: BigFlowsParams | None = None, seed: int = 42
) -> list[RequestEvent]:
    """Generate the full request trace, sorted by time."""
    params = params or BigFlowsParams()
    rng = random.Random(seed)

    counts = _request_counts(params, rng)
    starts = _start_times(params, rng)

    events: list[RequestEvent] = []
    for service_index, (count, start) in enumerate(zip(counts, starts)):
        span = max(params.duration_s - start, 1.0)
        # First request at the service's start; the rest spread as a
        # Poisson process over the remaining capture.
        rate = 1 / (span / max(count - 1, 1))
        offsets = [0.0]
        for _ in range(count - 1):
            offsets.append(offsets[-1] + rng.expovariate(rate))
        for offset in offsets:
            t = min(start + offset, params.duration_s - 1e-6)
            client = rng.randrange(params.n_clients)
            events.append(RequestEvent(t, service_index, client))

    events.sort(key=lambda e: (e.time_s, e.service_index))
    return events


def first_occurrences(events: _t.Sequence[RequestEvent]) -> dict[int, float]:
    """Time of each service's first request (the deployment times of
    fig. 10 when nothing is pre-deployed)."""
    firsts: dict[int, float] = {}
    for event in events:
        if event.service_index not in firsts:
            firsts[event.service_index] = event.time_s
    return firsts


def requests_per_bucket(
    events: _t.Sequence[RequestEvent], bucket_s: float, duration_s: float
) -> list[int]:
    """Histogram of request times (fig. 9's series)."""
    n = max(1, int(duration_s / bucket_s + 0.5))
    counts = [0] * n
    for event in events:
        idx = int(event.time_s / bucket_s)
        if 0 <= idx < n:
            counts[idx] += 1
    return counts
