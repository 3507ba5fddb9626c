"""Drives a generated trace against the testbed.

One process per request event: at the event's time, the assigned
client issues the service's request through the transparent-edge path
and the timecurl measurement records ``time_total``.

The driver paces itself with a single walking callback instead of
pre-spawning every request process at time zero: the old shape pushed
one start event plus one ``timeout(event.time_s)`` per request onto
the heap up front, which kept ~2 heap entries per *future* request
alive for the whole run — at 50x replay that is a standing six-figure
heap whose log-factor taxes every single event.  The pacer arms one
``call_at`` for the next batch of due requests and hot-starts each
request process inline, in trace order, at exactly the instant the old
per-request timeout would have fired (same ``base + time_s`` float),
so request launch times — and the recorded latency sequences — are
byte-identical.  Requests are detached (``Environment.spawn``): each
counts itself off when its fetch returns, so a finished request costs
no heap entry, and one that raises stops ``run()`` like any unhandled
process failure.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.service_registry import EdgeService
from repro.metrics import MetricsRecorder
from repro.net.packet import HTTPRequest
from repro.sim import Environment
from repro.workload.bigflows import RequestEvent
from repro.workload.timecurl import TimecurlClient, TimecurlSample

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Host


@dataclasses.dataclass
class TraceRunSummary:
    """Outcome of a full trace run."""

    n_requests: int
    n_ok: int
    n_errors: int
    samples: list[TimecurlSample]
    #: (service_index, deployment start time) for every first request.
    first_request_times: dict[int, float]

    @property
    def time_totals(self) -> list[float]:
        return [s.time_total for s in self.samples if s.ok]


class TraceDriver:
    """Runs a trace of :class:`RequestEvent` against registered services."""

    def __init__(
        self,
        env: Environment,
        clients: _t.Sequence["Host"],
        services: _t.Sequence[EdgeService],
        requests: _t.Mapping[str, HTTPRequest] | None = None,
        recorder: MetricsRecorder | None = None,
    ) -> None:
        self.env = env
        self.services = list(services)
        self.recorder = recorder if recorder is not None else MetricsRecorder()
        self.requests = dict(requests or {})
        self.timecurls = [TimecurlClient(host, self.recorder) for host in clients]

    def run(self, events: _t.Sequence[RequestEvent]) -> TraceRunSummary:
        """Execute the whole trace; returns once every request finished."""
        first_seen: dict[int, float] = {}
        n_services = len(self.services)
        for event in events:
            if event.service_index >= n_services:
                raise ValueError(
                    f"event references service {event.service_index}, "
                    f"but only {len(self.services)} are registered"
                )
            first_seen.setdefault(event.service_index, event.time_s)

        env = self.env
        done = env.event()
        remaining = len(events)
        if not remaining:
            done.succeed(None)

        def request(client: TimecurlClient, service: EdgeService):
            # fetch() absorbs the expected connection errors into
            # samples; anything else it raises is a real bug and fails
            # this process, which stops run().
            nonlocal remaining
            yield from client.fetch(service, requests.get(service.name))
            remaining -= 1
            if not remaining:
                done.succeed(None)

        services = self.services
        timecurls = self.timecurls
        n_timecurls = len(timecurls)
        requests = self.requests
        base = env.now
        iterator = iter(events)
        pending = next(iterator, None)

        def pace() -> None:
            # Start every request due now (trace order), then re-arm
            # for the next distinct launch time.  ``base + time_s`` is
            # the same float the old per-request timeout fired at.
            nonlocal pending
            now = env._now
            while pending is not None:
                target = base + pending.time_s
                if target > now:
                    env.call_at(target, pace)
                    return
                event = pending
                pending = next(iterator, None)
                env.spawn(
                    request(
                        timecurls[event.client_index % n_timecurls],
                        services[event.service_index],
                    ),
                    hot=True,
                )

        if pending is not None:
            pace()
        env.run(until=done)

        samples = [s for tc in self.timecurls for s in tc.samples]
        samples.sort(key=lambda s: s.started_at)
        n_ok = sum(1 for s in samples if s.ok)
        return TraceRunSummary(
            n_requests=len(samples),
            n_ok=n_ok,
            n_errors=len(samples) - n_ok,
            samples=samples,
            first_request_times=first_seen,
        )
