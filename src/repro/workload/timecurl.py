"""The timecurl measurement client.

"We measured the times using our timecurl.sh script.  The time_total
provided by Curl includes everything from when Curl starts
establishing a TCP connection until it gets a response for the HTTP
request." (§VI)  :class:`TimecurlClient` wraps one simulated client
host and records exactly that quantity.
"""

from __future__ import annotations

import dataclasses

from repro.core.service_registry import EdgeService
from repro.metrics import MetricsRecorder
from repro.net.host import ConnectionRefused, ConnectionReset, ConnectionTimeout, Host
from repro.net.packet import HTTPRequest


@dataclasses.dataclass(frozen=True)
class TimecurlSample:
    """One measured request."""

    service_name: str
    started_at: float
    time_total: float
    time_connect: float
    status: int
    ok: bool
    error: str | None = None


class TimecurlClient:
    """Measures ``time_total`` for requests from one client host."""

    def __init__(
        self,
        host: Host,
        recorder: MetricsRecorder | None = None,
        timeout_s: float = 120.0,
    ) -> None:
        self.host = host
        self.recorder = recorder if recorder is not None else MetricsRecorder()
        self.timeout_s = timeout_s
        self.samples: list[TimecurlSample] = []

    def fetch(
        self,
        service: EdgeService,
        request: HTTPRequest | None = None,
    ):
        """Issue one request (generator returning TimecurlSample)."""
        env = self.host.env
        request = request or HTTPRequest("GET", "/", body_bytes=0)
        label = service.template_key or service.name
        started = env.now
        try:
            result = yield from self.host.http_request(
                service.cloud_ip, service.port, request, timeout=self.timeout_s
            )
        except (ConnectionRefused, ConnectionReset, ConnectionTimeout) as exc:
            sample = TimecurlSample(
                service_name=service.name,
                started_at=started,
                time_total=env.now - started,
                time_connect=0.0,
                status=0,
                ok=False,
                error=type(exc).__name__,
            )
            self.samples.append(sample)
            self.recorder.record(f"timecurl_errors/{label}", 1.0)
            return sample
        sample = TimecurlSample(
            service_name=service.name,
            started_at=started,
            time_total=result.time_total,
            time_connect=result.time_connect,
            status=result.response.status,
            ok=result.response.ok,
        )
        self.samples.append(sample)
        self.recorder.record(f"time_total/{label}", result.time_total)
        self.recorder.mark(f"requests/{label}", started)
        return sample
