"""Periodic flow/port-counter collection with delta/rate windows.

The one poller of switch counters, out of band the way the RL-SDN
controller derives ``/metrics/links``.  It is built to be
**md5-neutral**: it reads the switch's counter dictionaries and
flow-table entries directly inside a scheduled callback — never
through OpenFlow request messages (which would put real messages on
the control channel and perturb the timing being measured), never
drawing random numbers, never mutating anything the data path reads.
The only events it adds are its own periodic ticks and the
shared-state propagation of the published rows, both timing-isolated
from request traffic; the parity tests in ``tests/test_ops_api.py``
gate that byte-identity.

Per tick it derives:

* **link utilization** — the switch's ``tx`` packet delta over the
  window, converted to bits with a nominal bytes/packet estimate (the
  simulated switch counts packets, not bytes) and divided by each
  monitored link's bandwidth.  Published as
  :class:`~repro.core.state.LinkStatsRecord` rows through the control
  plane's replicated state, so remote sites see this site's load.
* **per-service packet rates** — flow-entry ``packet_count`` deltas
  grouped by the ``redirect:{service}:{client}`` / ``intercept:{service}``
  cookie prefixes the controller stamps on its entries.  Warm traffic
  never produces a packet-in, so these rates are also how a request
  predictor hears about it (``on_service_rates`` ->
  :meth:`~repro.core.controller.EdgeController.observe_service_rates`).
"""

from __future__ import annotations

import typing as _t

from repro.core.state import ControlPlaneState, LinkStatsRecord
from repro.ops.model import ServiceRateView

if _t.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.metrics import MetricsRecorder
    from repro.net.link import Link
    from repro.net.openflow.switch import OpenFlowSwitch
    from repro.sim import Environment

__all__ = ["FlowStatsCollector", "DEFAULT_BYTES_PER_PACKET"]

#: Nominal wire bytes per forwarded packet for the bits/s estimate:
#: the simulated switch counts packets, not bytes, so link load is
#: reconstructed as ``packets × estimate × 8``.  The default sits
#: between bare-ACK (66 B) and response-burst packets.
DEFAULT_BYTES_PER_PACKET = 600.0


def _service_of(cookie: _t.Any) -> str | None:
    """The service a flow cookie names (``redirect:<service>:<client>``,
    ``drain:<service>:<client>:<mark>``, ``intercept:<service>``), else
    ``None``."""
    text = str(cookie or "")
    if text.startswith(("redirect:", "drain:")):
        return text.split(":", 2)[1]
    if text.startswith("intercept:"):
        return text.split(":", 1)[1]
    return None


class FlowStatsCollector:
    """Polls one site's switch counters on a fixed period.

    ``links`` maps link names to the :class:`~repro.net.link.Link`
    objects whose utilization should be estimated from the switch's
    transmit counter (typically the site's uplink/trunk).  ``state``
    is the site's control-plane state; when given, every link
    observation is published as a replicated
    :class:`~repro.core.state.LinkStatsRecord` (on the stats-only
    Lamport stream, see ``SiteReplica.publish_link_stats``).
    """

    def __init__(
        self,
        env: "Environment",
        site: str,
        switch: "OpenFlowSwitch",
        links: _t.Mapping[str, "Link"],
        state: ControlPlaneState | None = None,
        period_s: float = 1.0,
        bytes_per_packet: float = DEFAULT_BYTES_PER_PACKET,
        recorder: "MetricsRecorder | None" = None,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if bytes_per_packet <= 0:
            raise ValueError("bytes_per_packet must be positive")
        self.env = env
        self.site = site
        self.switch = switch
        self.links = dict(links)
        self.state = state
        self.period_s = float(period_s)
        self.bytes_per_packet = float(bytes_per_packet)
        self.recorder = recorder
        #: Called with each window's ``(service, packets_per_s)`` pairs
        #: at the end of :meth:`collect` (set by the testbed builders,
        #: not by users).
        self.on_service_rates: (
            _t.Callable[[tuple[tuple[str, float], ...]], None] | None
        ) = None
        #: Ticks executed (diagnostics; counters only).
        self.collections = 0
        self._running = False
        # Delta-window baselines.
        self._last_time = env.now
        self._last_tx = int(switch.stats["tx"])
        self._last_service_packets: dict[str, int] = {}
        #: Flow cookie -> the service it counts for (None: none), parsed
        #: once per distinct cookie rather than per entry per tick.
        self._cookie_service: dict[_t.Any, str | None] = {}
        # Latest local observations: the link rows, and the last
        # window's rates with its instant and length, whose rows are
        # built at their first read (``None`` until then).
        self._link_views: tuple[LinkStatsRecord, ...] = ()
        self._rates: tuple[tuple[str, float], ...] = ()
        self._rates_at = 0.0
        self._rates_window = 0.0
        self._rate_views: tuple[ServiceRateView, ...] | None = ()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FlowStatsCollector":
        """Arm the periodic tick (idempotent)."""
        if not self._running:
            self._running = True
            self._last_time = self.env.now
            self._last_tx = int(self.switch.stats["tx"])
            self.env.call_later(self.period_s, self._tick)
        return self

    def _tick(self) -> None:
        self.collect()
        self.env.call_later(self.period_s, self._tick)

    # -- one collection ----------------------------------------------------

    def collect(self) -> tuple[LinkStatsRecord, ...]:
        """Read counters, derive rates for the elapsed window, publish.

        Exposed for tests (hand-computed counter checks) and for
        on-demand collection; the periodic tick calls it too.
        """
        now = self.env.now
        window = now - self._last_time
        if window <= 0:
            return self._link_views
        self.collections += 1
        tx = int(self.switch.stats["tx"])
        delta_tx = tx - self._last_tx
        packets_per_s = delta_tx / window
        bits_per_s = packets_per_s * self.bytes_per_packet * 8.0

        records: list[LinkStatsRecord] = []
        for name in sorted(self.links):
            link = self.links[name]
            bandwidth = float(getattr(link, "bandwidth_bps", 0.0) or 0.0)
            utilization = bits_per_s / bandwidth if bandwidth > 0 else 0.0
            record = LinkStatsRecord(
                site=self.site,
                link=name,
                observed_at=now,
                window_s=window,
                packets_per_s=packets_per_s,
                bits_per_s=bits_per_s,
                utilization=utilization,
            )
            records.append(record)
            if self.state is not None:
                self.state.publish_link_stats(record)
        self._link_views = tuple(records)
        self._rates = self._collect_service_rates(window)
        self._rates_at, self._rates_window = now, window
        self._rate_views = None
        self._last_time = now
        self._last_tx = tx
        if self.recorder is not None:
            self.recorder.count(f"ops/collections/{self.site}")
        if self.on_service_rates is not None:
            self.on_service_rates(self._rates)
        return self._link_views

    def _collect_service_rates(self, window: float) -> tuple[tuple[str, float], ...]:
        """Per-service packet rates from flow-cookie counter deltas, as
        ``(service, packets_per_s)`` in service order."""
        totals: dict[str, int] = {}
        services = self._cookie_service
        for entry in self.switch.table:
            try:
                service = services[entry.cookie]
            except KeyError:
                service = services[entry.cookie] = _service_of(entry.cookie)
            if service is not None:
                totals[service] = totals.get(service, 0) + int(entry.packet_count)
        rates: list[tuple[str, float]] = []
        for service in sorted(totals):
            previous = self._last_service_packets.get(service, 0)
            delta = totals[service] - previous
            if delta < 0:
                # Entries expired and re-installed: the cumulative total
                # can step backwards.  Treat the new total as the rate
                # floor rather than reporting a negative rate.
                delta = totals[service]
            rates.append((service, delta / window))
        self._last_service_packets = totals
        return tuple(rates)

    # -- read-model accessors ----------------------------------------------

    def service_rate_views(self) -> tuple[ServiceRateView, ...]:
        """This site's latest per-service rate observations, built at
        the first read after a collection."""
        if self._rate_views is None:
            self._rate_views = tuple(
                ServiceRateView(
                    site=self.site,
                    service_name=service,
                    observed_at=self._rates_at,
                    window_s=self._rates_window,
                    packets_per_s=packets_per_s,
                )
                for service, packets_per_s in self._rates
            )
        return self._rate_views

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self._running else "stopped"
        return (
            f"<FlowStatsCollector {self.site} {state} "
            f"period={self.period_s}s collections={self.collections}>"
        )
