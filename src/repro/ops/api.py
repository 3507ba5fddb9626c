"""The simulated-HTTP operational REST API.

An :class:`OpsApp` is an :class:`~repro.net.host.Application` served on
every site's EGS host at :data:`OPS_PORT` — the same idiom as the
migration daemon on :7077.  Responses are
:class:`~repro.net.DataResponse` objects: ``body_bytes`` is the
encoded-JSON length (so the reply pays size-faithful serialization on
the way back) and ``payload`` carries the decoded document for in-sim
consumers (``tools/opsctl.py``, tests).

Route table (exact-path dispatch; unknown → 404, known path with the
wrong method → 405, malformed or unknown query parameters → 400):

========================  ======  =========================================
path                      method  payload
========================  ======  =========================================
``/services``             GET     registered services
``/services?template=K``  POST    register template ``K`` (501 without a
                                  registrar; 400 unknown template)
``/instances[?service=]`` GET     known instance observations
``/flows[?service=]``     GET     memorized flows
``/breakers``             GET     breaker states + timestamped transitions
``/migrations``           GET     migration outcomes
``/clusters``             GET     local clusters + switch counters
``/metrics``              GET     recorder counters/summaries + stats
``/metrics/links``        GET     link utilization + per-service rates
========================  ======  =========================================

Every GET payload is ``{"schema_version": ..., "site": ..., "now": ...,
<family>: [...]}``.
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t

from repro.net.packet import DataResponse, HTTPRequest, HTTPResponse
from repro.ops.model import SCHEMA_VERSION
from repro.ops.readmodel import OpsReadModel

__all__ = ["OPS_PORT", "OpsApp"]

#: Every site's EGS host serves the ops API here.
OPS_PORT = 7080

#: Query parameters each GET route accepts (strict: anything else 400s).
_ALLOWED_PARAMS: dict[str, frozenset[str]] = {
    "services": frozenset(),
    "instances": frozenset({"service"}),
    "flows": frozenset({"service"}),
    "breakers": frozenset(),
    "migrations": frozenset(),
    "clusters": frozenset(),
    "metrics": frozenset(),
}

#: Route families a GET may address (``/metrics/links`` is the one
#: two-segment path).
_GET_FAMILIES = frozenset(_ALLOWED_PARAMS) | {"metrics/links"}


class OpsApp:
    """The per-site operational REST endpoint (an ``Application``)."""

    def __init__(
        self,
        readmodel: OpsReadModel,
        register: _t.Callable[[str], _t.Any] | None = None,
    ) -> None:
        self.readmodel = readmodel
        #: ``POST /services`` hook: called with the template key; must
        #: raise ``KeyError`` for an unknown template and return the
        #: registered service.  ``None`` → 501 (read-only deployment).
        self.register = register

    def handle(
        self, request: HTTPRequest
    ) -> "_t.Generator[_t.Any, _t.Any, HTTPResponse]":
        return self._serve(request)
        yield  # pragma: no cover - generator protocol; never blocks

    # -- dispatch ----------------------------------------------------------

    def _serve(self, request: HTTPRequest) -> HTTPResponse:
        path, _, query = request.path.partition("?")
        route = path.strip("/")
        params: dict[str, str] = {}
        if query:
            for pair in query.split("&"):
                if "=" not in pair:
                    return HTTPResponse(status=400)
                name, value = pair.split("=", 1)
                params[name] = value

        if route == "services" and request.method == "POST":
            return self._register(params)
        if request.method != "GET":
            # POST/PUT/... against a known GET-only path is a method
            # error, not a missing resource.
            if route in _GET_FAMILIES:
                return HTTPResponse(status=405)
            return HTTPResponse(status=404)
        if route == "metrics/links":
            if params:
                return HTTPResponse(status=400)
            return self._metrics_links()
        allowed = _ALLOWED_PARAMS.get(route)
        if allowed is None:
            return HTTPResponse(status=404)
        if not set(params) <= allowed:
            return HTTPResponse(status=400)
        handler: _t.Callable[[dict[str, str]], HTTPResponse] = getattr(
            self, f"_get_{route}"
        )
        return handler(params)

    # -- responses ---------------------------------------------------------

    def _envelope(self, **families: _t.Any) -> DataResponse:
        payload: dict[str, _t.Any] = {
            "schema_version": SCHEMA_VERSION,
            "site": self.readmodel.site,
            "now": self.readmodel.env.now,
        }
        payload.update(families)
        return _json_response(200, payload)

    def _get_services(self, params: dict[str, str]) -> HTTPResponse:
        return self._envelope(
            services=[dataclasses.asdict(v) for v in self.readmodel.services()]
        )

    def _get_instances(self, params: dict[str, str]) -> HTTPResponse:
        views = self.readmodel.instances()
        service = params.get("service")
        if service is not None:
            views = tuple(v for v in views if v.service_name == service)
        return self._envelope(instances=[dataclasses.asdict(v) for v in views])

    def _get_flows(self, params: dict[str, str]) -> HTTPResponse:
        views = self.readmodel.flows()
        service = params.get("service")
        if service is not None:
            views = tuple(v for v in views if v.service_name == service)
        return self._envelope(flows=[dataclasses.asdict(v) for v in views])

    def _get_breakers(self, params: dict[str, str]) -> HTTPResponse:
        return self._envelope(
            breakers=[dataclasses.asdict(v) for v in self.readmodel.breakers()]
        )

    def _get_migrations(self, params: dict[str, str]) -> HTTPResponse:
        rows = self.readmodel.migrations()
        return self._envelope(migrations=[dataclasses.asdict(o) for o in rows])

    def _get_clusters(self, params: dict[str, str]) -> HTTPResponse:
        return self._envelope(
            clusters=[dataclasses.asdict(v) for v in self.readmodel.clusters()],
            switches=[dataclasses.asdict(v) for v in self.readmodel.switches()],
        )

    def _get_metrics(self, params: dict[str, str]) -> HTTPResponse:
        return _json_response(200, self.readmodel.metrics())

    def _metrics_links(self) -> HTTPResponse:
        links = self.readmodel.link_stats()
        return self._envelope(
            links=[dataclasses.asdict(r) for r in links],
            service_rates=[
                dataclasses.asdict(v) for v in self.readmodel.service_rates()
            ],
        )

    def _register(self, params: dict[str, str]) -> HTTPResponse:
        if self.register is None:
            return HTTPResponse(status=501)
        if set(params) != {"template"}:
            return HTTPResponse(status=400)
        try:
            service = self.register(params["template"])
        except (KeyError, ValueError):
            # Unknown template key or malformed service definition.
            return HTTPResponse(status=400)
        return _json_response(
            201,
            {
                "schema_version": SCHEMA_VERSION,
                "site": self.readmodel.site,
                "registered": getattr(service, "name", str(service)),
            },
        )


def _json_response(status: int, payload: dict[str, _t.Any]) -> DataResponse:
    """A response whose wire size is the payload's encoded length."""
    encoded = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return DataResponse(
        status=status, body_bytes=len(encoded), payload=payload
    )
