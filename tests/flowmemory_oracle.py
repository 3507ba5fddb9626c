"""The scan ``FlowMemory.service_in_use`` ran, kept as the oracle for
the per-service count that replaced it: whether any memorized flow, of
any client, is to ``service``."""

from __future__ import annotations

from repro.core.flow_memory import FlowMemory
from repro.core.service_registry import EdgeService


def service_in_use(memory: FlowMemory, service: EdgeService) -> bool:
    return any(f.service.name == service.name for f in memory._flows.values())
