"""EdgeCluster adapter for the serverless runtime.

Lets the unchanged SDN controller deploy wasm functions side by side
with containers: the same :class:`~repro.cluster.DeploymentPlan` maps
onto a module (via the cluster's image→module table), and the fig. 4
phases become fetch / register / instantiate.  The phase order, the
port table and readiness are :class:`~repro.cluster.base.EdgeCluster`'s.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.base import DeployError, EdgeCluster
from repro.cluster.plan import DeploymentPlan
from repro.serverless.wasm import WasmInstance, WasmModule, WasmRuntime
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Host

#: Registering a fetched module with the runtime.
REGISTER_S = 0.002


class ServerlessCluster(EdgeCluster):
    """An edge site running a WebAssembly function runtime."""

    #: First port a registered function is served on.
    PORT_BASE = 25000

    def __init__(
        self,
        env: Environment,
        name: str,
        host: "Host",
        runtime: WasmRuntime,
        module_map: _t.Mapping[str, WasmModule],
        distance: int = 0,
    ) -> None:
        super().__init__(env, name, host, distance)
        self.runtime = runtime
        #: image reference -> wasm module implementing the same service.
        self.module_map = dict(module_map)
        self._registered: set[str] = set()
        self._instances: dict[str, list[WasmInstance]] = {}

    def _module_for(self, plan: DeploymentPlan) -> WasmModule:
        reference = plan.serving_container.image.reference
        module = self.module_map.get(reference)
        if module is None:
            raise DeployError(
                f"{self.name}: no wasm build of {reference!r} available"
            )
        return module

    # -- runtime steps ------------------------------------------------------

    def pull(self, plan: DeploymentPlan):
        yield from self.runtime.fetch(self._module_for(plan))

    def _check_create(self, plan: DeploymentPlan) -> None:
        if not self.image_cached(plan):
            raise DeployError(
                f"{self.name}: module for {plan.service_name!r} not fetched"
            )

    def _create_instance(self, plan: DeploymentPlan, port: int):
        """Register the function (no containers to prepare)."""
        yield self.env.timeout(REGISTER_S)
        self._registered.add(plan.service_name)

    def _start_instance(self, plan: DeploymentPlan):
        instance = yield from self.runtime.instantiate(
            self._module_for(plan), self._ports[plan.service_name]
        )
        self._instances.setdefault(plan.service_name, []).append(instance)

    def scale_down(self, plan: DeploymentPlan):
        for instance in self._instances.pop(plan.service_name, []):
            yield from self.runtime.terminate(instance)

    def _remove_instance(self, plan: DeploymentPlan):
        yield from self.scale_down(plan)
        self._registered.discard(plan.service_name)

    def delete_images(self, plan: DeploymentPlan):
        freed = self.runtime.drop_module(self._module_for(plan).name)
        yield self.env.timeout(0.0)
        return freed

    # -- state ------------------------------------------------------------------

    def image_cached(self, plan: DeploymentPlan) -> bool:
        return self.runtime.has_module(self._module_for(plan).name)

    def is_created(self, plan: DeploymentPlan) -> bool:
        return plan.service_name in self._registered

    def running_services(self) -> set[str]:
        return {name for name, instances in self._instances.items() if instances}
