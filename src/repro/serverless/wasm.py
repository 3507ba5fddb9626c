"""A WebAssembly function runtime.

Timing model, following the measurements Gackstatter et al. [7] report
for edge serverless with wasm runtimes:

* **fetch** — modules are single small binaries (no layers); download
  time is size/bandwidth plus one registry round trip;
* **compile** — ahead-of-time compilation happens once per module and
  is cached (``compile_ms_per_mib``);
* **instantiate** — creating an isolate costs *milliseconds*: no
  network namespace, no container filesystem (this is the whole point
  versus fig. 11's container numbers);
* **execute** — compute runs slower than native by ``slowdown``
  (wasm's price for portability/isolation).
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.containers.image import MIB
from repro.net.packet import HTTPRequest, HTTPResponse
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Host


@dataclasses.dataclass(frozen=True)
class WasmModule:
    """One compiled-to-wasm function binary."""

    name: str
    size_bytes: int
    #: Native handler latency; the runtime applies its slowdown factor.
    native_handle_s: float
    response_bytes: int = 120

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("module size must be positive")
        if self.native_handle_s < 0:
            raise ValueError("handler latency must be >= 0")


@dataclasses.dataclass(frozen=True)
class WasmRuntimeProfile:
    """Calibrated runtime costs."""

    #: AOT compilation throughput (one-time per module, cached).
    compile_s_per_mib: float = 0.050
    #: Isolate creation + linking (the "cold start").
    instantiate_s: float = 0.004
    #: Execution slowdown versus native code.
    slowdown: float = 1.6
    #: Registry round trip for a module fetch.
    fetch_rtt_s: float = 0.002
    #: Module download bandwidth (bits/second).
    fetch_bandwidth_bps: float = 850e6

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")
        for name in ("compile_s_per_mib", "instantiate_s", "fetch_rtt_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.fetch_bandwidth_bps <= 0:
            raise ValueError("fetch bandwidth must be positive")


class WasmFunction:
    """The HTTP handler wrapping one instantiated module."""

    def __init__(self, env: Environment, module: WasmModule, slowdown: float) -> None:
        self.env = env
        self.module = module
        self.handle_time_s = module.native_handle_s * slowdown
        self.requests_handled = 0

    def handle(self, request: HTTPRequest):
        if self.handle_time_s:
            yield self.env.timeout(self.handle_time_s)
        else:
            yield self.env.timeout(0.0)
        self.requests_handled += 1
        return HTTPResponse(status=200, body_bytes=self.module.response_bytes)


_instance_ids = itertools.count(1)


class WasmInstance:
    """One running function instance bound to a host port."""

    def __init__(self, runtime: "WasmRuntime", module: WasmModule, port: int) -> None:
        self.runtime = runtime
        self.module = module
        self.port = port
        self.instance_id = f"wasm-{next(_instance_ids):06d}"
        self.function = WasmFunction(
            runtime.env, module, runtime.profile.slowdown
        )
        self.running = True


class WasmRuntime:
    """Per-node serverless runtime: module cache + instances."""

    def __init__(
        self,
        env: Environment,
        node: "Host",
        profile: WasmRuntimeProfile | None = None,
    ) -> None:
        self.env = env
        self.node = node
        self.profile = profile or WasmRuntimeProfile()
        self._modules: dict[str, WasmModule] = {}
        self._compiled: set[str] = set()
        self.instances: dict[str, WasmInstance] = {}
        self.stats = {"fetches": 0, "compiles": 0, "instantiations": 0}

    # -- module management -------------------------------------------------

    def has_module(self, name: str) -> bool:
        return name in self._modules

    def fetch(self, module: WasmModule):
        """Download + AOT-compile a module (generator); cached after."""
        if module.name in self._modules:
            return
        transfer = module.size_bytes * 8 / self.profile.fetch_bandwidth_bps
        yield self.env.timeout(self.profile.fetch_rtt_s + transfer)
        self.stats["fetches"] += 1
        self._modules[module.name] = module
        if module.name not in self._compiled:
            yield self.env.timeout(
                self.profile.compile_s_per_mib * module.size_bytes / MIB
            )
            self._compiled.add(module.name)
            self.stats["compiles"] += 1

    def drop_module(self, name: str) -> int:
        """Drop a module no instance runs; returns bytes freed (0 while
        an instance of it runs: the module stays)."""
        if self.instances_of(name):
            return 0
        self._compiled.discard(name)
        module = self._modules.pop(name, None)
        return module.size_bytes if module is not None else 0

    # -- instance lifecycle ----------------------------------------------------

    def instantiate(self, module: WasmModule, port: int):
        """Start one instance on ``port`` (generator returning it)."""
        if module.name not in self._modules:
            raise RuntimeError(
                f"module {module.name!r} not fetched on {self.node.name}"
            )
        yield self.env.timeout(self.profile.instantiate_s)
        instance = WasmInstance(self, module, port)
        self.instances[instance.instance_id] = instance
        self.stats["instantiations"] += 1
        if not self.node.port_is_open(port):
            self.node.open_port(port, instance.function)
        return instance

    def terminate(self, instance: WasmInstance):
        """Stop an instance (generator; teardown is effectively free)."""
        yield self.env.timeout(0.0)
        if instance.running:
            instance.running = False
            self.instances.pop(instance.instance_id, None)
            if self.node.port_is_open(instance.port):
                self.node.close_port(instance.port)

    def instances_of(self, module_name: str) -> list[WasmInstance]:
        return [
            inst
            for inst in self.instances.values()
            if inst.module.name == module_name
        ]
