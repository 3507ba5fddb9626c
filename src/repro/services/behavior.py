"""Container behaviour models and the behaviour registry.

The YAML service definitions reference images by name; the
:class:`BehaviorRegistry` maps each image reference to its behaviour
(boot time, request handler) so the annotator can attach runnable
models to the container definitions it produces.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.net.packet import HTTPRequest, HTTPResponse
from repro.sim import Environment, Resource


class EdgeServiceApp:
    """Generic request handler: fixed service time, fixed response
    size, always ``200``.

    ``workers`` bounds the requests processed concurrently (nginx
    worker processes, TF-Serving's intra-op thread pool): beyond it,
    requests queue, which is what makes a compute-bound service
    saturate under load.  ``None`` means unbounded concurrency.
    """

    def __init__(
        self,
        env: Environment,
        handle_time_s: float = 0.0,
        response_bytes: int = 120,
        workers: int | None = None,
    ) -> None:
        self.env = env
        self.handle_time_s = handle_time_s
        self.response_bytes = response_bytes
        self.requests_handled = 0
        self._workers = (
            Resource(env, workers) if workers is not None else None
        )

    def handle(self, request: HTTPRequest):
        if self._workers is None:
            if self.handle_time_s:
                yield self.env.timeout(self.handle_time_s)
            else:
                yield self.env.timeout(0.0)
        else:
            with self._workers.request() as slot:
                yield slot
                yield self.env.timeout(self.handle_time_s)
        self.requests_handled += 1
        return HTTPResponse(status=200, body_bytes=self.response_bytes)


@dataclasses.dataclass(frozen=True)
class AppFactory:
    """Picklable factory for :class:`EdgeServiceApp` instances.

    Deployment plans (and, federated, the replicated service records
    that carry them) cross the fork boundary of the partitioned kernel,
    so the factory must pickle by value — a frozen dataclass instead of
    a closure.
    """

    handle_time_s: float
    response_bytes: int = 120
    workers: int | None = None

    def __call__(self, env: Environment) -> EdgeServiceApp:
        return EdgeServiceApp(
            env,
            self.handle_time_s,
            self.response_bytes,
            workers=self.workers,
        )


@dataclasses.dataclass(frozen=True)
class ContainerBehavior:
    """Runtime behaviour of one image."""

    #: Application boot time after the container process spawns.
    boot_time_s: float
    #: Handler service time per request (None: not an HTTP server).
    handle_time_s: float | None = None
    #: Response body size for the handler.
    response_bytes: int = 120
    #: Concurrent requests the app sustains (None: unbounded).
    workers: int | None = None

    def app_factory(self) -> _t.Callable[[Environment], EdgeServiceApp] | None:
        if self.handle_time_s is None:
            return None
        return AppFactory(
            self.handle_time_s, self.response_bytes, self.workers
        )


class BehaviorRegistry:
    """image reference -> :class:`ContainerBehavior`."""

    def __init__(self) -> None:
        self._behaviors: dict[str, ContainerBehavior] = {}

    def register(self, reference: str, behavior: ContainerBehavior) -> None:
        self._behaviors[reference] = behavior

    def get(self, reference: str) -> ContainerBehavior:
        behavior = self._behaviors.get(reference)
        if behavior is None:
            raise KeyError(f"no behaviour registered for image {reference!r}")
        return behavior

    def known(self, reference: str) -> bool:
        return reference in self._behaviors
