"""A Docker-Engine-like facade over containerd.

The paper's "Docker cluster" is a plain Docker engine on the EGS; the
SDN controller talks to it through the Docker Python client.  The
engine adds a small per-API-call latency on top of the runtime costs,
and supports the label-based querying the controller uses to find edge
service containers ("Our system also adds labels to Docker deployments
to allow addressing and querying edge services distinctly").
"""

from __future__ import annotations

import typing as _t

from repro.containers.containerd import (
    Container,
    Containerd,
    ContainerSpec,
    ContainerState,
)
from repro.containers.image import ImageSpec
from repro.containers.registry import Registry
from repro.sim import Environment


class DockerEngine:
    """Docker daemon API: pull / create / start / stop / remove / list."""

    def __init__(
        self,
        env: Environment,
        runtime: Containerd,
        api_latency_s: float = 0.012,
    ) -> None:
        if api_latency_s < 0:
            raise ValueError("api_latency_s must be >= 0")
        self.env = env
        self.runtime = runtime
        self.api_latency_s = float(api_latency_s)

    def _api_call(self):
        yield self.env.timeout(self.api_latency_s)

    # -- image management ---------------------------------------------------

    def pull(self, image: ImageSpec, registry: Registry):
        """``docker pull`` (generator returning PullResult)."""
        yield from self._api_call()
        result = yield from self.runtime.pull(image, registry)
        return result

    def image_cached(self, reference: str) -> bool:
        return self.runtime.images.has_image(reference)

    def remove_image(self, reference: str):
        """``docker rmi`` (generator returning bytes freed; an image a
        container uses stays)."""
        yield from self._api_call()
        return self.runtime.delete_image(reference)

    # -- container lifecycle ----------------------------------------------------

    def create_container(self, spec: ContainerSpec):
        """``docker create`` (generator returning :class:`Container`)."""
        yield from self._api_call()
        container = yield from self.runtime.create(spec)
        return container

    def start_container(self, container: Container):
        """``docker start``: returns once the process is spawned."""
        yield from self._api_call()
        yield from self.runtime.start(container)

    def stop_container(self, container: Container):
        yield from self._api_call()
        yield from self.runtime.stop(container)

    def remove_container(self, container: Container):
        yield from self._api_call()
        yield from self.runtime.remove(container)

    # -- queries --------------------------------------------------------------------

    def containers(
        self,
        label_filter: _t.Mapping[str, str] | None = None,
        running_only: bool = True,
    ) -> list[Container]:
        result = self.runtime.list_containers(label_filter)
        if running_only:
            result = [c for c in result if c.state is ContainerState.RUNNING]
        return result
