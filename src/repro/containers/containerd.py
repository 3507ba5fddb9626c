"""The containerd-like container runtime.

Both the Docker engine and the Kubernetes kubelet drive this runtime —
on the paper's testbed, Docker and K8s literally share one containerd
on the EGS, which is why their *warm* request times match (fig. 16)
while their orchestration overheads differ (fig. 11).

Timing model per container start (see :class:`RuntimeProfile`):

* snapshot preparation at create time,
* network-namespace setup — the dominant cost per Mohan et al. [23]
  ("creation and initialization of network namespaces account for 90
  percent of the startup time of a container"),
* runtime (runc) spawn,
* the application's own boot time, after which its port opens on the
  node host (readiness).

``start()`` returns when the container process has been spawned —
matching the Docker API — while application boot continues in the
background; :attr:`Container.ready` fires when the service port is
open.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import typing as _t

from repro.containers.image import ImageSpec
from repro.containers.registry import Registry, RegistryUnavailable
from repro.containers.store import ImageStore
from repro.sim import AllOf, Environment, Event, Resource


class PullError(RuntimeError):
    """A pull failed even after exhausting its retries."""


class NodeDown(RuntimeError):
    """The node hosting this runtime is crashed (failure injection).

    Raised by pull/create/start while the node is down; retryable —
    callers back off and try again (the node may come back)."""

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Application, Host


class ContainerState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    EXITED = "exited"
    REMOVED = "removed"


@dataclasses.dataclass(frozen=True)
class RuntimeProfile:
    """Calibrated costs of runtime operations (seconds)."""

    #: Filesystem snapshot preparation during create.
    snapshot_create_s: float = 0.045
    #: Network-namespace creation + veth/iptables plumbing (dominant).
    namespace_setup_s: float = 0.280
    #: Spawning the container process via the OCI runtime.
    runtime_spawn_s: float = 0.055
    stop_s: float = 0.040
    remove_s: float = 0.030
    #: Concurrent start operations the node sustains (cores-bound).
    start_concurrency: int = 8
    #: Retries per manifest or layer request on transient registry failures.
    pull_retries: int = 3
    #: Backoff before a retry (doubles per attempt).
    pull_retry_backoff_s: float = 0.2

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if field.name == "start_concurrency":
                continue
            if getattr(self, field.name) < 0:
                raise ValueError(f"{field.name} must be >= 0")
        if self.start_concurrency < 1:
            raise ValueError("start_concurrency must be >= 1")


@dataclasses.dataclass(frozen=True)
class ContainerSpec:
    """What to run: image, port binding, labels, and the app model."""

    name: str
    image: ImageSpec
    #: Application boot time after the process spawns (model load,
    #: config parsing, ...); the port opens when boot completes.
    boot_time_s: float = 0.0
    #: Port inside the container the app listens on (None: no server).
    container_port: int | None = None
    #: Port bound on the node host (None: no host binding).
    host_port: int | None = None
    #: Factory building the request handler once the container starts.
    app_factory: _t.Callable[[Environment], "Application"] | None = None
    #: Failure injection: the application crashes this many seconds
    #: after becoming ready (every time it is (re)started).
    crash_after_s: float | None = None
    labels: _t.Mapping[str, str] = dataclasses.field(default_factory=dict)
    env_vars: _t.Mapping[str, str] = dataclasses.field(default_factory=dict)
    #: host-path -> container-path volume mounts (modelled, not used).
    mounts: _t.Mapping[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class PullResult:
    """Outcome of a pull: what was actually transferred."""

    reference: str
    duration_s: float
    layers_pulled: int
    bytes_pulled: int
    cache_hit: bool


_container_ids = itertools.count(1)


class Container:
    """A container instance managed by :class:`Containerd`."""

    def __init__(self, runtime: "Containerd", spec: ContainerSpec) -> None:
        self.runtime = runtime
        self.spec = spec
        self.container_id = f"c-{next(_container_ids):06d}"
        self.state = ContainerState.CREATED
        self.created_at = runtime.env.now
        self.started_at: float | None = None
        #: Fires when the application is booted and its port is open.
        self.ready: Event = runtime.env.event()
        #: The instantiated request handler (set at application boot);
        #: kube-proxy binds node ports to this.
        self.app: _t.Any = None
        #: Fires each time the container process exits unexpectedly;
        #: replaced with a fresh event on restart.  Watched by the
        #: kubelet for its restart policy.
        self.exited: Event = runtime.env.event()
        self.exit_code: int | None = None
        self.restart_count = 0
        self._bound_port: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Container {self.container_id} {self.spec.name} {self.state.value}>"


class Containerd:
    """The per-node container runtime."""

    def __init__(
        self,
        env: Environment,
        node: "Host",
        profile: RuntimeProfile | None = None,
        disk_limit_bytes: int | None = None,
    ) -> None:
        self.env = env
        self.node = node
        self.images = ImageStore()
        self.profile = profile if profile is not None else RuntimeProfile()
        self.containers: dict[str, Container] = {}
        #: Disk-pressure threshold for the image GC (None: unlimited).
        #: §IV-C: "Optionally, but unlikely, the cached items may also
        #: be Deleted if disk space is scarce."
        self.disk_limit_bytes = disk_limit_bytes
        #: Image reference -> last time a container used it (LRU order
        #: for the GC's eviction choice).
        self._image_last_used: dict[str, float] = {}
        self.gc_stats = {"runs": 0, "images_deleted": 0, "bytes_freed": 0}
        self._start_slots = Resource(env, self.profile.start_concurrency)
        #: Failure injection: while True, pull/create/start raise
        #: :class:`NodeDown` (set by the Injector on a node crash).
        self.down = False

    # -- pull phase ------------------------------------------------------

    def pull(self, image: ImageSpec, registry: Registry):
        """Pull an image (generator returning :class:`PullResult`).

        Cached layers are skipped entirely; for a fully cached image
        only the local manifest check happens (no network).
        """
        started = self.env.now
        if self.down:
            raise NodeDown(f"{self.node.name} is down")
        if self.images.has_image(image.reference):
            return PullResult(image.reference, 0.0, 0, 0, cache_hit=True)

        manifest = yield from self._retrying(
            lambda: registry.manifest(image.reference),
            f"manifest for {image.reference} unavailable",
        )
        missing = self.images.missing_layers(manifest)
        fetches = [
            self.env.process(
                self._fetch_and_store(layer, registry),
                name=f"pull:{layer.digest[:15]}",
            )
            for layer in missing
        ]
        if fetches:
            yield AllOf(self.env, fetches)
        self.images.commit_image(manifest)
        self._image_last_used[manifest.reference] = self.env.now
        self.collect_garbage()
        return PullResult(
            reference=image.reference,
            duration_s=self.env.now - started,
            layers_pulled=len(missing),
            bytes_pulled=sum(layer.size_bytes for layer in missing),
            cache_hit=False,
        )

    def _fetch_and_store(self, layer, registry: Registry):
        """Fetch one layer and store it."""
        yield from self._retrying(
            lambda: registry.fetch_layer(layer), f"giving up on {layer.digest}"
        )
        self.images.add_layer(layer)

    def _retrying(self, request: _t.Callable[[], _t.Generator], failure: str):
        """Run ``request()``, retrying transient registry failures with
        exponential backoff (as containerd's fetcher does); generator
        returning its result.  ``failure`` opens the :class:`PullError`
        raised once the retries are spent."""
        attempt = 0
        while True:
            try:
                return (yield from request())
            except RegistryUnavailable as exc:
                attempt += 1
                if attempt > self.profile.pull_retries:
                    raise PullError(
                        f"{failure} after {self.profile.pull_retries} retries: {exc}"
                    ) from exc
                yield self.env.timeout(
                    self.profile.pull_retry_backoff_s * 2 ** (attempt - 1)
                )

    # -- create phase -------------------------------------------------------

    def create(self, spec: ContainerSpec):
        """Create a container (generator returning :class:`Container`).

        Requires the image to be present in the local store.
        """
        if self.down:
            raise NodeDown(f"{self.node.name} is down")
        if not self.images.has_image(spec.image.reference):
            raise RuntimeError(
                f"image {spec.image.reference!r} not present on {self.node.name}; "
                "pull it first"
            )
        yield self.env.timeout(self.profile.snapshot_create_s)
        container = Container(self, spec)
        self.containers[container.container_id] = container
        self._image_last_used[spec.image.reference] = self.env.now
        return container

    # -- scale-up phase ----------------------------------------------------------

    def start(self, container: Container):
        """Start a container (generator; returns when the process spawned).

        Application boot continues in the background; the container's
        :attr:`~Container.ready` event fires once its port is open.
        """
        if self.down:
            raise NodeDown(f"{self.node.name} is down")
        if container.state not in (ContainerState.CREATED, ContainerState.EXITED):
            # Stopped containers restart (as `docker start` allows).
            raise RuntimeError(
                f"cannot start {container.container_id} in state "
                f"{container.state.value}"
            )
        with self._start_slots.request() as slot:
            yield slot
            yield self.env.delays(
                self.profile.namespace_setup_s, self.profile.runtime_spawn_s
            )
        if container.started_at is not None:
            # Restart: give watchers fresh lifecycle events.
            container.exited = Event(self.env)
            container.ready = Event(self.env)
            container.restart_count += 1
        container.state = ContainerState.RUNNING
        container.started_at = self.env.now
        container.exit_code = None
        # Hot when its first act is the boot timer: that push happens in
        # this step instead of at an ``_Initialize`` pop, which moves the
        # order only against an entry due exactly when the boot ends and
        # pushed in between.  A zero boot starts cold: its
        # ``timeout(0.0)`` would pop ahead of what the caller pushes now.
        self.env.spawn(
            self._boot_application(container),
            name=f"boot:{container.spec.name}",
            hot=container.spec.boot_time_s > 0,
        )

    def _boot_application(self, container: Container):
        if container.spec.boot_time_s:
            yield self.env.timeout(container.spec.boot_time_s)
        else:
            yield self.env.timeout(0.0)
        if container.state is not ContainerState.RUNNING:
            return  # stopped while booting
        spec = container.spec
        if spec.app_factory is not None:
            container.app = spec.app_factory(self.env)
        if spec.host_port is not None and container.app is not None:
            if not self.node.port_is_open(spec.host_port):
                self.node.open_port(spec.host_port, container.app)
                container._bound_port = spec.host_port
        if not container.ready.triggered:
            container.ready.succeed(self.env.now)
        if spec.crash_after_s is not None:
            self.env.spawn(
                self._crash_later(container, container.exited),
                name=f"crash:{container.spec.name}",
            )

    def _crash_later(self, container: Container, exit_event: Event):
        """Failure injection: the process dies after its fuse burns."""
        yield self.env.timeout(container.spec.crash_after_s or 0.0)
        if (
            container.state is not ContainerState.RUNNING
            or container.exited is not exit_event
        ):
            return  # stopped or already restarted in the meantime
        container.state = ContainerState.EXITED
        container.exit_code = 1
        self._release_port(container)
        if not exit_event.triggered:
            exit_event.succeed(self.env.now)

    def kill(self, container: Container) -> bool:
        """SIGKILL a running container (failure injection; synchronous).

        Unlike :meth:`stop` there is no graceful shutdown delay: the
        process is gone now.  The ``exited`` event fires so a kubelet
        restart policy picks the container up.  Returns True if the
        container was running.
        """
        if container.state is not ContainerState.RUNNING:
            return False
        container.state = ContainerState.EXITED
        container.exit_code = 137
        self._release_port(container)
        if not container.exited.triggered:
            container.exited.succeed(self.env.now)
        return True

    def kill_all(self) -> int:
        """Kill every running container (node crash); returns the count."""
        killed = 0
        for container in list(self.containers.values()):
            if self.kill(container):
                killed += 1
        return killed

    # -- scale-down / remove phases --------------------------------------------------

    def stop(self, container: Container):
        """Stop a running container (generator)."""
        if container.state is not ContainerState.RUNNING:
            return
        yield self.env.timeout(self.profile.stop_s)
        self._release_port(container)
        container.state = ContainerState.EXITED

    def remove(self, container: Container):
        """Remove a stopped (or created) container (generator)."""
        if container.state is ContainerState.RUNNING:
            yield from self.stop(container)
        yield self.env.timeout(self.profile.remove_s)
        container.state = ContainerState.REMOVED
        self.containers.pop(container.container_id, None)

    def _release_port(self, container: Container) -> None:
        if container._bound_port is not None:
            self.node.close_port(container._bound_port)
            container._bound_port = None

    # -- image garbage collection (the fig. 4 Delete phase) -----------------------------

    def images_in_use(self) -> set[str]:
        """References of images backing a non-removed container."""
        return {
            c.spec.image.reference
            for c in self.containers.values()
            if c.state is not ContainerState.REMOVED
        }

    def delete_image(self, reference: str) -> int:
        """Delete an image no container uses; returns bytes freed.

        An image backing a non-removed container stays, and 0 is
        returned: ``docker rmi`` and kubelet image GC refuse it too.
        """
        if reference in self.images_in_use():
            return 0
        return self.images.delete_image(reference)

    def collect_garbage(self) -> int:
        """Evict least-recently-used unused images while the store
        exceeds ``disk_limit_bytes``.  Returns bytes freed.

        Shared layers survive eviction while another stored image
        references them (the §IV-C observation that a later re-pull may
        not need every layer again).
        """
        if self.disk_limit_bytes is None:
            return 0
        if self.images.disk_bytes <= self.disk_limit_bytes:
            return 0
        self.gc_stats["runs"] += 1
        candidates = sorted(
            self.images.images(), key=lambda ref: self._image_last_used.get(ref, 0.0)
        )
        freed = 0
        for ref in candidates:
            if self.images.disk_bytes <= self.disk_limit_bytes:
                break
            bytes_freed = self.delete_image(ref)
            if bytes_freed or not self.images.has_image(ref):
                self.gc_stats["images_deleted"] += 1
                self.gc_stats["bytes_freed"] += bytes_freed
                freed += bytes_freed
                self._image_last_used.pop(ref, None)
        return freed

    # -- queries ----------------------------------------------------------------------

    def list_containers(
        self, label_filter: _t.Mapping[str, str] | None = None
    ) -> list[Container]:
        """Containers whose labels include all of ``label_filter``."""
        result = []
        for container in self.containers.values():
            labels = container.spec.labels
            if label_filter and any(
                labels.get(k) != v for k, v in label_filter.items()
            ):
                continue
            result.append(container)
        return result
