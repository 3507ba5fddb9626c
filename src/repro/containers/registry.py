"""Container registries with latency/bandwidth pull models.

The paper pulls images from Docker Hub and the Google Container
Registry, and compares against a private registry on the local network
(fig. 13): "pull times improve by about 1.5 to 2 seconds".  A
:class:`RegistryProfile` captures what distinguishes them: round-trip
time, effective download bandwidth, and per-layer protocol overhead
(auth, manifest, blob negotiation, digest verification).
"""

from __future__ import annotations

import dataclasses
import random

from repro.containers.image import ImageSpec, Layer
from repro.sim import Environment, Resource


class ImageNotFound(KeyError):
    """The registry does not host the requested reference."""


class RegistryUnavailable(RuntimeError):
    """A transient registry failure (timeout, 5xx, connection reset)."""


@dataclasses.dataclass(frozen=True)
class RegistryProfile:
    """Performance profile of a registry as seen from the edge site."""

    #: One network round trip to the registry, seconds.
    rtt_s: float
    #: Effective per-connection download bandwidth, bits per second.
    bandwidth_bps: float
    #: Fixed protocol overhead per layer (blob HEAD/GET, TLS, ...).
    per_layer_overhead_s: float
    #: Digest verification throughput on the pulling node, bytes/second.
    verify_bytes_per_s: float = 400e6
    #: Concurrent layer downloads (containerd default: 3).
    max_concurrent_downloads: int = 3

    def __post_init__(self) -> None:
        if self.rtt_s < 0 or self.per_layer_overhead_s < 0:
            raise ValueError("latencies must be >= 0")
        if self.bandwidth_bps <= 0 or self.verify_bytes_per_s <= 0:
            raise ValueError("bandwidths must be positive")
        if self.max_concurrent_downloads < 1:
            raise ValueError("max_concurrent_downloads must be >= 1")


#: Public internet registry (Docker Hub / GCR as measured from the
#: testbed's university network).
PUBLIC_PROFILE = RegistryProfile(
    rtt_s=0.040,
    bandwidth_bps=320e6,
    per_layer_overhead_s=0.28,
)

#: Private registry on the same LAN as the edge cluster.
PRIVATE_PROFILE = RegistryProfile(
    rtt_s=0.002,
    bandwidth_bps=850e6,
    per_layer_overhead_s=0.04,
)


class Registry:
    """A registry instance hosting a set of images."""

    def __init__(
        self,
        env: Environment,
        name: str,
        profile: RegistryProfile,
        failure_rate: float = 0.0,
        failure_seed: int = 0,
    ) -> None:
        if not 0 <= failure_rate < 1:
            raise ValueError("failure_rate must be in [0, 1)")
        self.env = env
        self.name = name
        self.profile = profile
        self._images: dict[str, ImageSpec] = {}
        self._download_slots = Resource(env, profile.max_concurrent_downloads)
        #: Probability that one request (manifest resolution or layer
        #: fetch) fails transiently (failure-injection knob).
        self.failure_rate = failure_rate
        self.reseed_faults(failure_seed)
        #: Pull statistics for tests/benchmarks.
        self.stats = {
            "manifests": 0,
            "manifest_failures": 0,
            "layers": 0,
            "bytes": 0,
            "failures": 0,
        }

    def set_fault_rate(self, rate: float) -> None:
        """Adjust the failure rate at runtime (Injector outage windows).

        Unlike the constructor — where a permanently all-failing
        registry is a configuration error — a temporary full outage
        (``rate=1.0``) is allowed here.
        """
        if not 0 <= rate <= 1:
            raise ValueError("fault rate must be in [0, 1]")
        self.failure_rate = float(rate)

    def reseed_faults(self, seed: int) -> None:
        """Reseed both failure streams (FaultPlan determinism: the same
        plan seed reproduces the same error pattern regardless of how
        much traffic preceded the outage).  Seed ``s >= 0`` seeds the
        layer-fetch stream with ``2 * s`` and the manifest stream — its
        own, so manifest failures do not perturb layer fetches — with
        ``2 * s + 1``; no two seeds share a stream."""
        self._failure_rng = random.Random(2 * seed)
        self._manifest_rng = random.Random(2 * seed + 1)

    def publish(self, image: ImageSpec) -> None:
        """Make an image available for pulling."""
        self._images[image.reference] = image

    def manifest(self, reference: str):
        """Fetch an image manifest (generator returning :class:`ImageSpec`).

        Costs two round trips: token/auth plus the manifest GET.
        """
        yield self.env.timeout(2 * self.profile.rtt_s)
        if self.failure_rate and self._manifest_rng.random() < self.failure_rate:
            # An outage fails the pull at its very first round trip.
            self.stats["manifest_failures"] += 1
            raise RegistryUnavailable(
                f"{self.name}: transient failure resolving {reference}"
            )
        self.stats["manifests"] += 1
        image = self._images.get(reference)
        if image is None:
            raise ImageNotFound(reference)
        return image

    def fetch_layer(self, layer: Layer):
        """Download and verify one layer (generator).

        Concurrency across layers is limited to the profile's
        ``max_concurrent_downloads``, as containerd does.
        """
        with self._download_slots.request() as slot:
            yield slot
            if self.failure_rate and self._failure_rng.random() < self.failure_rate:
                # The connection dies partway through the blob transfer.
                transfer = layer.size_bytes * 8 / self.profile.bandwidth_bps
                yield self.env.timeout(
                    self.profile.per_layer_overhead_s + 0.5 * transfer
                )
                self.stats["failures"] += 1
                raise RegistryUnavailable(
                    f"{self.name}: transient failure fetching {layer.digest}"
                )
            transfer = layer.size_bytes * 8 / self.profile.bandwidth_bps
            yield self.env.timeout(self.profile.per_layer_overhead_s + transfer)
        # Verification happens on the puller, outside the download slot.
        yield self.env.timeout(layer.size_bytes / self.profile.verify_bytes_per_s)
        self.stats["layers"] += 1
        self.stats["bytes"] += layer.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Registry {self.name!r} images={len(self._images)}>"
