"""The node-local image store (layer cache).

Layers are content-addressed and reference-counted: deleting an image
only removes layers no other stored image still uses — the paper's §IV-C
notes exactly this ("Even if a container image is deleted, some of its
layers may be used by other images").
"""

from __future__ import annotations

from repro.containers.image import ImageSpec, Layer


class ImageStore:
    """Per-node cache of image layers and image manifests."""

    def __init__(self) -> None:
        self._layers: dict[str, Layer] = {}
        self._layer_refs: dict[str, int] = {}
        self._images: dict[str, ImageSpec] = {}

    # -- queries -----------------------------------------------------------

    def has_image(self, reference: str) -> bool:
        """Whether the image (manifest + all layers) is fully cached."""
        image = self._images.get(reference)
        if image is None:
            return False
        return all(layer.digest in self._layers for layer in image.layers)

    def missing_layers(self, image: ImageSpec) -> list[Layer]:
        """Layers of ``image`` that still need to be pulled."""
        return [l for l in image.layers if l.digest not in self._layers]

    @property
    def disk_bytes(self) -> int:
        """Total bytes of stored (deduplicated) layers."""
        return sum(layer.size_bytes for layer in self._layers.values())

    def images(self) -> list[str]:
        return sorted(self._images)

    # -- mutation ------------------------------------------------------------

    def add_layer(self, layer: Layer) -> None:
        self._layers[layer.digest] = layer

    def commit_image(self, image: ImageSpec) -> None:
        """Record a fully pulled image, bumping its layers' refcounts."""
        if image.reference in self._images:
            return
        missing = self.missing_layers(image)
        if missing:
            raise ValueError(
                f"cannot commit {image.reference!r}: "
                f"{len(missing)} layers not in store"
            )
        self._images[image.reference] = image
        for layer in image.layers:
            self._layer_refs[layer.digest] = self._layer_refs.get(layer.digest, 0) + 1

    def delete_image(self, reference: str) -> int:
        """Delete an image; returns bytes actually freed.

        Layers shared with other stored images survive.
        """
        image = self._images.pop(reference, None)
        if image is None:
            return 0
        freed = 0
        for layer in image.layers:
            refs = self._layer_refs.get(layer.digest, 0) - 1
            if refs <= 0:
                self._layer_refs.pop(layer.digest, None)
                removed = self._layers.pop(layer.digest, None)
                if removed is not None:
                    freed += removed.size_bytes
            else:
                self._layer_refs[layer.digest] = refs
        return freed
