"""Machine images and the image store.

The paper's Model Library stores two kinds of execution unit:

* **streamlined bundles** — pre-baked images "optimised to run a fine
  tuned set of models ... equipped with all required data".  Bigger to
  transfer/boot but fastest per model run.
* **incubators** — generic images onto which experimental models are
  installed after boot (optionally via a CMT recipe).  Quick to obtain,
  flexible, but slower per run ("some effect on execution performance").

:class:`MachineImage` captures those trade-offs as boot-cost and run-speed
parameters the instance runtime honours; :class:`ImageStore` is the
Glance/AMI-registry role.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cloud.errors import ImageNotFound


class ImageKind(enum.Enum):
    """What sort of execution unit an image is."""

    #: Pre-baked, model-and-data-complete bundle (fast runs, slow to bake).
    STREAMLINED = "streamlined"
    #: Generic base onto which models are installed post-boot.
    INCUBATOR = "incubator"
    #: Plain OS image with no modelling payload (portal/front-end hosts).
    GENERIC = "generic"


@dataclass(frozen=True)
class MachineImage:
    """An immutable machine image.

    ``size_gb`` drives boot-transfer time; ``run_speed_factor`` scales the
    service time of model jobs executed on instances booted from the image
    (streamlined bundles > 1.0, incubators < 1.0 until provisioned).
    ``bundled_models``/``bundled_datasets`` list what a streamlined bundle
    ships with, so the broker can route a model request to an image that
    already contains everything it needs.
    """

    image_id: str
    name: str
    kind: ImageKind
    size_gb: float = 4.0
    format: str = "qcow2"
    run_speed_factor: float = 1.0
    bundled_models: Tuple[str, ...] = ()
    bundled_datasets: Tuple[str, ...] = ()
    parent_id: Optional[str] = None
    generation: int = 1

    def __post_init__(self) -> None:
        if self.size_gb <= 0:
            raise ValueError(f"image {self.name!r} has non-positive size")
        if self.run_speed_factor <= 0:
            raise ValueError(f"image {self.name!r} has non-positive speed")


@dataclass
class ImageStore:
    """Registry of machine images (the Glance / AMI-catalogue role).

    Supports the paper's image-update flow: ``rebake`` derives a new
    generation from an existing image (more data, adjusted model) without
    mutating the original, so instances already booted are unaffected.
    """

    _images: Dict[str, MachineImage] = field(default_factory=dict)
    _counter: itertools.count = field(default_factory=itertools.count)

    def register(self, image: MachineImage) -> MachineImage:
        """Add ``image`` to the store; ids must be unique."""
        if image.image_id in self._images:
            raise ValueError(f"duplicate image id {image.image_id!r}")
        self._images[image.image_id] = image
        return image

    def create(self, name: str, kind: ImageKind, **kwargs) -> MachineImage:
        """Create, register and return a new image with a fresh id."""
        image_id = f"img-{next(self._counter):04d}"
        image = MachineImage(image_id=image_id, name=name, kind=kind, **kwargs)
        return self.register(image)

    def get(self, image_id: str) -> MachineImage:
        """Look an image up by id."""
        try:
            return self._images[image_id]
        except KeyError:
            raise ImageNotFound(image_id) from None

    def list(self, kind: Optional[ImageKind] = None) -> List[MachineImage]:
        """All images, optionally filtered by kind, in insertion order."""
        images = list(self._images.values())
        if kind is not None:
            images = [img for img in images if img.kind == kind]
        return images

    def rebake(self, image_id: str, *,
               extra_datasets: Tuple[str, ...] = (),
               size_increase_gb: float = 0.0) -> MachineImage:
        """Derive a new generation of an image with additional payload."""
        base = self.get(image_id)
        new_id = f"img-{next(self._counter):04d}"
        derived = MachineImage(
            image_id=new_id,
            name=base.name,
            kind=base.kind,
            size_gb=base.size_gb + size_increase_gb,
            format=base.format,
            run_speed_factor=base.run_speed_factor,
            bundled_models=base.bundled_models,
            bundled_datasets=base.bundled_datasets + extra_datasets,
            parent_id=base.image_id,
            generation=base.generation + 1,
        )
        return self.register(derived)

    def lineage(self, image_id: str) -> List[MachineImage]:
        """The chain of ancestors from ``image_id`` back to the root."""
        chain = [self.get(image_id)]
        while chain[-1].parent_id is not None:
            chain.append(self.get(chain[-1].parent_id))
        return chain
