"""The model catalogue: published models, images, calibration records.

Publishing a *streamlined* model bakes a new machine-image generation
bundling the model and its datasets; publishing an *experimental* model
authors a provisioning recipe to be applied on an incubator.  Both paths
record the offline calibration that preceded publication ("the outcome
of this process is a VM image optimised to run a fine tuned set of
models"), so the provenance of every deployed model is queryable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cloud.images import ImageKind, ImageStore, MachineImage
from repro.cloud.provisioning import ProvisioningRecipe
from repro.cloud.storage import Container
from repro.data.catchments import Catchment
from repro.services.wps import WpsProcess, WpsService
from repro.sim import Simulator


class ModelKind(enum.Enum):
    """How a model is packaged for execution."""

    STREAMLINED = "streamlined"
    EXPERIMENTAL = "experimental"


@dataclass(frozen=True)
class CalibrationRecord:
    """Provenance of a model's offline calibration."""

    catchment: str
    objective: str
    score: float
    parameters: Dict[str, float]
    iterations: int
    calibrated_at: float = 0.0

    def is_behavioural(self, threshold: float = 0.5) -> bool:
        """Whether the calibration met the behavioural bar."""
        return self.score >= threshold


@dataclass
class ModelEntry:
    """One published model."""

    name: str
    kind: ModelKind
    catchment: str
    process_factory: Callable[[Catchment], WpsProcess]
    image_id: Optional[str] = None        # streamlined path
    recipe: Optional[ProvisioningRecipe] = None   # experimental path
    calibration: Optional[CalibrationRecord] = None


class ModelLibrary:
    """Registry of published models plus their execution packaging."""

    #: Run-speed advantage of a fine-tuned streamlined bundle.
    STREAMLINED_SPEED = 1.25
    #: Run-speed penalty of an experimental install on a generic base.
    INCUBATOR_SPEED = 0.8

    def __init__(self, images: ImageStore):
        self.images = images
        self._entries: Dict[str, ModelEntry] = {}
        self._incubator_base: Optional[MachineImage] = None

    # -- packaging -------------------------------------------------------------

    def incubator_base(self) -> MachineImage:
        """The shared generic incubator image (created lazily)."""
        if self._incubator_base is None:
            self._incubator_base = self.images.create(
                "model-incubator", ImageKind.INCUBATOR, size_gb=2.5,
                run_speed_factor=self.INCUBATOR_SPEED)
        return self._incubator_base

    def publish_streamlined(self, name: str, catchment: Catchment,
                            process_factory: Callable[[Catchment], WpsProcess],
                            calibration: Optional[CalibrationRecord] = None,
                            dataset_ids: tuple = (),
                            bundle_size_gb: float = 6.0) -> ModelEntry:
        """Bake a streamlined bundle image and register the model."""
        self._check_name(name)
        image = self.images.create(
            f"bundle-{name}", ImageKind.STREAMLINED,
            size_gb=bundle_size_gb,
            run_speed_factor=self.STREAMLINED_SPEED,
            bundled_models=(name,),
            bundled_datasets=tuple(dataset_ids),
        )
        entry = ModelEntry(name=name, kind=ModelKind.STREAMLINED,
                           catchment=catchment.name,
                           process_factory=process_factory,
                           image_id=image.image_id,
                           calibration=calibration)
        self._entries[name] = entry
        return entry

    def publish_experimental(self, name: str, catchment: Catchment,
                             process_factory: Callable[[Catchment], WpsProcess],
                             install_minutes: float = 8.0) -> ModelEntry:
        """Author an incubator recipe and register the model."""
        self._check_name(name)
        recipe = (ProvisioningRecipe(f"install-{name}")
                  .add_step("install runtime dependencies",
                            install_minutes * 60.0 * 0.5)
                  .add_step(f"stage {name} code and parameter sets",
                            install_minutes * 60.0 * 0.3)
                  .add_step(f"expose {name} as a WPS service",
                            install_minutes * 60.0 * 0.2,
                            installs_model=name))
        entry = ModelEntry(name=name, kind=ModelKind.EXPERIMENTAL,
                           catchment=catchment.name,
                           process_factory=process_factory,
                           recipe=recipe)
        self._entries[name] = entry
        return entry

    def update_bundle(self, name: str, extra_dataset_ids: tuple = (),
                      size_increase_gb: float = 0.5) -> MachineImage:
        """Rebake a streamlined model's image with more data.

        The paper: "An image could be updated to include more historical
        data or to adjust the implementation of a model in some way."
        """
        entry = self.get(name)
        if entry.kind != ModelKind.STREAMLINED or entry.image_id is None:
            raise ValueError(f"{name!r} is not a streamlined model")
        image = self.images.rebake(entry.image_id,
                                   extra_datasets=tuple(extra_dataset_ids),
                                   size_increase_gb=size_increase_gb)
        entry.image_id = image.image_id
        return image

    # -- lookup -------------------------------------------------------------------

    def get(self, name: str) -> ModelEntry:
        """Look a model up by name."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"no model {name!r} in the library") from None

    def list(self, kind: Optional[ModelKind] = None) -> List[ModelEntry]:
        """Published models, optionally filtered by kind."""
        entries = list(self._entries.values())
        if kind is not None:
            entries = [e for e in entries if e.kind == kind]
        return entries

    def image_for(self, name: str) -> MachineImage:
        """The image a deployment of ``name`` should boot.

        Streamlined models boot their bundle; experimental ones boot the
        shared incubator base (the recipe runs post-boot).
        """
        entry = self.get(name)
        if entry.kind == ModelKind.STREAMLINED:
            assert entry.image_id is not None
            return self.images.get(entry.image_id)
        return self.incubator_base()

    # -- service construction ---------------------------------------------------------

    def build_service(self, sim: Simulator, service_name: str,
                      model_names: List[str],
                      status_container: Container,
                      catchments: Dict[str, Catchment]) -> WpsService:
        """A WPS service publishing the named models' processes."""
        service = WpsService(sim, service_name, status_container)
        for name in model_names:
            entry = self.get(name)
            catchment = catchments[entry.catchment]
            service.add_process(entry.process_factory(catchment))
        return service

    def _check_name(self, name: str) -> None:
        if name in self._entries:
            raise ValueError(f"model {name!r} already published")
