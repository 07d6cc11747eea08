"""Configuration-management-tool (CMT) style provisioning recipes.

Section VI of the paper contrasts two deployment paths: full pre-baked
images, and generic images configured post-boot with CMTs (Chef/Puppet)
"which allow the definition of an infrastructure of VMs as code".  A
:class:`ProvisioningRecipe` is that infrastructure-as-code object: an
ordered list of steps, each with a duration and an effect on the
instance (installing a model, raising the run-speed factor once tuned).

Recipes are applied as simulator processes so provisioning time is
visible to the deployment benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cloud.instance import Instance
from repro.sim import Signal, Simulator


@dataclass(frozen=True)
class RecipeStep:
    """One provisioning action.

    ``installs_model`` names a model made runnable by the step;
    ``description`` is free text ("apt install r-base", "stage FUSE
    parameter sets", ...).
    """

    description: str
    duration_seconds: float
    installs_model: Optional[str] = None

    def __post_init__(self) -> None:
        if self.duration_seconds < 0:
            raise ValueError("step duration must be non-negative")


@dataclass
class ProvisioningRecipe:
    """An ordered, idempotent-by-convention list of steps."""

    name: str
    steps: List[RecipeStep] = field(default_factory=list)

    def add_step(self, description: str, duration_seconds: float,
                 installs_model: Optional[str] = None) -> "ProvisioningRecipe":
        """Append a step; returns self for chaining."""
        self.steps.append(RecipeStep(description, duration_seconds,
                                     installs_model))
        return self

    @property
    def total_duration(self) -> float:
        """Sum of all step durations."""
        return sum(step.duration_seconds for step in self.steps)

    @property
    def installed_models(self) -> Tuple[str, ...]:
        """Models this recipe makes runnable, in step order."""
        return tuple(step.installs_model for step in self.steps
                     if step.installs_model is not None)

    def apply(self, sim: Simulator, instance: Instance) -> Signal:
        """Run the recipe against a booted instance.

        Returns a signal fired with the list of executed step
        descriptions when provisioning completes, or with ``None`` if
        the instance dies mid-recipe.
        """
        done = sim.signal(f"provision.{self.name}.{instance.instance_id}")

        def runner():
            executed = []
            for step in self.steps:
                if not instance.is_serving:
                    done.fire(None)
                    return
                yield step.duration_seconds
                if not instance.is_serving:
                    done.fire(None)
                    return
                if step.installs_model is not None:
                    instance.install_model(step.installs_model)
                executed.append(step.description)
            done.fire(executed)

        sim.spawn(runner(), name=f"provision.{instance.instance_id}")
        return done
