"""Model deployment: streamlined bundle vs incubator paths, measured.

Section IV-D describes the two execution-unit paths and notes the
incubator "has some effect on execution performance when compared to a
streamlined execution unit, but is a useful testing ground".  The
deployer runs either path end-to-end — launch, boot, (provision), serve,
first model run — and reports the timing split, which
``benchmarks/bench_model_deployment.py`` turns into the comparison
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.cloud.instance import Instance, Job
from repro.cloud.multicloud import MultiCloud, NodeTemplate
from repro.cloud.flavors import MEDIUM
from repro.modellib.library import ModelEntry, ModelKind, ModelLibrary
from repro.sim import Signal, Simulator


@dataclass
class DeploymentReport:
    """Timing breakdown of one deployment + first run."""

    model: str
    path: str                 # "streamlined" | "incubator"
    launched_at: float
    booted_at: float
    provisioned_at: float     # == booted_at on the streamlined path
    first_result_at: float
    instance: Optional[Instance] = None

    @property
    def boot_seconds(self) -> float:
        """Launch to RUNNING."""
        return self.booted_at - self.launched_at

    @property
    def provision_seconds(self) -> float:
        """RUNNING to model-ready (zero for pre-baked bundles)."""
        return self.provisioned_at - self.booted_at

    @property
    def time_to_first_result(self) -> float:
        """Launch to first model output."""
        return self.first_result_at - self.launched_at

    @property
    def run_seconds(self) -> float:
        """Model-ready to first output — the per-run cost."""
        return self.first_result_at - self.provisioned_at


class ModelDeployer:
    """Executes one deployment path as a simulator process."""

    def __init__(self, sim: Simulator, multicloud: MultiCloud,
                 library: ModelLibrary):
        self.sim = sim
        self.multicloud = multicloud
        self.library = library

    def deploy(self, model_name: str,
               first_run_cost: float = 2.0) -> Signal:
        """Deploy ``model_name`` and execute one model run.

        Returns a signal fired with a :class:`DeploymentReport` (or
        ``None`` if the instance died along the way).
        """
        entry = self.library.get(model_name)
        image = self.library.image_for(model_name)
        done = self.sim.signal(f"deploy.{model_name}")
        launched_at = self.sim.now
        instance = self.multicloud.create_node(
            NodeTemplate(image=image, flavor=MEDIUM))

        def pipeline():
            booted = yield instance.ready
            if booted is None:
                done.fire(None)
                return
            booted_at = self.sim.now
            if entry.kind == ModelKind.EXPERIMENTAL:
                assert entry.recipe is not None
                provision_done = entry.recipe.apply(self.sim, instance)
                outcome = yield provision_done
                if outcome is None:
                    done.fire(None)
                    return
            provisioned_at = self.sim.now
            run_done = instance.submit(Job(cost=first_run_cost,
                                           name=f"first-run:{model_name}"))
            outcome = yield run_done
            if not outcome.succeeded:
                done.fire(None)
                return
            done.fire(DeploymentReport(
                model=model_name,
                path=entry.kind.value,
                launched_at=launched_at,
                booted_at=booted_at,
                provisioned_at=provisioned_at,
                first_result_at=self.sim.now,
                instance=instance,
            ))

        self.sim.spawn(pipeline(), name=f"deploy.{model_name}")
        return done
