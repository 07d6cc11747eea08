"""Storyboards: stakeholder-owned requirement capture.

"A storyboard, i.e. a stepped illustration of a fully defined user
scenario, was outlined by partner domain specialists (referred to as
the storyboard owners).  The detailed visual steps ... allowed us to
collect not just the core functional requirements but also well-defined
usage contexts, user interface layout and interaction, and full-length
experiential user flow."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Requirement:
    """One captured requirement, traceable to its storyboard step."""

    requirement_id: str
    text: str
    kind: str = "functional"    # "functional" | "context" | "ui" | "flow"
    source_step: Optional[str] = None
    satisfied: bool = False


@dataclass
class StoryboardStep:
    """One visual step of the user scenario."""

    step_id: str
    narrative: str
    user_action: str = ""
    system_response: str = ""


@dataclass
class Storyboard:
    """A fully defined user scenario, owned by a stakeholder group."""

    title: str
    owner: str                  # the storyboard-owning domain specialists
    purpose: str                # e.g. "how do I decide when my property is at risk?"
    steps: List[StoryboardStep] = field(default_factory=list)
    requirements: List[Requirement] = field(default_factory=list)

    def add_step(self, step_id: str, narrative: str, user_action: str = "",
                 system_response: str = "") -> StoryboardStep:
        """Append a step."""
        if any(s.step_id == step_id for s in self.steps):
            raise ValueError(f"duplicate step {step_id!r}")
        step = StoryboardStep(step_id=step_id, narrative=narrative,
                              user_action=user_action,
                              system_response=system_response)
        self.steps.append(step)
        return step

    def capture_requirement(self, text: str, kind: str = "functional",
                            source_step: Optional[str] = None) -> Requirement:
        """Capture a requirement (optionally tied to a step)."""
        if source_step is not None and \
                not any(s.step_id == source_step for s in self.steps):
            raise ValueError(f"unknown step {source_step!r}")
        requirement = Requirement(
            requirement_id=f"REQ-{len(self.requirements) + 1:03d}",
            text=text, kind=kind, source_step=source_step)
        self.requirements.append(requirement)
        return requirement

    def mark_satisfied(self, requirement_id: str) -> None:
        """Record that verification showed the requirement met."""
        for requirement in self.requirements:
            if requirement.requirement_id == requirement_id:
                requirement.satisfied = True
                return
        raise KeyError(requirement_id)

    def coverage(self) -> float:
        """Fraction of requirements currently satisfied."""
        if not self.requirements:
            return 0.0
        return (sum(1 for r in self.requirements if r.satisfied)
                / len(self.requirements))

    def unsatisfied(self) -> List[Requirement]:
        """Requirements still open."""
        return [r for r in self.requirements if not r.satisfied]


def left_flooding_storyboard() -> Storyboard:
    """The Section V-B storyboard, pre-populated."""
    storyboard = Storyboard(
        title="Local flooding tool",
        owner="Morland/Tarland/Machynlleth catchment stakeholders",
        purpose="How do I decide when my property is at risk of flooding?",
    )
    storyboard.add_step(
        "S1", "User opens the tool and sees their catchment on a map",
        user_action="navigate to portal",
        system_response="interactive map with geotagged assets")
    storyboard.add_step(
        "S2", "User explores live rainfall and river level near their home",
        user_action="click a sensor marker",
        system_response="time-series graph widget with live data")
    storyboard.add_step(
        "S3", "User opens the flood model for their catchment",
        user_action="click the model marker",
        system_response="modelling widget with scenarios and sliders")
    storyboard.add_step(
        "S4", "User runs scenarios to explore what changes flood risk",
        user_action="press a scenario button and run",
        system_response="hydrograph vs the flood threshold, instantly")
    storyboard.add_step(
        "S5", "User compares runs and draws a conclusion",
        user_action="open the comparison view",
        system_response="overlaid hydrographs of every run")
    storyboard.capture_requirement(
        "Assets discoverable by geographic location", source_step="S1")
    storyboard.capture_requirement(
        "Live sensor data visualised as time series", source_step="S2")
    storyboard.capture_requirement(
        "Models run on demand in the cloud, no install", source_step="S3")
    storyboard.capture_requirement(
        "Predefined stakeholder scenarios with slider defaults",
        source_step="S4")
    storyboard.capture_requirement(
        "Runs comparable side by side", source_step="S5")
    storyboard.capture_requirement(
        "Usable from any web-enabled device", kind="context")
    return storyboard
