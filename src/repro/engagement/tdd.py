"""The test-driven development cycle of Figure 2.

Artefacts (prototypes of storyboard features) move through
``DRAFT → VERIFIED → VALIDATED``:

* **verification** cycles ("a day to a week") check technical
  correctness against the storyboard's requirements — unit and
  integration testing with the storyboard owners;
* **validation** cycles ("every 1-2 months or so" in the consortium,
  workshops "once or twice a year" with stakeholders) check utility and
  usability.

The :class:`DevelopmentProcess` tracks cycles against a simulated
project calendar so the FIG2 bench can reproduce the cadence table, and
records the dialogue direction of each exchange for FIG3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Calendar lengths, days.
VERIFICATION_MIN_DAYS = 1.0
VERIFICATION_MAX_DAYS = 7.0
VALIDATION_MIN_DAYS = 30.0
VALIDATION_MAX_DAYS = 60.0


class ArtefactState(enum.Enum):
    """Where a prototype sits in the quality pipeline."""

    DRAFT = "draft"
    VERIFIED = "verified"
    VALIDATED = "validated"


class CyclePhase(enum.Enum):
    """The two quality-cycle kinds of Figure 2."""

    VERIFICATION = "verification"
    VALIDATION = "validation"


@dataclass
class Artefact:
    """One prototype implementing part of a storyboard."""

    artefact_id: str
    title: str
    storyboard: str
    state: ArtefactState = ArtefactState.DRAFT
    verified_at: Optional[float] = None
    validated_at: Optional[float] = None


@dataclass
class CycleRecord:
    """One completed verification or validation cycle."""

    phase: CyclePhase
    artefact_id: str
    started_day: float
    finished_day: float
    passed: bool
    feedback: str = ""

    @property
    def duration_days(self) -> float:
        """Cycle length in project days."""
        return self.finished_day - self.started_day


@dataclass
class DialogueEvent:
    """One researcher↔stakeholder exchange (Figure 3's arrows)."""

    day: float
    direction: str       # "researchers->stakeholders" | "stakeholders->researchers"
    topic: str


class DevelopmentProcess:
    """Tracks the project's artefacts, cycles and dialogue."""

    def __init__(self) -> None:
        self.day = 0.0
        self.artefacts: Dict[str, Artefact] = {}
        self.cycles: List[CycleRecord] = []
        self.dialogue: List[DialogueEvent] = []

    def advance(self, days: float) -> None:
        """Move the project calendar forward."""
        if days < 0:
            raise ValueError("time moves forward")
        self.day += days

    def new_artefact(self, title: str, storyboard: str) -> Artefact:
        """Start a prototype in DRAFT."""
        artefact = Artefact(
            artefact_id=f"ART-{len(self.artefacts) + 1:03d}",
            title=title, storyboard=storyboard)
        self.artefacts[artefact.artefact_id] = artefact
        return artefact

    def run_verification(self, artefact: Artefact,
                         duration_days: float) -> CycleRecord:
        """A verification cycle: technical correctness with the owners
        (it passes; a prototype fails at validation)."""
        if not (VERIFICATION_MIN_DAYS <= duration_days <= VERIFICATION_MAX_DAYS):
            raise ValueError(
                f"verification cycles take {VERIFICATION_MIN_DAYS}-"
                f"{VERIFICATION_MAX_DAYS} days, not {duration_days}")
        record = self._run_cycle(CyclePhase.VERIFICATION, artefact,
                                 duration_days, True, "")
        artefact.state = ArtefactState.VERIFIED
        artefact.verified_at = self.day
        # verification reports progress to the storyboard owners
        self.dialogue.append(DialogueEvent(
            day=self.day, direction="researchers->stakeholders",
            topic=f"verification of {artefact.title}"))
        return record

    def run_validation(self, artefact: Artefact, duration_days: float,
                       passed: bool = True, feedback: str = "") -> CycleRecord:
        """A validation cycle: utility and usability with stakeholders."""
        if artefact.state == ArtefactState.DRAFT:
            raise ValueError("validate only verified artefacts")
        if not (VALIDATION_MIN_DAYS <= duration_days <= VALIDATION_MAX_DAYS):
            raise ValueError(
                f"validation cycles take {VALIDATION_MIN_DAYS}-"
                f"{VALIDATION_MAX_DAYS} days, not {duration_days}")
        record = self._run_cycle(CyclePhase.VALIDATION, artefact,
                                 duration_days, passed, feedback)
        if passed:
            artefact.state = ArtefactState.VALIDATED
            artefact.validated_at = self.day
        else:
            artefact.state = ArtefactState.DRAFT  # back to the drawing board
        # validation is a two-way dialogue
        self.dialogue.append(DialogueEvent(
            day=self.day, direction="researchers->stakeholders",
            topic=f"demonstration of {artefact.title}"))
        self.dialogue.append(DialogueEvent(
            day=self.day, direction="stakeholders->researchers",
            topic=feedback or f"feedback on {artefact.title}"))
        return record

    def _run_cycle(self, phase: CyclePhase, artefact: Artefact,
                   duration_days: float, passed: bool,
                   feedback: str) -> CycleRecord:
        started = self.day
        self.advance(duration_days)
        record = CycleRecord(phase=phase, artefact_id=artefact.artefact_id,
                             started_day=started, finished_day=self.day,
                             passed=passed, feedback=feedback)
        self.cycles.append(record)
        return record

    # -- reporting -----------------------------------------------------------------

    def cycles_of(self, phase: CyclePhase) -> List[CycleRecord]:
        """All cycles of one phase."""
        return [c for c in self.cycles if c.phase == phase]

    def mean_cycle_days(self, phase: CyclePhase) -> float:
        """Mean cycle length of one phase."""
        cycles = self.cycles_of(phase)
        if not cycles:
            return 0.0
        return sum(c.duration_days for c in cycles) / len(cycles)

    def dialogue_balance(self) -> Dict[str, int]:
        """Exchange counts per direction (Figure 3 must show both > 0)."""
        balance: Dict[str, int] = {}
        for event in self.dialogue:
            balance[event.direction] = balance.get(event.direction, 0) + 1
        return balance

    def validated_artefacts(self) -> List[Artefact]:
        """Artefacts that made it all the way through."""
        return [a for a in self.artefacts.values()
                if a.state == ArtefactState.VALIDATED]
