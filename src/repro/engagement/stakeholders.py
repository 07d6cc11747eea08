"""Stakeholder groups, workshops and the awareness→engagement funnel.

Reifies the evaluation evidence of Sections VI and VII:

* workshop feedback aggregation reproduces "more than 75% of users
  found the tool to be both useful and easy to use";
* the :class:`EngagementFunnel` models Figure 7's claim that awareness
  alone does not produce engagement — education interventions (the
  "intricacies of the used prediction models ... explained and
  discussed in detail") raise the conversion markedly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim import RandomStreams


@dataclass(frozen=True)
class StakeholderGroup:
    """One of the paper's target user groups."""

    name: str                    # e.g. "farmers"
    expertise: float             # 0 lay public .. 1 domain scientist
    computer_literacy: float     # 0 .. 1
    interest: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.expertise <= 1 or not 0 <= self.computer_literacy <= 1:
            raise ValueError("expertise/literacy are fractions")


#: The four target user groups of Section III-A.
TARGET_GROUPS: Dict[str, StakeholderGroup] = {
    "scientists": StakeholderGroup(
        "environmental scientists", expertise=0.95, computer_literacy=0.8,
        interest="upload data, run and modify models, compose workflows"),
    "policy": StakeholderGroup(
        "policy makers", expertise=0.5, computer_literacy=0.6,
        interest="answers to what-if questions for decision making"),
    "farmers": StakeholderGroup(
        "local communities / farmers", expertise=0.35, computer_literacy=0.45,
        interest="impact of farming and water management practices"),
    "public": StakeholderGroup(
        "general public", expertise=0.15, computer_literacy=0.55,
        interest="is my local area susceptible to flood?"),
}


@dataclass
class FeedbackEntry:
    """One attendee's workshop questionnaire."""

    group: str
    useful: bool
    easy_to_use: bool
    good_look_and_feel: bool
    comment: str = ""


@dataclass
class Workshop:
    """One evaluation workshop with collected feedback."""

    catchment: str
    day: float
    attendees: Dict[str, int] = field(default_factory=dict)  # group -> count
    feedback: List[FeedbackEntry] = field(default_factory=list)

    @staticmethod
    def new(catchment: str, day: float,
            attendees: Optional[Dict[str, int]] = None) -> "Workshop":
        """Create a workshop with its own copy of ``attendees``."""
        return Workshop(catchment=catchment, day=day,
                        attendees=dict(attendees or {}))

    def collect(self, entry: FeedbackEntry) -> None:
        """Record one questionnaire."""
        self.feedback.append(entry)

    def fraction_useful_and_easy(self) -> float:
        """The paper's headline statistic for this workshop."""
        if not self.feedback:
            return 0.0
        hits = sum(1 for e in self.feedback if e.useful and e.easy_to_use)
        return hits / len(self.feedback)


def simulate_workshop_feedback(workshop: Workshop,
                               groups: Dict[str, StakeholderGroup],
                               tool_quality: float = 0.85,
                               education_level: float = 0.7,
                               streams: Optional[RandomStreams] = None
                               ) -> Workshop:
    """Fill a workshop with synthetic questionnaires.

    Each attendee's probability of finding the tool useful rises with
    the tool quality and how well the models were explained to them
    (``education_level``); ease-of-use additionally rises with their
    computer literacy (the low-entry-barrier design compensates for the
    rest).
    """
    if not 0 <= tool_quality <= 1 or not 0 <= education_level <= 1:
        raise ValueError("quality/education are fractions")
    rng = (streams or RandomStreams()).get(
        f"workshop.{workshop.catchment}.{workshop.day:g}")
    for group_key, count in workshop.attendees.items():
        group = groups[group_key]
        for _ in range(count):
            p_useful = min(1.0, tool_quality * (0.62 + 0.45 * education_level
                                                + 0.1 * group.expertise))
            p_easy = min(1.0, 0.62 + 0.25 * group.computer_literacy
                         + 0.18 * tool_quality)
            workshop.collect(FeedbackEntry(
                group=group_key,
                useful=rng.random() < p_useful,
                easy_to_use=rng.random() < p_easy,
                good_look_and_feel=rng.random() < 0.8 + 0.1 * tool_quality,
            ))
    return workshop


class EngagementFunnel:
    """Figure 7: aware → understands → engaged.

    A population becomes *aware* through outreach; awareness converts to
    *understanding* only through education interventions; understanding
    converts to *engagement* (attending workshops, defining storyboards,
    acting on scenario results).  Without education, the middle stage
    throttles everything — "awareness is not enough".
    """

    #: Conversion probabilities per exposure.
    AWARE_TO_UNDERSTANDS_BASE = 0.05      # awareness campaigns alone
    AWARE_TO_UNDERSTANDS_EDUCATED = 0.45  # with model/data education
    UNDERSTANDS_TO_ENGAGED = 0.55

    def __init__(self, population: int,
                 streams: Optional[RandomStreams] = None):
        if population <= 0:
            raise ValueError("population must be positive")
        self.population = population
        self.rng = (streams or RandomStreams()).get("funnel")
        self.aware = 0
        self.understands = 0
        self.engaged = 0

    def outreach(self, reached: int) -> None:
        """An awareness campaign reaches ``reached`` more people."""
        self.aware = min(self.population, self.aware + reached)

    def exposure_round(self, with_education: bool) -> None:
        """One round of interaction with the aware population."""
        conversion = (self.AWARE_TO_UNDERSTANDS_EDUCATED if with_education
                      else self.AWARE_TO_UNDERSTANDS_BASE)
        candidates = self.aware - self.understands
        for _ in range(max(0, candidates)):
            if self.rng.random() < conversion:
                self.understands += 1
        candidates = self.understands - self.engaged
        for _ in range(max(0, candidates)):
            if self.rng.random() < self.UNDERSTANDS_TO_ENGAGED:
                self.engaged += 1

    def engaged_fraction(self) -> float:
        """Engaged share of the whole population."""
        return self.engaged / self.population

    def snapshot(self) -> Dict[str, int]:
        """Current funnel stage counts."""
        return {"population": self.population, "aware": self.aware,
                "understands": self.understands, "engaged": self.engaged}
