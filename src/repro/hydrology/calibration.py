"""Monte Carlo calibration — the 'offline calibration' of Section IV-D.

"Model calibration was carried out offline to ensure that input data and
parameters were in the correct format and the model could adequately
reproduce observed discharge at the outlet of the catchment."

The calibrator samples parameter sets uniformly from declared ranges,
scores each against observations (NSE by default), and reports the best
set plus the behavioural population (the input GLUE consumes).  It is
deliberately model-agnostic: anything exposing
``run_with(params_dict) -> simulated_values`` can be calibrated, which
is how both TOPMODEL and FUSE share it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hydrology.metrics import nash_sutcliffe_efficiency
from repro.perf.runner import CAPTURED_ERRORS, EnsembleRunner, RunFailure


@dataclass
class CalibrationSample:
    """One sampled parameter set with its score."""

    parameters: Dict[str, float]
    score: float


@dataclass
class CalibrationResult:
    """Outcome of a Monte Carlo calibration."""

    samples: List[CalibrationSample]
    behavioural_threshold: float

    @property
    def best(self) -> CalibrationSample:
        """The highest-scoring sample."""
        return max(self.samples, key=lambda s: s.score)

    @property
    def behavioural(self) -> List[CalibrationSample]:
        """Samples at or above the behavioural threshold."""
        return [s for s in self.samples
                if s.score >= self.behavioural_threshold]

    def acceptance_rate(self) -> float:
        """Fraction of samples that are behavioural."""
        if not self.samples:
            return 0.0
        return len(self.behavioural) / len(self.samples)

    def parameter_bounds(self, name: str) -> Tuple[float, float]:
        """Min/max of a parameter over the behavioural set."""
        values = [s.parameters[name] for s in self.behavioural]
        if not values:
            raise ValueError("no behavioural samples")
        return min(values), max(values)


class MonteCarloCalibrator:
    """Uniform random search over declared parameter ranges.

    Pass a :class:`~repro.perf.runner.EnsembleRunner` to funnel the
    evaluations through the shared run cache (and, opt-in, the parallel
    backend); ``simulate`` may then be omitted — the runner's own
    callable is used.  A bare ``simulate`` gets an uncached serial
    runner of its own.  Either way, and with a cold or warm cache, the
    calibration result is identical draw for draw.
    """

    def __init__(self, ranges: Dict[str, Tuple[float, float]],
                 simulate: Optional[Callable[[Dict[str, float]],
                                             Sequence[float]]] = None,
                 objective: Optional[Callable[[Sequence[float], Sequence[float]],
                                              float]] = None,
                 rng: Optional[random.Random] = None,
                 runner: Optional[EnsembleRunner] = None):
        if not ranges:
            raise ValueError("no parameter ranges declared")
        for name, (lo, hi) in ranges.items():
            if hi < lo:
                raise ValueError(f"range for {name!r} is inverted")
        if simulate is None and runner is None:
            raise ValueError("need a simulate callable or a runner")
        self.ranges = dict(ranges)
        self.runner = runner if runner is not None \
            else EnsembleRunner(simulate)
        self.objective = objective or nash_sutcliffe_efficiency
        self.rng = rng or random.Random(0)

    def sample_parameters(self) -> Dict[str, float]:
        """Draw one uniform parameter set."""
        return {name: self.rng.uniform(lo, hi)
                for name, (lo, hi) in self.ranges.items()}

    def calibrate(self, observed: Sequence[float], iterations: int = 200,
                  behavioural_threshold: float = 0.5) -> CalibrationResult:
        """Run the search; simulation failures score -inf, not crash.

        A parameter draw that makes the model blow up is information
        (a non-behavioural region), not an error.
        """
        # all draws happen before any evaluation, so the RNG sequence is
        # independent of how (or whether) evaluations are cached
        draws = [self.sample_parameters() for _ in range(iterations)]
        outcomes = self.runner.run_many(draws, capture_errors=True)
        samples: List[CalibrationSample] = []
        for params, outcome in zip(draws, outcomes):
            if isinstance(outcome, RunFailure):
                score = float("-inf")
            else:
                try:
                    score = self.objective(observed, outcome)
                except CAPTURED_ERRORS:
                    score = float("-inf")
            samples.append(CalibrationSample(parameters=params, score=score))
        return CalibrationResult(samples=samples,
                                 behavioural_threshold=behavioural_threshold)
