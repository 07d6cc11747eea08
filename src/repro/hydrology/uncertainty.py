"""GLUE uncertainty analysis.

Section VI's worked example of why IaaS elasticity matters: "uncertainty
analysis where a model is repeatedly executed using ranges of values for
input parameters in order to compensate for any sources of error".  The
stakeholders also asked for "presentation of uncertainty bounds" on the
widget output.

This is the Generalised Likelihood Uncertainty Estimation procedure
(Beven & Binley 1992): keep the behavioural parameter sets from a Monte
Carlo sweep, weight each by its likelihood (rescaled NSE by default),
and form weighted prediction quantiles at every timestep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hydrology.calibration import CalibrationResult
from repro.hydrology.timeseries import TimeSeries
from repro.perf.runner import EnsembleRunner


@dataclass
class GlueResult:
    """Weighted prediction bounds from the behavioural ensemble."""

    lower: TimeSeries      # e.g. 5th weighted percentile
    median: TimeSeries
    upper: TimeSeries      # e.g. 95th weighted percentile
    behavioural_count: int
    total_count: int

    def bounds_at(self, index: int) -> Tuple[float, float]:
        """(lower, upper) bound at one timestep."""
        return self.lower[index], self.upper[index]

    def sharpness(self) -> float:
        """Mean bound width — smaller means tighter uncertainty."""
        widths = [u - l for l, u in zip(self.lower, self.upper)]
        return sum(widths) / len(widths) if widths else 0.0

    def coverage(self, observed: Sequence[float]) -> float:
        """Fraction of observations inside the bounds."""
        if len(observed) != len(self.lower):
            raise ValueError("length mismatch with bounds")
        inside = sum(1 for o, l, u in zip(observed, self.lower, self.upper)
                     if l <= o <= u)
        return inside / len(observed)


class GlueAnalysis:
    """GLUE over a calibration result.

    ``simulate`` maps a parameter dict to the simulated series (same
    callable the calibrator used); runs are re-executed for the
    behavioural sets only — exactly the embarrassingly parallel
    many-model-runs workload the cloudbursting benches schedule.

    Pass the same :class:`~repro.perf.runner.EnsembleRunner` the
    calibration used and the behavioural re-runs are all cache hits:
    GLUE then costs quantile arithmetic, not model time.
    """

    def __init__(self,
                 simulate: Optional[Callable[[Dict[str, float]],
                                             Sequence[float]]] = None,
                 lower_quantile: float = 0.05, upper_quantile: float = 0.95,
                 runner: Optional[EnsembleRunner] = None):
        if not 0 <= lower_quantile < upper_quantile <= 1:
            raise ValueError("need 0 <= lower < upper <= 1")
        if simulate is None and runner is None:
            raise ValueError("need a simulate callable or a runner")
        self.runner = runner if runner is not None \
            else EnsembleRunner(simulate)
        self.lower_quantile = lower_quantile
        self.upper_quantile = upper_quantile

    def run(self, calibration: CalibrationResult, start: float = 0.0,
            dt: float = 3600.0) -> GlueResult:
        """Compute weighted bounds from the behavioural population."""
        behavioural = calibration.behavioural
        if not behavioural:
            raise ValueError("no behavioural parameter sets - "
                             "lower the threshold or sample more")
        threshold = calibration.behavioural_threshold
        weights = [max(0.0, s.score - threshold) + 1e-9 for s in behavioural]
        total_weight = sum(weights)
        weights = [w / total_weight for w in weights]

        runs = [list(r) for r in self.runner.run_many(
            [s.parameters for s in behavioural])]
        n = min(len(r) for r in runs)

        lower, median, upper = [], [], []
        for t in range(n):
            column = sorted(zip((r[t] for r in runs), weights))
            lower.append(_weighted_quantile(column, self.lower_quantile))
            median.append(_weighted_quantile(column, 0.5))
            upper.append(_weighted_quantile(column, self.upper_quantile))

        make = lambda vals, name: TimeSeries(start, dt, vals, units="mm/step",
                                             name=name)
        return GlueResult(
            lower=make(lower, f"glue:p{int(self.lower_quantile * 100)}"),
            median=make(median, "glue:median"),
            upper=make(upper, f"glue:p{int(self.upper_quantile * 100)}"),
            behavioural_count=len(behavioural),
            total_count=len(calibration.samples),
        )


def _weighted_quantile(sorted_value_weight: List[Tuple[float, float]],
                       q: float) -> float:
    """Quantile of a sorted (value, weight) column."""
    cumulative = 0.0
    for value, weight in sorted_value_weight:
        cumulative += weight
        if cumulative >= q:
            return value
    return sorted_value_weight[-1][0]
