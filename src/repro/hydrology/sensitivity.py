"""Parameter sensitivity analysis.

The modelling widget invites experts to "explore model parameter
sensitivity through HTML sliders"; this module supplies the analysis
behind that exploration:

* **one-at-a-time (OAT)** sweeps: vary each parameter across its range
  with the others held at reference values, reporting the response of
  any scalar metric (peak flow by default);
* **regional sensitivity analysis** (Hornberger–Spear–Young, the
  companion of GLUE): split a Monte Carlo sample into behavioural and
  non-behavioural sets and rank parameters by the Kolmogorov–Smirnov
  distance between the two marginal distributions — parameters whose
  distributions separate are the ones identifiable from data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hydrology.calibration import CalibrationResult
from repro.perf.runner import EnsembleRunner


@dataclass
class OatCurve:
    """One parameter's one-at-a-time response curve."""

    parameter: str
    points: List[Tuple[float, float]]      # (parameter value, metric)

    def metric_range(self) -> float:
        """Spread of the metric over the sweep (the OAT sensitivity)."""
        values = [m for _p, m in self.points]
        return max(values) - min(values)

    def normalised_sensitivity(self) -> float:
        """Metric range divided by the mean metric (dimensionless)."""
        values = [m for _p, m in self.points]
        mean = sum(values) / len(values)
        if mean == 0:
            return 0.0
        return self.metric_range() / abs(mean)


def one_at_a_time(simulate_metric: Callable[[Dict[str, float]], float],
                  ranges: Dict[str, Tuple[float, float]],
                  reference: Dict[str, float],
                  points: int = 7,
                  runner: Optional[EnsembleRunner] = None
                  ) -> Dict[str, OatCurve]:
    """OAT sweep of every parameter in ``ranges``.

    ``simulate_metric(params) -> scalar`` runs the model and extracts
    the metric; ``reference`` holds the values of parameters not being
    varied (it must cover every key of ``ranges``).  With a ``runner``
    (an :class:`~repro.perf.runner.EnsembleRunner` wrapping the same
    callable) the sweep evaluates through the shared run cache, so a
    repeated exploration — the slider-widget access pattern — re-runs
    nothing.
    """
    if points < 2:
        raise ValueError("need at least two sweep points")
    missing = set(ranges) - set(reference)
    if missing:
        raise ValueError(f"reference values missing for {sorted(missing)}")
    # assemble the full evaluation plan first so a batch backend can run
    # it in one pass; order matches the historical nested loops exactly
    plan: List[Tuple[str, float, Dict[str, float]]] = []
    for name, (lo, hi) in ranges.items():
        for i in range(points):
            value = lo + (hi - lo) * i / (points - 1)
            params = dict(reference)
            params[name] = value
            plan.append((name, value, params))
    if runner is None:
        runner = EnsembleRunner(simulate_metric)
    metrics = runner.run_many([params for _n, _v, params in plan])
    curves: Dict[str, OatCurve] = {}
    for (name, value, _params), metric in zip(plan, metrics):
        curves.setdefault(
            name, OatCurve(parameter=name, points=[])
        ).points.append((value, metric))
    return curves


def rank_oat(curves: Dict[str, OatCurve]) -> List[Tuple[str, float]]:
    """Parameters ordered by normalised OAT sensitivity, largest first."""
    return sorted(((name, curve.normalised_sensitivity())
                   for name, curve in curves.items()),
                  key=lambda pair: pair[1], reverse=True)


@dataclass
class RsaResult:
    """Regional sensitivity analysis outcome for one parameter."""

    parameter: str
    ks_distance: float
    behavioural_count: int
    non_behavioural_count: int

    @property
    def identifiable(self) -> bool:
        """Rule of thumb: KS > 0.2 means the data constrain the parameter."""
        return self.ks_distance > 0.2


def regional_sensitivity(calibration: CalibrationResult
                         ) -> Dict[str, RsaResult]:
    """Hornberger–Spear–Young RSA over a calibration's sample.

    Requires both behavioural and non-behavioural samples with finite
    scores (failed simulations are excluded).
    """
    behavioural = calibration.behavioural
    scored = [s for s in calibration.samples
              if s.score != float("-inf")]
    non_behavioural = [s for s in scored if s not in behavioural]
    if not behavioural or not non_behavioural:
        raise ValueError("RSA needs both behavioural and non-behavioural "
                         "samples; adjust the threshold")
    names = behavioural[0].parameters.keys()
    results: Dict[str, RsaResult] = {}
    for name in names:
        good = sorted(s.parameters[name] for s in behavioural)
        bad = sorted(s.parameters[name] for s in non_behavioural)
        results[name] = RsaResult(
            parameter=name,
            ks_distance=_ks_distance(good, bad),
            behavioural_count=len(good),
            non_behavioural_count=len(bad),
        )
    return results


def _ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (both inputs sorted)."""
    i = j = 0
    d = 0.0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        if a[i] <= b[j]:
            i += 1
        else:
            j += 1
        d = max(d, abs(i / na - j / nb))
    return d
