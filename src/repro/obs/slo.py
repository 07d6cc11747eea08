"""Declarative SLOs and multi-window multi-burn-rate alerting.

An :class:`SLO` states a target over telemetry series (see
:mod:`repro.obs.telemetry`): availability ("≥ 99.9 % of attempts
succeed"), latency ("≥ 95 % of requests under 5 s" — evaluated exactly
from cumulative ``.bucket`` series, never from approximated
percentiles), or freshness ("data never staler than 60 s").

Each SLO is watched by an :class:`AlertRule` using the SRE-book
multi-window multi-burn-rate recipe: an alert fires only when *both* a
long and a short window burn error budget faster than a factor — the
long window rejects blips, the short window makes the alert resolve
promptly once the incident ends.  Transitions emit
``obs.alert.firing`` / ``obs.alert.resolved`` events and fan out a
payload over the deployment's push channel, which is the paper's
push-vs-poll argument applied to the operators themselves.
"""

from __future__ import annotations

import math
from operator import sub
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.hub import obs_of
from repro.obs.telemetry import SeriesStore, window_buckets
from repro.sim.kernel import Simulator

#: Default (long_window, short_window, burn_factor) pairs, scaled for
#: simulated deployments whose whole life is an hour or two: a fast page
#: (5 min / 1 min at 14.4× burn) and a slow one (30 min / 5 min at 6×).
DEFAULT_BURN_WINDOWS: Tuple[Tuple[float, float, float], ...] = (
    (300.0, 60.0, 14.4),
    (1800.0, 300.0, 6.0),
)


class SLO:
    """One service-level objective over series in a :class:`SeriesStore`.

    Use the :meth:`availability`, :meth:`latency` and :meth:`freshness`
    factories; ``sli(store, now, window)`` returns the achieved level in
    ``[0, 1]`` for the trailing window, or ``None`` when the store holds
    no evidence yet (no data means no alert, not a breach).
    """

    AVAILABILITY = "availability"
    LATENCY = "latency"
    FRESHNESS = "freshness"

    def __init__(self, name: str, kind: str, target: float,
                 params: Dict[str, Any], labels: Dict[str, str]):
        if not 0.0 < target < 1.0:
            raise ValueError(f"SLO {name!r} target must be in (0, 1)")
        self.name = name
        self.kind = kind
        self.target = target
        self.params = params
        self.labels = {k: str(v) for k, v in labels.items()}

    # -- factories ----------------------------------------------------------

    @classmethod
    def availability(cls, name: str, *, total: str, errors: str,
                     target: float = 0.999, **labels: str) -> "SLO":
        """Fraction of ``total`` counter events not matched by ``errors``."""
        return cls(name, cls.AVAILABILITY, target,
                   {"total": total, "errors": errors}, labels)

    @classmethod
    def latency(cls, name: str, *, metric: str, threshold: float,
                target: float = 0.95, **labels: str) -> "SLO":
        """Fraction of ``metric`` observations at or under ``threshold``.

        ``metric`` names a scraped histogram; the SLI reads its
        cumulative ``<metric>.bucket`` series at the smallest bound ≥
        ``threshold`` (thresholds should sit on a bucket bound for an
        exact answer — this is the Prometheus ``le`` discipline).
        """
        return cls(name, cls.LATENCY, target,
                   {"metric": metric, "threshold": threshold}, labels)

    @classmethod
    def freshness(cls, name: str, *, series: str, max_age: float,
                  target: float = 0.99, **labels: str) -> "SLO":
        """Fraction of the window during which ``series`` was fresh.

        A series is *stale* whenever more than ``max_age`` seconds pass
        without a new sample; the SLI is the covered fraction of the
        trailing window.
        """
        return cls(name, cls.FRESHNESS, target,
                   {"series": series, "max_age": max_age}, labels)

    # -- evaluation ---------------------------------------------------------

    def sli(self, store: SeriesStore, now: float,
            window: float) -> Optional[float]:
        """Achieved level over ``[now - window, now]``, or ``None``."""
        start = now - window
        if self.kind == self.AVAILABILITY:
            return self._availability_sli(store, start, now)
        if self.kind == self.LATENCY:
            return self._latency_sli(store, start, now)
        if self.kind == self.FRESHNESS:
            return self._freshness_sli(store, start, now)
        raise ValueError(f"unknown SLO kind {self.kind!r}")

    def burn_rate(self, store: SeriesStore, now: float,
                  window: float) -> Optional[float]:
        """Error-budget burn multiple over the window (1.0 = on budget)."""
        level = self.sli(store, now, window)
        if level is None:
            return None
        budget = 1.0 - self.target
        return (1.0 - level) / budget

    def _sum_deltas(self, store: SeriesStore, name: str, start: float,
                    end: float) -> Optional[float]:
        deltas = [s.delta(start, end) for s in store.query(name,
                                                           **self.labels)]
        deltas = [d for d in deltas if d is not None]
        if not deltas:
            return None
        return sum(deltas)

    def _availability_sli(self, store: SeriesStore, start: float,
                          end: float) -> Optional[float]:
        total = self._sum_deltas(store, self.params["total"], start, end)
        errors = self._sum_deltas(store, self.params["errors"], start, end)
        if total is None or total <= 0:
            return None
        if errors is None:
            errors = 0.0
        return max(0.0, 1.0 - errors / total)

    def _latency_sli(self, store: SeriesStore, start: float,
                     end: float) -> Optional[float]:
        buckets = window_buckets(store, self.params["metric"], start, end,
                                 **self.labels)
        last, total = buckets[-1] if buckets else (0.0, 0.0)
        if last != math.inf or total <= 0:
            return None     # no +Inf sample in reach, or nothing observed
        # the smallest finite bound >= the threshold owns it; past the
        # last one only +Inf does, and nothing can be shown good
        good = next((grown for bound, grown in buckets[:-1]
                     if bound >= self.params["threshold"]), 0.0)
        return min(1.0, good / total)

    def _freshness_sli(self, store: SeriesStore, start: float,
                       end: float) -> Optional[float]:
        max_age = self.params["max_age"]
        matches = store.query(self.params["series"], **self.labels)
        if not matches:
            return None
        fractions = []
        for series in matches:
            times = series.times(start, end)
            prior = series.prior(start)
            if prior is not None:
                times.insert(0, prior[0])
            if not times:
                continue
            # samples are time-ordered and only the prior can precede
            # the window, so once it is clamped the gaps are the
            # neighbour differences; the filter runs at C speed and a
            # healthy series has no gap left for the sum
            times[0] = max(start, times[0])
            stale = sum(gap - max_age for gap in
                        filter(float(max_age).__lt__,
                               map(sub, times[1:], times)))
            if end - times[-1] > max_age:
                stale += (end - times[-1]) - max_age
            span = end - times[0]
            if span <= 0:
                fractions.append(1.0)
            else:
                fractions.append(max(0.0, 1.0 - stale / span))
        if not fractions:
            return None
        return min(fractions)

    def describe(self) -> Dict[str, Any]:
        """Plain-dict form for API responses."""
        return {"name": self.name, "kind": self.kind, "target": self.target,
                "params": dict(self.params), "labels": dict(self.labels)}


class AlertRule:
    """Multi-window multi-burn-rate watcher for one :class:`SLO`.

    ``windows`` is an iterable of ``(long, short, factor)`` triples; the
    rule fires when any triple has *both* windows burning at ≥ its
    factor, and resolves when none does.  State transitions are the only
    outputs — evaluation is idempotent per tick.
    """

    def __init__(self, slo: SLO,
                 windows: Optional[Iterable[Tuple[float, float, float]]]
                 = None):
        self.slo = slo
        self.windows = tuple(windows) if windows else DEFAULT_BURN_WINDOWS
        self.firing = False
        self.fired_at: Optional[float] = None
        self.resolved_at: Optional[float] = None
        self.transitions = 0

    def _burn_memo(self, store: SeriesStore, now: float):
        """One-tick burn-rate cache — window sizes repeat across pairs
        (the default fast pair's long window is the slow pair's short
        one), so each distinct window computes its SLI once."""
        memo: Dict[float, Optional[float]] = {}

        def burn(window: float) -> Optional[float]:
            if window not in memo:
                memo[window] = self.slo.burn_rate(store, now, window)
            return memo[window]

        return burn

    def evaluate(self, store: SeriesStore,
                 now: float) -> Optional[Dict[str, Any]]:
        """Re-check burn rates; returns a transition payload or ``None``."""
        breached = None
        burn = self._burn_memo(store, now)
        for long_w, short_w, factor in self.windows:
            long_burn = burn(long_w)
            short_burn = burn(short_w)
            if long_burn is None or short_burn is None:
                continue
            if long_burn >= factor and short_burn >= factor:
                breached = {"window": long_w, "short_window": short_w,
                            "factor": factor,
                            "burn_rate": round(long_burn, 3),
                            "short_burn_rate": round(short_burn, 3)}
                break
        if breached and not self.firing:
            self.firing = True
            self.fired_at = now
            self.transitions += 1
            return {"state": "firing", "slo": self.slo.name, "t": now,
                    **breached}
        if not breached and self.firing:
            self.firing = False
            self.resolved_at = now
            self.transitions += 1
            return {"state": "resolved", "slo": self.slo.name, "t": now}
        return None

    def status(self, store: SeriesStore, now: float) -> Dict[str, Any]:
        """Current state for dashboards: SLI, burns per window, firing."""
        burns = {}
        burn = self._burn_memo(store, now)
        for long_w, short_w, factor in self.windows:
            burns[f"{long_w:g}s"] = burn(long_w)
            burns[f"{short_w:g}s"] = burn(short_w)
        sli = self.slo.sli(store, now, self.windows[0][0])
        return {
            "slo": self.slo.name,
            "kind": self.slo.kind,
            "target": self.slo.target,
            "sli": sli,
            "burn_rates": {k: (round(v, 3) if v is not None else None)
                           for k, v in burns.items()},
            "firing": self.firing,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
        }


class AlertManager:
    """Evaluates every rule each scrape tick and routes transitions.

    Firing/resolving emits ``obs.alert.firing`` / ``obs.alert.resolved``
    on the shared event log and invokes ``notifier`` (the deployment
    wires this to :meth:`PushGateway.broadcast`, so pages ride the same
    channel fabric as user notifications).  The full transition history
    stays queryable for the bench's mean-time-to-detect measurement.
    """

    def __init__(self, sim: Simulator, store: SeriesStore,
                 notifier: Optional[Callable[[Dict[str, Any]], None]] = None):
        self.sim = sim
        self.store = store
        self.notifier = notifier
        self.rules: List[AlertRule] = []
        self.history: List[Dict[str, Any]] = []

    def add(self, slo: SLO,
            windows: Optional[Iterable[Tuple[float, float, float]]]
            = None) -> AlertRule:
        """Watch ``slo``; returns its rule for inspection."""
        rule = AlertRule(slo, windows=windows)
        self.rules.append(rule)
        return rule

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Evaluate every rule; returns the transitions that happened."""
        t = now if now is not None else self.sim.now
        events = obs_of(self.sim).events
        transitions = []
        for rule in self.rules:
            payload = rule.evaluate(self.store, t)
            if payload is None:
                continue
            transitions.append(payload)
            self.history.append(payload)
            events.emit(f"obs.alert.{payload['state']}", **{
                k: v for k, v in payload.items() if k != "state"})
            if self.notifier is not None:
                self.notifier(dict(payload))
        return transitions

    def firing(self) -> List[Dict[str, Any]]:
        """Currently firing alerts (name + since)."""
        return [{"alert": r.slo.name, "since": r.fired_at}
                for r in self.rules if r.firing]

    def status(self, now: float) -> List[Dict[str, Any]]:
        """Per-rule dashboard status."""
        return [rule.status(self.store, now) for rule in self.rules]

    def health_score(self, now: float) -> float:
        """0–100: −40 per firing alert, −10 per SLO below target."""
        score = 100.0
        for rule in self.rules:
            if rule.firing:
                score -= 40.0
                continue
            sli = rule.slo.sli(self.store, now, rule.windows[0][0])
            if sli is not None and sli < rule.slo.target:
                score -= 10.0
        return max(0.0, score)
