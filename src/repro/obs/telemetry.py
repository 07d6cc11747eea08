"""The telemetry plane: the metrics model, windowed on the simulated clock.

:mod:`repro.sim.metrics` is the model — labeled instruments in
registries, each an end-of-run total on its own.  This module samples
them *over time*, so they can be correlated with traces and held
against a definition of "healthy":

* :class:`Series` / :class:`SeriesStore` — a bounded store of labeled
  time series (dimensions: ``service``, ``location``, ``shard``,
  ``priority``, ``tenant`` — any string label works), queryable by
  name, label subset and time range, with counter-delta and windowed
  helpers;
* :class:`MetricsScraper` — a periodic process on the simulated clock
  that samples the raw signals of every watched
  :class:`~repro.sim.metrics.MetricsRegistry` into the store: counter
  and gauge values and cumulative ``<name>.bucket`` series per histogram
  bucket (the Prometheus ``le`` convention) — what a delta, a mean and
  a latency SLI are defined over.  A series' labels are its registry's
  plus its instrument's own; statistics are derived on read;
* :func:`red_view` — request rate / errors / duration over the raw
  series, its p95 from the window's bucket growth;
* :class:`TelemetryPlane` — the store + scraper + SLO evaluator bundle
  one deployment owns (see :mod:`repro.obs.slo` for the SLO half).

The scraper also meters itself: cumulative *host* seconds spent
scraping (``host_seconds``) is what the observability bench holds under
its per-scrape-per-series ceiling, and ``lag()`` is the staleness the
admin console surfaces.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.kernel import Simulator
from repro.sim.metrics import (Histogram, LabelSet, MetricsRegistry,
                               bucket_quantile)

#: How many points one series retains (a ring buffer: a 5 s scrape
#: interval keeps one simulated hour at the default).
DEFAULT_MAX_POINTS = 720
#: How many distinct (name, labels) series one store accepts.
DEFAULT_MAX_SERIES = 8192


def _label_key(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_bound(bound: float) -> str:
    """The ``le`` label value of one histogram bucket bound."""
    if math.isinf(bound):
        return "+Inf"
    return f"{bound:g}"


class Series:
    """One labeled time series: bounded ``(t, value)`` points.

    Times and values live in parallel sorted lists so every windowed
    query is a :func:`bisect.bisect_right` instead of a ring-buffer
    scan — the SLO evaluator calls :meth:`delta` thousands of times per
    run, and this is what keeps the scraper inside its overhead budget.
    The bound is enforced lazily: the buffer grows to twice
    ``max_points`` and is then halved in one slice, which amortises the
    front-trim to O(1) per append.
    """

    __slots__ = ("name", "labels", "max_points", "_times", "_values",
                 "_trimmed")

    def __init__(self, name: str, labels: Dict[str, str],
                 max_points: int = DEFAULT_MAX_POINTS):
        self.name = name
        self.labels = dict(labels)
        self.max_points = max_points
        self._times: List[float] = []
        self._values: List[float] = []
        self._trimmed = False

    def append(self, t: float, value: float) -> None:
        """Record ``value`` at time ``t`` (monotonic appends expected)."""
        self._times.append(t)
        self._values.append(float(value))
        if len(self._times) >= 2 * self.max_points:
            del self._times[:self.max_points]
            del self._values[:self.max_points]
            self._trimmed = True

    def points(self, start: Optional[float] = None,
               end: Optional[float] = None) -> List[Tuple[float, float]]:
        """Points with ``start <= t <= end`` (both bounds optional)."""
        lo = 0 if start is None else bisect_left(self._times, start)
        hi = (len(self._times) if end is None
              else bisect_right(self._times, end))
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def latest(self) -> Optional[Tuple[float, float]]:
        """The most recent point, or ``None`` while empty."""
        if not self._times:
            return None
        return (self._times[-1], self._values[-1])

    def prior(self, t: float) -> Optional[Tuple[float, float]]:
        """The most recent point at-or-before ``t``, or ``None``."""
        i = bisect_right(self._times, t)
        if i == 0:
            return None
        return (self._times[i - 1], self._values[i - 1])

    def times(self, start: float, end: float) -> List[float]:
        """Just the sample times in ``[start, end]`` (no tuple packing)."""
        lo = bisect_left(self._times, start)
        hi = bisect_right(self._times, end)
        return self._times[lo:hi]

    def __len__(self) -> int:
        return len(self._times)

    # -- windowed helpers ---------------------------------------------------

    def delta(self, start: float, end: float) -> Optional[float]:
        """Counter growth across ``[start, end]``.

        Uses the last sample at-or-before ``start`` as the baseline when
        one exists; a series whose *first ever* sample falls inside the
        window baselines at zero instead — counters only appear in a
        scrape once first incremented, so their pre-first-sample growth
        belongs to the window.  ``None`` when there is no data at or
        before ``end`` at all; a negative step (counter reset) clamps to
        the post-reset value.
        """
        times = self._times
        hi = bisect_right(times, end)
        if hi == 0:
            return None
        last = self._values[hi - 1]
        lo = bisect_right(times, start)
        if lo > 0:
            baseline = self._values[lo - 1]
        elif self._trimmed:
            # eviction means the earliest retained point may not be the
            # series' birth; only then is a zero baseline wrong
            baseline = self._values[0]
        else:
            baseline = 0.0
        return max(0.0, last - baseline)

    def rate(self, start: float, end: float) -> Optional[float]:
        """Counter growth per second across ``[start, end]``."""
        grown = self.delta(start, end)
        if grown is None or end <= start:
            return None
        return grown / (end - start)

    def mean(self, start: float, end: float) -> Optional[float]:
        """Arithmetic mean of samples inside the window (``None`` if empty)."""
        lo = bisect_left(self._times, start)
        hi = bisect_right(self._times, end)
        if hi <= lo:
            return None
        values = self._values[lo:hi]
        return sum(values) / len(values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Series {self.name} {self.labels} n={len(self._times)}>"


class SeriesStore:
    """Bounded collection of labeled series, keyed by (name, labels).

    At the series bound, *new* series are dropped (and counted in
    ``dropped_series``) rather than evicting live ones — a scrape storm
    of fresh label combinations must not destroy the operator's existing
    dashboards mid-incident.
    """

    def __init__(self, max_series: int = DEFAULT_MAX_SERIES,
                 max_points: int = DEFAULT_MAX_POINTS):
        self.max_series = max_series
        self.max_points = max_points
        self._series: Dict[Tuple[str, LabelSet], Series] = {}
        self.dropped_series = 0
        # label-superset matching is a full scan; the SLO evaluator asks
        # the same questions every tick, so memoise until a new series
        # appears (appends never change which series match)
        self._query_cache: Dict[Tuple[str, LabelSet], List[Series]] = {}

    # names are positional-only: label keys reach here from a client's
    # query string, and one spelled ``name`` or ``self`` is a label too

    def record(self, name: str, t: float, value: float, /,
               **labels: str) -> Optional[Series]:
        """Append one point, creating the series on first sight."""
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                self.dropped_series += 1
                return None
            series = Series(name, {k: str(v) for k, v in labels.items()},
                            max_points=self.max_points)
            self._series[key] = series
            self._query_cache.clear()
        series.append(t, value)
        return series

    def get(self, name: str, /, **labels: str) -> Optional[Series]:
        """The exact series for ``name`` + ``labels``, or ``None``."""
        return self._series.get((name, _label_key(labels)))

    def query(self, name: str, /, **labels: str) -> List[Series]:
        """Every series of ``name`` whose labels are a superset of ``labels``."""
        wanted = {str(k): str(v) for k, v in labels.items()}
        cache_key = (name, _label_key(wanted))
        cached = self._query_cache.get(cache_key)
        if cached is not None:
            return list(cached)
        out = []
        for (series_name, _key), series in self._series.items():
            if series_name != name:
                continue
            if all(series.labels.get(k) == v for k, v in wanted.items()):
                out.append(series)
        self._query_cache[cache_key] = out
        return list(out)

    def names(self) -> List[str]:
        """Distinct series names, sorted."""
        return sorted({name for name, _ in self._series})

    def series_count(self) -> int:
        """Number of live series."""
        return len(self._series)

    def all_series(self) -> List[Series]:
        """Every live series (a copy of the list)."""
        return list(self._series.values())


class MetricsScraper:
    """Samples watched registries into a :class:`SeriesStore` periodically.

    :meth:`add_registry` watches a whole
    :class:`~repro.sim.metrics.MetricsRegistry` under a label set: each
    tick walks its ``instruments()`` (one registered later is picked up
    by the next tick) and appends every counter and gauge value and
    every cumulative histogram bucket.  :meth:`start` spawns the scrape
    loop on the simulated clock; each tick also invokes every
    ``on_scrape`` hook (the SLO evaluator registers itself there).
    """

    def __init__(self, sim: Simulator, store: SeriesStore,
                 interval: float = 5.0):
        if interval <= 0:
            raise ValueError("scrape interval must be positive")
        self.sim = sim
        self.store = store
        self.interval = interval
        #: the watched ``(labels, registry)`` pairs, in watch order
        self.sources: List[Tuple[Dict[str, str], MetricsRegistry]] = []
        self._hooks: List[Callable[[float], None]] = []
        # instrument (or (histogram, bucket index), or the name of one
        # of the scraper's own two series) -> Series: steady-state ticks
        # append directly, no label set re-sorted through the store
        self._table: Dict[Any, Series] = {}
        self._running = False
        self.scrapes = 0
        self.samples = 0
        self.last_scrape_at: Optional[float] = None
        #: cumulative host CPU seconds spent inside scrape ticks — the
        #: overhead the observability bench holds under budget
        self.host_seconds = 0.0

    # -- sources ------------------------------------------------------------

    def add_registry(self, registry: MetricsRegistry, /,
                     **labels: str) -> None:
        """Sample every instrument of ``registry`` under ``labels`` each
        tick."""
        self.sources.append(({k: str(v) for k, v in labels.items()},
                             registry))

    def on_scrape(self, hook: Callable[[float], None]) -> None:
        """Run ``hook(now)`` after every scrape (SLO evaluation, alerts)."""
        self._hooks.append(hook)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin scraping every ``interval`` simulated seconds."""
        if self._running:
            return
        self._running = True
        self.sim.spawn(self._loop(), name="obs.scraper")

    def stop(self) -> None:
        """Stop after the current tick."""
        self._running = False

    @property
    def running(self) -> bool:
        """Whether the scrape loop is active."""
        return self._running

    def lag(self, now: Optional[float] = None) -> float:
        """Seconds since the last completed scrape (staleness)."""
        if self.last_scrape_at is None:
            return math.inf
        return (now if now is not None else self.sim.now) - self.last_scrape_at

    def _loop(self):
        while self._running:
            yield self.interval
            if not self._running:
                return
            self.scrape_once()

    # -- one tick -----------------------------------------------------------

    def _record(self, key: Any, name: str, now: float, value: float,
                labels: Dict[str, str]) -> int:
        """Append to the series of ``key``, resolving it on first sight;
        the number of points written (0: the store dropped it)."""
        series = self._table.get(key)
        if series is None:
            series = self.store.record(name, now, value, **labels)
            if series is None:
                return 0
            self._table[key] = series
        else:
            series.append(now, value)
        return 1

    def scrape_once(self) -> int:
        """Sample every source now; returns the number of points written."""
        # CPU time, not wall: perf_counter would charge the scraper for
        # scheduler preemptions that have nothing to do with its work
        host_start = time.process_time()
        now = self.sim.now
        written = 0
        table = self._table
        for labels, registry in self.sources:
            for name, own, instrument in registry.instruments():
                if type(instrument) is not Histogram:
                    series = table.get(instrument)
                    if series is not None:
                        series.append(now, instrument.value)
                        written += 1
                    else:
                        written += self._record(
                            instrument, name, now, instrument.value,
                            {**labels, **dict(own)})
                    continue
                running = 0
                for slot, (bound, count) in enumerate(
                        instrument.bucket_counts()):
                    running += count
                    series = table.get((instrument, slot))
                    if series is None:
                        written += self._record(
                            (instrument, slot), f"{name}.bucket", now,
                            running, {"le": format_bound(bound), **labels,
                                      **dict(own)})
                    elif series._values[-1] != running:
                        # cumulative bucket: an unchanged count carries
                        # no new information and delta() baselines
                        # through sparse points, so skip the append
                        series.append(now, running)
                        written += 1
        self.scrapes += 1
        self.samples += written
        self.last_scrape_at = now
        # self-metering rides in the same store, labeled as its own service
        meter = {"service": "telemetry"}
        self._record("scrape.samples", "scrape.samples", now, written, meter)
        self._record("scrape.series", "scrape.series", now,
                     self.store.series_count(), meter)
        for hook in self._hooks:
            hook(now)
        self.host_seconds += time.process_time() - host_start
        return written


# -- derived views -----------------------------------------------------------


def window_buckets(store: SeriesStore, metric: str, start: float,
                   end: float, /, **labels: str) -> List[Tuple[float, float]]:
    """What histogram ``metric`` observed in ``[start, end]``: ascending
    ``(upper_bound, cumulative growth)`` from its ``.bucket`` series,
    the overflow bucket (``inf``: every observation) last.

    Matching sources (which share their bounds) pool into one
    distribution; empty when no bucket has a sample in reach.
    """
    cumulative: Dict[float, float] = {}
    for series in store.query(f"{metric}.bucket", **labels):
        grown = series.delta(start, end)
        if grown is not None:
            le = series.labels["le"]
            bound = math.inf if le == "+Inf" else float(le)
            cumulative[bound] = cumulative.get(bound, 0.0) + grown
    return sorted(cumulative.items())


def window_quantile(store: SeriesStore, metric: str, q: float,
                    start: float, end: float, /,
                    **labels: str) -> Optional[float]:
    """Percentile ``q`` of what histogram ``metric`` observed in
    ``[start, end]``; ``None`` when the window saw nothing.

    The interpolation :meth:`~repro.sim.metrics.Histogram.quantile`
    does, over the window's counts: with no observed range to clamp to,
    the first bucket opens at zero and the overflow bucket answers its
    lower bound.
    """
    buckets = window_buckets(store, metric, start, end, **labels)
    if len(buckets) < 2 or buckets[-1][1] <= 0:
        return None
    below = [0.0] + [grown for _bound, grown in buckets]
    return bucket_quantile(
        q, [(bound, grown - under)
            for (bound, grown), under in zip(buckets, below)],
        min(0.0, buckets[0][0]), buckets[-2][0])


def red_view(store: SeriesStore, now: float, window: float = 60.0, *,
             requests: str = "requests", errors: str = "errors",
             duration: str = "request.duration",
             **labels: str) -> Dict[str, Optional[float]]:
    """RED (rate / errors / duration) over the window ending at ``now``.

    ``requests`` and ``errors`` name counter series; ``duration`` names
    a histogram, whose scraped buckets supply the window's p95.  Missing
    series yield ``None`` fields rather than raising — a dashboard
    renders dashes, it does not crash.
    """
    start = now - window

    def counter_rate(name: str) -> Optional[float]:
        rates = [s.rate(start, now) for s in store.query(name, **labels)]
        rates = [r for r in rates if r is not None]
        if not rates:
            return None
        return sum(rates)

    request_rate = counter_rate(requests)
    error_rate = counter_rate(errors)
    ratio: Optional[float] = None
    if request_rate is not None and error_rate is not None:
        ratio = error_rate / request_rate if request_rate > 0 else 0.0
    return {
        "rate": request_rate,
        "error_rate": error_rate,
        "error_ratio": ratio,
        "duration_p95": window_quantile(store, duration, 95.0, start, now,
                                        **labels),
    }


class TelemetryPlane:
    """Store + scraper + SLO evaluation for one deployment.

    Constructed by :meth:`repro.core.evop.Evop.enable_telemetry`, which
    registers every subsystem registry; standalone use (tests, benches)
    just adds sources and SLOs directly.  ``notifier`` (if given)
    receives one payload dict per alert transition — the deployment
    wires it to the push gateway so on-call notification rides the same
    push-vs-poll channel fabric the paper argues for.
    """

    def __init__(self, sim: Simulator, interval: float = 5.0,
                 store: Optional[SeriesStore] = None,
                 notifier: Optional[Callable[[Dict[str, Any]], None]] = None,
                 evaluation_interval: Optional[float] = None):
        from repro.obs.slo import AlertManager  # local: avoid import cycle
        self.sim = sim
        self.store = store if store is not None else SeriesStore()
        self.scraper = MetricsScraper(sim, self.store, interval=interval)
        self.alerts = AlertManager(sim, self.store, notifier=notifier)
        # rules re-check on their own cadence (the Prometheus
        # scrape_interval / evaluation_interval split): sampling stays
        # fine-grained while burn-rate math — the expensive half — runs
        # at a pace that still detects faults well inside any human
        # response time.  30s samples the shortest burn window (60s)
        # twice per span, so nothing an alert could catch slips past.
        self.evaluation_interval = (
            evaluation_interval if evaluation_interval is not None
            else max(interval, 30.0))
        self._last_evaluated: Optional[float] = None
        self.scraper.on_scrape(self._maybe_evaluate)

    def _maybe_evaluate(self, now: float) -> None:
        due = (self._last_evaluated is None
               or now - self._last_evaluated >= self.evaluation_interval
               - 1e-9)
        if due:
            self._last_evaluated = now
            self.alerts.evaluate(now)

    # -- wiring -------------------------------------------------------------

    def watch_registry(self, registry: MetricsRegistry, /,
                       **labels: str) -> None:
        """Scrape ``registry`` under ``labels`` every tick."""
        self.scraper.add_registry(registry, **labels)

    def add_slo(self, slo: Any, windows: Optional[Iterable] = None) -> None:
        """Track ``slo`` with a multi-window burn-rate alert rule."""
        self.alerts.add(slo, windows=windows)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TelemetryPlane":
        """Start the scrape loop; returns self for chaining."""
        self.scraper.start()
        return self

    def stop(self) -> None:
        """Stop scraping (SLO evaluation stops with it)."""
        self.scraper.stop()

    # -- queries ------------------------------------------------------------

    def slo_status(self) -> List[Dict[str, Any]]:
        """Per-SLO state (sli, target, burn rates, alert state)."""
        return self.alerts.status(self.sim.now)

    def firing_alerts(self) -> List[Dict[str, Any]]:
        """Currently firing alerts."""
        return self.alerts.firing()

    def health_score(self) -> float:
        """0–100 composite: 100 healthy, each firing alert / miss deducts."""
        return self.alerts.health_score(self.sim.now)

    def exemplars(self, metric: str,
                  min_value: float = 0.0) -> List[Dict[str, Any]]:
        """Trace exemplars retained by histograms matching ``metric``.

        Searches every watched registry for histograms whose relative
        qualified name equals (or dot-suffixes) ``metric``; returns the
        per-bucket exemplars with ``value >= min_value``, worst first —
        each carries the ``trace_id`` of a real observation, which is
        what lets a bad p99 link straight to a span tree.
        """
        out: List[Dict[str, Any]] = []
        for labels, registry in self.scraper.sources:
            for name, own, hist in registry.instruments():
                if type(hist) is not Histogram or (
                        name != metric and not name.endswith(f".{metric}")):
                    continue
                for bound, exemplar in hist.exemplars():
                    if exemplar.get("value", 0.0) < min_value:
                        continue
                    entry = dict(exemplar)
                    entry["metric"] = name
                    entry["le"] = format_bound(bound)
                    entry["labels"] = {**labels, **dict(own)}
                    out.append(entry)
        out.sort(key=lambda e: e.get("value", 0.0), reverse=True)
        return out

    def snapshot(self) -> Dict[str, Any]:
        """The plane's own vitals (for the admin console)."""
        lag = self.scraper.lag()
        return {
            "series": self.store.series_count(),
            "dropped_series": self.store.dropped_series,
            "scrapes": self.scraper.scrapes,
            "samples": self.scraper.samples,
            "interval": self.scraper.interval,
            "lag": lag if math.isfinite(lag) else None,
            "host_seconds": round(self.scraper.host_seconds, 6),
            "health_score": self.health_score(),
            "alerts_firing": [a["alert"] for a in self.firing_alerts()],
        }
