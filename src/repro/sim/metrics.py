"""The metrics model: labeled instruments in namespaced registries.

Four instruments carry every raw signal the system emits:

* :class:`Counter` — monotonically increasing totals (requests served,
  bytes on the wire, cloudburst events).
* :class:`Gauge` — instantaneous values with time-weighted averaging
  (instances running, CPU utilisation); a :class:`CallbackGauge` reads
  its value from a function when sampled (queue depth, consumer lag).
* :class:`Histogram` — fixed-bucket distribution for high-volume series
  where keeping raw samples would be wasteful; percentiles are estimated
  by linear interpolation inside the owning bucket.
* :class:`TimeSeriesRecorder` — raw ``(t, value)`` samples with exact
  percentiles: an end-of-run bench instrument, never scraped.

A :class:`MetricsRegistry` namespaces them per subsystem.  Labels are
native: ``registry.counter("requests", tenant="org-a")`` is one child of
the family ``requests``, whose total is the sum of its children, derived
on read.  ``snapshot()`` renders the plain dict, derived statistics
included, that benches print; ``instruments()`` hands the telemetry
scraper (:mod:`repro.obs.telemetry`) the raw signals it windows over
time.  :meth:`MetricsRegistry.sub` children appear in both, nested.
"""

from __future__ import annotations

import bisect
import math
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.sim.kernel import Simulator

#: One child's labels inside its family: sorted ``(key, value)`` pairs,
#: ``()`` for the single instrument of an unlabeled family.
LabelSet = Tuple[Tuple[str, str], ...]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Exact percentile ``q`` in [0, 100] of an ascending sequence, by
    linear interpolation between ranks (0.0 when empty)."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def bucket_quantile(q: float, buckets: Iterable[Tuple[float, float]],
                    low: float, high: float) -> float:
    """Estimate percentile ``q`` from ascending ``(upper_bound, count)``
    pairs holding at least one observation: linear interpolation inside
    the owning bucket, its edges clamped to the observed range ``[low,
    high]`` (``high`` also closes the overflow bucket, bound ``inf``).
    """
    buckets = list(buckets)
    target = (q / 100.0) * sum(count for _bound, count in buckets)
    cumulative = 0
    previous_bound = low
    for bound, count in buckets:
        lower = max(previous_bound, low)
        upper = min(high if math.isinf(bound) else bound, high)
        upper = max(upper, lower)
        if count > 0 and cumulative + count >= target:
            frac = (target - cumulative) / count
            return lower + (upper - lower) * frac
        cumulative += count
        previous_bound = bound
    return high


def _five_statistics(mean: float, quantile: Callable[[float], float],
                     count: int) -> Dict[str, float]:
    return {".mean": mean, ".p50": quantile(50), ".p95": quantile(95),
            ".p99": quantile(99), ".count": float(count)}


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def increment(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def summary(self) -> Dict[str, float]:
        """What :meth:`MetricsRegistry.snapshot` reports, by key suffix."""
        return {"": self._value}


class Gauge:
    """An instantaneous value with a time-weighted mean.

    The time-weighted mean is what capacity questions need: "how many
    instances were running *on average*" is the integral of the gauge over
    the observation window divided by its length, not the mean of the set
    values.
    """

    __slots__ = ("name", "_sim", "_value", "_last_change", "_area", "_start",
                 "_peak")

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self._sim = sim
        self._value = 0.0
        self._last_change = sim.now
        self._start = sim.now
        self._area = 0.0
        self._peak = 0.0

    @property
    def value(self) -> float:
        """Current gauge value."""
        return self._value

    @property
    def peak(self) -> float:
        """Maximum value ever set."""
        return self._peak

    def set(self, value: float) -> None:
        """Set the gauge, accruing area for the elapsed interval."""
        now = self._sim.now
        self._area += self._value * (now - self._last_change)
        self._last_change = now
        self._value = value
        if value > self._peak:
            self._peak = value

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta``."""
        self.set(self._value + delta)

    def time_weighted_mean(self) -> float:
        """Mean value weighted by how long each value was held."""
        now = self._sim.now
        span = now - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_change)
        return area / span

    def summary(self) -> Dict[str, float]:
        """What :meth:`MetricsRegistry.snapshot` reports, by key suffix."""
        return {"": self._value, ".mean": self.time_weighted_mean(),
                ".peak": self._peak}


class CallbackGauge:
    """A gauge read from a function when it is sampled: state that
    already lives somewhere (a queue's depth, a table's size) is seen
    live, with no copy to keep in step."""

    __slots__ = ("name", "_read")

    def __init__(self, name: str, read: Callable[[], float]):
        self.name = name
        self._read = read

    @property
    def value(self) -> float:
        """The value right now."""
        return float(self._read())

    def summary(self) -> Dict[str, float]:
        """What :meth:`MetricsRegistry.snapshot` reports, by key suffix."""
        return {"": self.value}


class TimeSeriesRecorder:
    """Raw samples with summary statistics.

    Stores every ``(t, value)`` pair; the simulated workloads are small
    enough (tens of thousands of samples) that exact percentiles beat the
    complexity of a sketch.
    """

    __slots__ = ("name", "_sim", "_samples", "_sum", "_ordered_values")

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self._sim = sim
        self._samples: List[Tuple[float, float]] = []
        self._sum = 0.0
        # sorted-value cache, extended lazily with whatever arrived since
        # the last percentile call: the resilient client asks for the
        # p95 of ``attempt_latency`` before every hedgeable GET, which
        # must cost O(new samples), not a sort of the whole history
        self._ordered_values: List[float] = []

    def record(self, value: float) -> None:
        """Record ``value`` at the current simulated time."""
        self._samples.append((self._sim.now, value))
        self._sum += value

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return len(self._samples)

    def mean(self) -> float:
        """Arithmetic mean of the values (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return self._sum / len(self._samples)

    def _ordered(self) -> List[float]:
        done = len(self._ordered_values)
        fresh = len(self._samples) - done
        if fresh > 0:
            if fresh <= 32:
                # a few new values insort in C-speed memmoves; a full
                # re-sort would pay O(n) comparisons on every call
                for _t, v in self._samples[done:]:
                    bisect.insort(self._ordered_values, v)
            else:
                self._ordered_values.extend(
                    v for _t, v in self._samples[done:])
                self._ordered_values.sort()
        return self._ordered_values

    def percentile(self, q: float) -> float:
        """Exact percentile ``q`` in [0, 100] by linear interpolation."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        return percentile(self._ordered(), q)

    def maximum(self) -> float:
        """Largest recorded value (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return self._ordered()[-1]

    def summary(self) -> Dict[str, float]:
        """What :meth:`MetricsRegistry.snapshot` reports, by key suffix."""
        return _five_statistics(self.mean(), self.percentile,
                                len(self._samples))

    def window(self, start: float, end: float) -> List[float]:
        """Values recorded in the half-open time window ``[start, end)``."""
        return [v for t, v in self._samples if start <= t < end]


#: Default latency-shaped bucket bounds (seconds), roughly logarithmic.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                   5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


class Histogram:
    """A fixed-bucket histogram: O(buckets) memory at any sample volume.

    ``buckets`` are the finite upper bounds, ascending; an implicit
    overflow bucket catches everything above the last bound.  Quantile
    estimates interpolate linearly within the owning bucket, using the
    observed maximum to close the overflow bucket — exact enough for the
    p50/p95/p99 tables benches print, and immune to the unbounded-memory
    failure mode of recording raw samples on hot paths.

    Each bucket can additionally retain one *exemplar*: an arbitrary
    dict (by convention carrying ``trace_id``) describing the most
    recent observation that landed there.  Exemplars are what link a bad
    p99 back to a concrete trace — O(buckets) extra memory, replaced in
    place, never a sample log.
    """

    __slots__ = ("name", "_bounds", "_counts", "_overflow", "_count",
                 "_sum", "_min", "_max", "_exemplars")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        bounds = list(buckets)
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} buckets must be "
                             f"strictly ascending")
        self.name = name
        self._bounds = bounds
        self._counts = [0] * len(bounds)
        self._overflow = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # one slot per bucket plus one for overflow, filled lazily
        self._exemplars: List[Optional[Dict[str, object]]] = \
            [None] * (len(bounds) + 1)

    def observe(self, value: float,
                exemplar: Optional[Dict[str, object]] = None) -> None:
        """Record one observation, optionally tagging its bucket.

        ``exemplar`` (typically ``{"trace_id": ...}``) replaces the
        owning bucket's retained exemplar; the observed value is stored
        alongside it under ``"value"``.
        """
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        lo = bisect.bisect_left(self._bounds, value)
        if lo < len(self._bounds):
            self._counts[lo] += 1
        else:
            self._overflow += 1
        if exemplar is not None:
            slot = dict(exemplar)
            slot["value"] = value
            self._exemplars[min(lo, len(self._bounds))] = slot

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) pairs; the overflow bound is ``inf``."""
        pairs = list(zip(self._bounds, self._counts))
        pairs.append((math.inf, self._overflow))
        return pairs

    def exemplars(self) -> List[Tuple[float, Dict[str, object]]]:
        """(upper_bound, exemplar) pairs for buckets holding one.

        The overflow bucket's bound is ``inf``; buckets that never saw a
        tagged observation are omitted.
        """
        bounds = self._bounds + [math.inf]
        return [(bounds[i], dict(ex))
                for i, ex in enumerate(self._exemplars) if ex is not None]

    def quantile(self, q: float) -> float:
        """Estimate percentile ``q`` in [0, 100] from the buckets."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        if self._count == 0:
            return 0.0
        return bucket_quantile(q, self.bucket_counts(), self._min, self._max)

    def summary(self) -> Dict[str, float]:
        """What :meth:`MetricsRegistry.snapshot` reports, by key suffix."""
        return _five_statistics(self.mean(), self.quantile, self._count)

    @classmethod
    def merged(cls, parts: Iterable["Histogram"]) -> "Histogram":
        """One histogram holding every observation of ``parts`` (which
        share their bounds) — a labeled family's total.  Exemplars stay
        with the part that saw them."""
        parts = list(parts)
        total = cls(parts[0].name, parts[0]._bounds)
        for part in parts:
            total._counts = [a + b for a, b in zip(total._counts,
                                                   part._counts)]
            total._overflow += part._overflow
            total._count += part._count
            total._sum += part._sum
            total._min = min(total._min, part._min)
            total._max = max(total._max, part._max)
        return total


def _label_set(labels: Dict[str, str]) -> LabelSet:
    if len(labels) > 1:
        return tuple(sorted(labels.items()))
    return tuple(labels.items())


class MetricsRegistry:
    """Namespace of instrument families for one subsystem.

    An accessor called with labels (string values) gets or creates that
    child of the family ``name``; without, its one unlabeled instrument.
    A family is labeled or it is not: mixing raises.
    """

    def __init__(self, sim: Simulator, namespace: str = ""):
        self._sim = sim
        self.namespace = namespace
        # kind -> family name -> child labels -> instrument
        self._counters: Dict[str, Dict[LabelSet, Counter]] = {}
        self._gauges: Dict[str, Dict[LabelSet, Any]] = {}
        self._recorders: Dict[str, Dict[LabelSet, TimeSeriesRecorder]] = {}
        self._histograms: Dict[str, Dict[LabelSet, Histogram]] = {}
        self._children: Dict[str, "MetricsRegistry"] = {}

    def _child(self, table: Dict[str, Dict[LabelSet, Any]], name: str,
               labels: Dict[str, str], make: Callable[..., Any],
               *args: Any) -> Any:
        key = _label_set(labels)
        try:
            return table[name][key]
        except KeyError:
            family = table.setdefault(name, {})
        if family and (() in family) != (not key):
            raise ValueError(
                f"metric family {self._qualify(name)!r} is "
                f"{'un' if () in family else ''}labeled; asked for "
                f"{dict(key) or 'no labels'}")
        child = family[key] = make(self._qualify(name), *args)
        return child

    def counter(self, name: str, /, **labels: str) -> Counter:
        """Get or create the counter ``name`` (the child at ``labels``)."""
        # on every request path, several times (as is ``recorder``):
        # one that exists is two subscripts away, only a miss pays a call
        try:
            return self._counters[name][_label_set(labels) if labels else ()]
        except KeyError:
            return self._child(self._counters, name, labels, Counter)

    def gauge(self, name: str, /, **labels: str) -> Gauge:
        """Get or create the gauge ``name`` (the child at ``labels``)."""
        return self._child(self._gauges, name, labels, Gauge, self._sim)

    def callback_gauge(self, name: str, read: Callable[[], float], /,
                       **labels: str) -> CallbackGauge:
        """Get or create the gauge ``name`` that samples ``read()``."""
        return self._child(self._gauges, name, labels, CallbackGauge, read)

    def recorder(self, name: str) -> TimeSeriesRecorder:
        """Get or create the time-series recorder ``name``."""
        try:
            return self._recorders[name][()]
        except KeyError:
            return self._child(self._recorders, name, {},
                               TimeSeriesRecorder, self._sim)

    def histogram(self, name: str, /, **labels: str) -> Histogram:
        """Get or create the fixed-bucket histogram ``name`` (the child
        at ``labels``) over :data:`DEFAULT_BUCKETS`."""
        return self._child(self._histograms, name, labels, Histogram)

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of every metric's headline numbers.

        Counters report their total, gauges their current value plus
        ``<name>.mean`` and ``<name>.peak``, recorders and histograms
        their mean plus ``<name>.p50``/``.p95``/``.p99`` and
        ``<name>.count``.  A labeled family reports the sum of its
        children under ``<name>`` and each child under
        ``<name>{key=value,...}``.  Child registries created via
        :meth:`sub` are merged in under their relative namespace.
        """
        out: Dict[str, float] = {}
        for table in (self._counters, self._gauges, self._recorders,
                      self._histograms):
            for name, family in table.items():
                if () not in family:
                    children = family.values()
                    total = (Histogram.merged(children).summary()
                             if table is self._histograms else
                             {"": sum(child.value for child in children)})
                    for suffix, value in total.items():
                        out[name + suffix] = value
                for labels, child in family.items():
                    spelled = name
                    if labels:
                        pairs = ",".join(f"{k}={v}" for k, v in labels)
                        spelled = f"{name}{{{pairs}}}"
                    for suffix, value in child.summary().items():
                        out[spelled + suffix] = value
        for relative, child in self._children.items():
            for key, value in child.snapshot().items():
                out[f"{relative}.{key}"] = value
        return out

    def instruments(self, prefix: str = ""
                    ) -> Iterator[Tuple[str, LabelSet, Any]]:
        """Every raw signal here and in child registries — what a
        scraper samples: ``(name, labels, instrument)`` per counter,
        gauge and histogram child (recorders are end-of-run instruments
        and not among them), names relative to *this* registry like
        :meth:`snapshot`'s keys."""
        for table in (self._counters, self._gauges, self._histograms):
            for name, family in table.items():
                for labels, child in family.items():
                    yield prefix + name, labels, child
        for relative, child in self._children.items():
            yield from child.instruments(f"{prefix}{relative}.")

    def _qualify(self, name: str) -> str:
        return f"{self.namespace}.{name}" if self.namespace else name

    def sub(self, namespace: str) -> "MetricsRegistry":
        """The child registry at ``namespace``, created on first use.

        Children share the simulator, nest their metric names under the
        parent namespace, and are merged into the parent's
        :meth:`snapshot` — asking for the same namespace twice returns
        the same child, so a subsystem handing registries to its parts
        never silently orphans their metrics.
        """
        if namespace not in self._children:
            self._children[namespace] = MetricsRegistry(
                self._sim, self._qualify(namespace))
        return self._children[namespace]
