"""Process-local metrics: named counters, gauges and bounded histograms.

One :class:`MetricsRegistry` holds every metric a process reports.  The
three metric kinds mirror the Prometheus data model:

* :class:`Counter` — an additive total.
* :class:`Gauge` — a point-in-time value that moves both ways.
* :class:`Histogram` — a bounded-memory distribution: observations land
  in a fixed exponential bucket ladder, so memory is O(buckets) no matter
  how many samples arrive, and quantiles are interpolated from the bucket
  counts (exact min/max/sum/count are tracked on the side).

Everything is thread-safe under one registry lock.  Individual increments
on an already-created metric are lock-free attribute updates, close enough
for statistics although two racing threads can lose one; where counts must
be exact, :meth:`MetricsRegistry.merge_counters` applies a group of
increments under the lock that :meth:`MetricsRegistry.snapshot` holds.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_time_buckets",
]

MetricValue = Union[float, Dict[str, float]]


def default_time_buckets() -> Tuple[float, ...]:
    """The default histogram ladder: 1µs .. ~100s, 4 buckets per decade."""
    buckets: List[float] = []
    value = 1e-6
    while value < 200.0:
        buckets.append(value)
        value *= math.sqrt(math.sqrt(10.0))  # 4 buckets per decade
    return tuple(buckets)


class Counter:
    """An additive named total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be fractional; e.g. seconds)."""
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up (or down with a negative ``amount``)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down."""
        self.value -= amount


class Histogram:
    """A bounded-memory distribution with interpolated quantiles.

    Parameters
    ----------
    name:
        Metric name.
    buckets:
        Ascending upper bounds of the bucket ladder.  Observations above
        the last bound land in an implicit overflow bucket.  Defaults to
        :func:`default_time_buckets` (tuned for seconds-valued timings).
    """

    __slots__ = ("name", "_bounds", "_counts", "count", "sum", "minimum", "maximum")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        bounds = tuple(buckets) if buckets is not None else default_time_buckets()
        if list(bounds) != sorted(bounds) or len(bounds) < 1:
            raise ValueError("histogram buckets must be a non-empty ascending sequence")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._counts[bisect_right(self._bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the bucket holding the target rank;
        the estimate is clamped to the exact observed ``[min, max]``, so
        ``quantile(0)``/``quantile(1)`` are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lower = self._bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self._bounds[index]
                    if index < len(self._bounds)
                    else max(self.maximum, lower)
                )
                fraction = (rank - seen) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.minimum), self.maximum)
            seen += bucket_count
        return self.maximum

    def snapshot(self) -> Dict[str, float]:
        """Summary dict: count / sum / mean / min / max / p50 / p90 / p99."""
        empty = self.count == 0
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": 0.0 if empty else self.minimum,
            "max": 0.0 if empty else self.maximum,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style."""
        cumulative = 0
        pairs: List[Tuple[float, int]] = []
        for bound, bucket_count in zip(self._bounds, self._counts):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        pairs.append((math.inf, self.count))
        return pairs


class MetricsRegistry:
    """A named collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Metric access (get-or-create)
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram named ``name``, created on first use."""
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(name, Histogram(name, buckets))
        return metric

    # Convenience one-liners for instrumentation sites.
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""
        self.gauge(name).set(value)

    def merge_counters(self, counters: Mapping[str, float], prefix: str = "") -> None:
        """Fold a plain ``{name: value}`` mapping additively into counters.

        The whole mapping lands under the registry lock: no concurrent
        update is lost, and a :meth:`snapshot` sees all of it or none of
        it.  Non-numeric values (nested dicts, strings) and bools are
        skipped, so the merged worker stat dicts — which mix counters with
        structured payloads — feed in directly.  Other numeric types land
        as plain floats.
        """
        with self._lock:
            metrics = self._counters
            for name, value in counters.items():
                kind = type(value)
                if kind is not int and kind is not float:  # exact types skip the checks
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        continue
                    value = float(value)
                if prefix:
                    name = prefix + name
                metric = metrics.get(name)
                if metric is None:
                    metric = metrics[name] = Counter(name)
                metric.value += value

    # ------------------------------------------------------------------ #
    # Introspection and export
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Every registered metric name, sorted."""
        with self._lock:
            return sorted({*self._counters, *self._gauges, *self._histograms})

    def snapshot(self) -> Dict[str, MetricValue]:
        """Plain dict of every metric: scalars for counters/gauges, summary
        dicts for histograms.  Safe to JSON-serialize."""
        with self._lock:
            result: Dict[str, MetricValue] = {}
            for name, counter in self._counters.items():
                value = counter.value
                result[name] = int(value) if float(value).is_integer() else value
            for name, gauge in self._gauges.items():
                result[name] = gauge.value
            for name, histogram in self._histograms.items():
                result[name] = histogram.snapshot()
            return dict(sorted(result.items()))

    def to_prometheus(self) -> str:
        """Prometheus text-exposition rendering of every metric.

        Metric names are sanitized (``.`` and ``-`` become ``_``);
        histograms render the standard ``_bucket``/``_sum``/``_count``
        triplet with cumulative ``le`` labels.
        """
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._counters):
                flat = _sanitize(name)
                lines.append(f"# TYPE {flat} counter")
                lines.append(f"{flat} {_format_value(self._counters[name].value)}")
            for name in sorted(self._gauges):
                flat = _sanitize(name)
                lines.append(f"# TYPE {flat} gauge")
                lines.append(f"{flat} {_format_value(self._gauges[name].value)}")
            for name in sorted(self._histograms):
                histogram = self._histograms[name]
                flat = _sanitize(name)
                lines.append(f"# TYPE {flat} histogram")
                for bound, cumulative in histogram.bucket_counts():
                    label = "+Inf" if math.isinf(bound) else _format_value(bound)
                    lines.append(f'{flat}_bucket{{le="{label}"}} {cumulative}')
                lines.append(f"{flat}_sum {_format_value(histogram.sum)}")
                lines.append(f"{flat}_count {histogram.count}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every metric (used between runs and by tests)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MetricsRegistry(metrics={len(self)})"


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric name."""
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _format_value(value: float) -> str:
    """Render floats compactly, integers without a trailing ``.0``."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
