"""Tests for the metrics registry: counters, gauges, histograms, export."""

import json
import math

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_time_buckets,
)


class TestCounterAndGauge:
    def test_counter_only_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        # Totals only add up: there is no way to overwrite one.
        assert not hasattr(counter, "set")

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == 13.0


class TestHistogram:
    def test_default_buckets_are_ascending_and_span_the_ladder(self):
        bounds = default_time_buckets()
        assert list(bounds) == sorted(bounds)
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] < 200.0 <= bounds[-1] * 10 ** 0.25 * 1.01

    def test_tracks_count_sum_min_max(self):
        histogram = Histogram("h")
        for value in (0.001, 0.010, 0.100):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.111)
        assert histogram.minimum == pytest.approx(0.001)
        assert histogram.maximum == pytest.approx(0.100)
        assert histogram.mean == pytest.approx(0.111 / 3)

    def test_quantiles_clamped_to_observed_range(self):
        histogram = Histogram("h")
        for _ in range(100):
            histogram.observe(0.05)
        assert histogram.quantile(0.0) == pytest.approx(0.05)
        assert histogram.quantile(0.5) == pytest.approx(0.05, rel=0.8)
        assert histogram.quantile(1.0) == pytest.approx(0.05)
        # Every estimate stays inside [min, max].
        for q in (0.1, 0.25, 0.5, 0.9, 0.99):
            assert histogram.minimum <= histogram.quantile(q) <= histogram.maximum

    def test_quantile_orders_correctly_across_decades(self):
        histogram = Histogram("h")
        for _ in range(90):
            histogram.observe(0.001)
        for _ in range(10):
            histogram.observe(1.0)
        assert histogram.quantile(0.5) < 0.01
        assert histogram.quantile(0.99) > 0.1

    def test_empty_histogram_snapshot_is_zeros(self):
        snapshot = Histogram("h").snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min"] == 0.0
        assert snapshot["max"] == 0.0
        assert snapshot["p99"] == 0.0

    def test_overflow_bucket_catches_huge_values(self):
        histogram = Histogram("h", buckets=[1.0, 2.0])
        histogram.observe(1000.0)
        pairs = histogram.bucket_counts()
        assert pairs[-1] == (math.inf, 1)
        assert pairs[0] == (1.0, 0)

    def test_bucket_counts_are_cumulative(self):
        histogram = Histogram("h", buckets=[1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 3.0, 3.5):
            histogram.observe(value)
        assert histogram.bucket_counts() == [
            (1.0, 1),
            (2.0, 2),
            (4.0, 4),
            (math.inf, 4),
        ]

    def test_rejects_bad_buckets_and_quantiles(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[])
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_quantile_of_empty_histogram_is_zero(self):
        histogram = Histogram("h")
        for q in (0.0, 0.5, 0.9, 1.0):
            assert histogram.quantile(q) == 0.0

    def test_quantile_of_single_sample_is_that_sample(self):
        histogram = Histogram("h")
        histogram.observe(0.037)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.037)

    def test_quantile_with_all_equal_samples_collapses_to_the_value(self):
        histogram = Histogram("h")
        for _ in range(1000):
            histogram.observe(2.5)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert histogram.quantile(q) == pytest.approx(2.5)

    def test_quantile_beyond_last_bucket_stays_clamped_to_max(self):
        # Every observation lands in the implicit overflow bucket.
        histogram = Histogram("h", buckets=[1.0, 2.0])
        for value in (50.0, 100.0, 150.0):
            histogram.observe(value)
        assert histogram.quantile(1.0) == pytest.approx(150.0)
        assert histogram.quantile(0.5) <= 150.0
        assert histogram.quantile(0.0) == pytest.approx(50.0)
        for q in (0.1, 0.5, 0.9):
            assert 50.0 <= histogram.quantile(q) <= 150.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3

    def test_convenience_helpers(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        registry.observe("latency", 0.25)
        registry.set_gauge("depth", 3)
        snapshot = registry.snapshot()
        assert snapshot["hits"] == 5
        assert snapshot["depth"] == 3.0
        assert snapshot["latency"]["count"] == 1

    def test_snapshot_uses_int_for_integral_counters(self):
        registry = MetricsRegistry()
        registry.inc("calls", 3)
        registry.inc("seconds", 0.5)
        snapshot = registry.snapshot()
        assert snapshot["calls"] == 3 and isinstance(snapshot["calls"], int)
        assert snapshot["seconds"] == 0.5 and isinstance(snapshot["seconds"], float)

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.observe("b", 1.0)
        registry.set_gauge("c", -2.0)
        json.dumps(registry.snapshot())

    @pytest.mark.parametrize("prefix", ["w.", ""])
    def test_merge_counters_skips_non_numeric_and_bools(self, prefix):
        numpy = pytest.importorskip("numpy")
        registry = MetricsRegistry()
        registry.merge_counters(
            {
                "queries": 4,
                "seconds": 0.5,
                "ratio": numpy.float64(0.25),
                "label": "worker-1",
                "nested": {"inner": 1},
                "flag": True,
            },
            prefix=prefix,
        )
        snapshot = registry.snapshot()
        assert snapshot[f"{prefix}queries"] == 4
        assert snapshot[f"{prefix}seconds"] == 0.5
        # A float subclass lands as a plain float, not as the subclass.
        assert snapshot[f"{prefix}ratio"] == 0.25
        assert type(snapshot[f"{prefix}ratio"]) is float
        assert f"{prefix}label" not in snapshot
        assert f"{prefix}nested" not in snapshot
        assert f"{prefix}flag" not in snapshot
        assert len(snapshot) == 3

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.reset()
        assert len(registry) == 0
        assert registry.snapshot() == {}

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.inc("service.queries", 3)
        registry.set_gauge("pool-depth", 2)
        registry.observe("lat", 0.5)
        text = registry.to_prometheus()
        assert "# TYPE service_queries counter" in text
        assert "service_queries 3" in text
        assert "# TYPE pool_depth gauge" in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_histogram_buckets_are_cumulative_with_inf(self):
        # Scrape-compatibility contract: every bucket line is cumulative,
        # ends with +Inf == _count, and bounds render in ascending order.
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=[1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 3.0, 3.5, 10.0):
            histogram.observe(value)
        text = registry.to_prometheus()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="4"} 4' in text
        assert 'lat_bucket{le="+Inf"} 5' in text
        assert "lat_count 5" in text
        bucket_lines = [
            line for line in text.splitlines() if line.startswith("lat_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert bucket_lines[-1].startswith('lat_bucket{le="+Inf"}')
