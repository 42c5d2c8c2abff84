"""The telemetry plane: histogram bucketing, ring eviction, snapshots."""

import json

import pytest

from repro.online.telemetry import (
    LatencyHistogram,
    RingSeries,
    Telemetry,
)


class TestLatencyHistogram:
    def test_bucket_upper_bounds(self):
        """A percentile is the upper bound of its bucket: factor-2
        geometric from 1us, so a 1.5us sample reports as <= 2us."""
        hist = LatencyHistogram()
        hist.record(1.5e-6)
        hist.record(1e-4)
        assert hist.percentile(0.5) == pytest.approx(2e-6)

    def test_sub_base_samples_land_in_bucket_zero(self):
        hist = LatencyHistogram()
        hist.record(2e-7)
        hist.record(0.0)
        hist.record(1e-4)
        assert hist.n == 3
        assert hist.percentile(0.5) == pytest.approx(1e-6)

    def test_negative_clamps_to_zero(self):
        hist = LatencyHistogram()
        hist.record(-1.0)
        assert hist.n == 1
        assert hist.percentile(0.5) == 0.0
        assert hist.summary().max_s == 0.0

    def test_percentiles_are_monotone(self):
        hist = LatencyHistogram()
        for i in range(1, 200):
            hist.record(i * 1e-5)
        p50, p95, p99 = (
            hist.percentile(0.50),
            hist.percentile(0.95),
            hist.percentile(0.99),
        )
        assert p50 <= p95 <= p99

    def test_percentile_bound_is_conservative(self):
        """The reported percentile never understates the true one (and
        overstates by at most 2x) — the bucket upper-bound contract."""
        samples = [i * 3.3e-6 for i in range(1, 101)]
        hist = LatencyHistogram()
        for s in samples:
            hist.record(s)
        true_p95 = sorted(samples)[94]
        reported = hist.percentile(0.95)
        assert true_p95 <= reported <= true_p95 * 2.0

    def test_summary_has_exact_max_and_n(self):
        hist = LatencyHistogram()
        for s in (1e-5, 7e-4, 3e-6):
            hist.record(s)
        summary = hist.summary()
        assert summary.n == 3
        assert summary.max_s == pytest.approx(7e-4)

    @pytest.mark.parametrize(
        "samples",
        [
            [1.41e-4],
            [1e-6, 2e-6, 3e-6, 1.41e-4],
            [i * 3.3e-6 for i in range(1, 101)],
            [0.0, 5e-7, 9e-7],
        ],
        ids=["single", "few", "spread", "sub-base"],
    )
    def test_percentiles_never_exceed_the_max(self, samples):
        """Bucket upper bounds are clamped to the observed maximum:
        one 141us sample must not report p50 = 256us."""
        hist = LatencyHistogram()
        for s in samples:
            hist.record(s)
        summary = hist.summary()
        assert summary.p50_s <= summary.p95_s <= summary.p99_s <= summary.max_s
        assert summary.max_s == max(samples)

    def test_empty_summary_is_zeros(self):
        summary = LatencyHistogram().summary()
        assert summary.n == 0
        assert summary.p50_s == summary.p95_s == summary.p99_s == 0.0
        assert summary.max_s == 0.0

    def test_huge_sample_is_caught_by_last_bucket(self):
        hist = LatencyHistogram()
        hist.record(1e9)  # ~31 years: beyond the bucket range
        assert hist.percentile(0.5) > 0.0

    def test_as_dict_reports_microseconds(self):
        hist = LatencyHistogram()
        hist.record(1.5e-6)
        d = hist.summary().as_dict()
        assert d["n"] == 1
        assert d["p50_us"] == pytest.approx(1.5)  # clamped to the max
        assert d["max_us"] == pytest.approx(1.5)


class TestRingSeries:
    def test_append_and_iterate_in_order(self):
        series = RingSeries(capacity=8)
        for i in range(5):
            series.append(i, float(i * 10))
        assert list(series) == [(i, float(i * 10)) for i in range(5)]
        assert len(series) == 5

    def test_eviction_keeps_the_newest(self):
        series = RingSeries(capacity=3)
        for i in range(10):
            series.append(i, float(i))
        assert len(series) == 3
        assert series.values() == [7.0, 8.0, 9.0]
        assert series.last() == (9, 9.0)

    def test_max_over_retained_window_only(self):
        series = RingSeries(capacity=2)
        series.append(0, 100.0)  # evicted below
        series.append(1, 1.0)
        series.append(2, 2.0)
        assert series.max() == 2.0

    def test_empty(self):
        series = RingSeries(capacity=4)
        assert len(series) == 0
        assert series.last() is None
        assert series.max() == 0.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingSeries(capacity=0)


class TestTelemetry:
    def test_counters(self):
        t = Telemetry()
        assert t.counter("x") == 0
        t.incr("x")
        t.incr("x", 4)
        assert t.counter("x") == 5

    def test_series_created_on_first_use(self):
        t = Telemetry(series_capacity=4)
        t.sample("depth", 1, 10.0)
        t.sample("depth", 2, 20.0)
        assert t.series("depth").values() == [10.0, 20.0]
        assert t.series("never_sampled").values() == []

    def test_endpoint_summaries(self):
        t = Telemetry()
        t.observe_latency("predict", 1e-4)
        t.observe_latency("predict", 2e-4)
        t.observe_latency("stats", 1e-3)
        summaries = t.endpoint_summaries()
        assert set(summaries) == {"predict", "stats"}
        assert summaries["predict"].n == 2

    def test_snapshot_is_json_safe_and_complete(self):
        t = Telemetry()
        t.incr("a", 2)
        t.sample("s", 7, 1.5)
        t.observe_latency("predict", 5e-5)
        snap = t.snapshot()
        json.dumps(snap)  # must serialise without a custom encoder
        assert snap["counters"] == {"a": 2}
        assert snap["series"] == {"s": [[7, 1.5]]}
        assert snap["endpoints"]["predict"]["n"] == 1
