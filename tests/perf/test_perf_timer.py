"""Unit tests for the wall-clock throughput primitives."""

from __future__ import annotations

import pytest

from repro.perf import (
    ThroughputMeasurement,
    WallClockTimer,
    measure_paired,
    measure_throughput,
)


class TestWallClockTimer:
    def test_measures_elapsed_time(self):
        with WallClockTimer() as timer:
            sum(range(1000))
        assert timer.elapsed >= 0.0

    def test_reusable(self):
        timer = WallClockTimer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            sum(range(100_000))
        assert timer.elapsed >= 0.0
        assert timer.elapsed != first or timer.elapsed >= 0.0


class TestThroughputMeasurement:
    def test_items_per_second(self):
        m = ThroughputMeasurement(
            name="x", n_items=100, repeats=3,
            best_seconds=0.5, mean_seconds=0.6, std_seconds=0.05,
        )
        assert m.items_per_second == pytest.approx(200.0)

    def test_dict_roundtrip(self):
        m = ThroughputMeasurement(
            name="x", n_items=100, repeats=3,
            best_seconds=0.5, mean_seconds=0.6, std_seconds=0.05,
        )
        restored = ThroughputMeasurement.from_dict(m.as_dict())
        assert restored == m

    def test_as_dict_includes_derived_throughput(self):
        m = ThroughputMeasurement(
            name="x", n_items=10, repeats=1,
            best_seconds=2.0, mean_seconds=2.0, std_seconds=0.0,
        )
        assert m.as_dict()["items_per_second"] == pytest.approx(5.0)

    def test_zero_time_is_infinite_throughput(self):
        m = ThroughputMeasurement(
            name="x", n_items=10, repeats=1,
            best_seconds=0.0, mean_seconds=0.0, std_seconds=0.0,
        )
        assert m.items_per_second == float("inf")


class TestMeasureThroughput:
    def test_counts_calls(self):
        calls = []
        measurement = measure_throughput(
            lambda: calls.append(1), n_items=10, name="count", repeats=4, warmup=2
        )
        assert len(calls) == 6  # 2 warmup + 4 timed
        assert measurement.repeats == 4
        assert measurement.n_items == 10
        assert measurement.best_seconds <= measurement.mean_seconds + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_throughput(lambda: None, n_items=0, name="x")
        with pytest.raises(ValueError):
            measure_throughput(lambda: None, n_items=1, name="x", repeats=0)
        with pytest.raises(ValueError):
            measure_throughput(lambda: None, n_items=1, name="x", warmup=-1)


class TestMeasurePaired:
    def test_interleaves_and_names_results(self):
        order = []
        results = measure_paired(
            {
                "a": (lambda: order.append("a"), 5),
                "b": (lambda: order.append("b"), 7),
            },
            repeats=3,
            warmup=1,
        )
        # warmup round (a, b) then three interleaved rounds
        assert order == ["a", "b", "a", "b", "a", "b", "a", "b"]
        assert set(results) == {"a", "b"}
        assert results["a"].name == "a" and results["a"].n_items == 5
        assert results["b"].n_items == 7

    def test_keeps_every_round_for_paired_ratios(self):
        results = measure_paired(
            {"a": (lambda: None, 1), "b": (lambda: None, 1)}, repeats=4
        )
        for measurement in results.values():
            assert len(measurement.seconds) == 4
            assert min(measurement.seconds) == measurement.best_seconds
            assert "seconds" not in measurement.as_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_paired({"a": (lambda: None, 0)}, repeats=1)
        with pytest.raises(ValueError):
            measure_paired({"a": (lambda: None, 1)}, repeats=0)
