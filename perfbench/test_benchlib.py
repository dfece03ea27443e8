"""Tests of the benchmark's own measurement helpers (no model is built)."""

import numpy as np
import pytest

import benchlib as bl


def test_tail_percentile_keeps_ten_samples_beyond():
    values = np.arange(1, 101, dtype=float)          # 100 samples
    percentile, value, count = bl.tail_percentile(values, 99)
    assert count == 100
    assert percentile == pytest.approx(90.0)         # 100 * (1 - 10/100)
    assert (values > value).sum() == 10


def test_tail_percentile_reaches_target_with_enough_samples():
    values = np.random.default_rng(0).exponential(size=5000)
    percentile, value, count = bl.tail_percentile(values, 99)
    assert (percentile, count) == (99.0, 5000)
    assert value == pytest.approx(np.percentile(values, 99))
    assert (values > value).sum() >= bl.TAIL_SAMPLES


def test_tail_percentile_small_sample_falls_back_to_median():
    percentile, value, count = bl.tail_percentile([3.0, 1.0, 2.0], 99)
    assert (percentile, value, count) == (50.0, 2.0, 3)
    with pytest.raises(ValueError):
        bl.tail_percentile([], 99)


def test_windowed_tail_ignores_one_bursty_window():
    rng = np.random.default_rng(1)
    values = rng.exponential(size=4000)
    values[1000:1100] += 50.0                         # a stall inside window 2
    percentile, value, description = bl.windowed_tail(values, 99, window=1000)
    calm = [bl.tail_percentile(chunk, 99)[1] for chunk in values.reshape(4, 1000)]
    assert percentile == 99.0 and "4 windows" in description
    assert value == pytest.approx(np.median(calm))
    assert value < 10.0 < bl.tail_percentile(values, 99)[1]
    # too few samples for two windows: the pooled tail
    assert bl.windowed_tail(values[:1500], 99)[1] == bl.tail_percentile(values[:1500], 99)[1]


def test_self_time_subtracts_union_of_children():
    # children overlap each other and stick out of the parent
    assert bl.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) == pytest.approx(5.0)
    assert bl.self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert bl.self_time(0.0, 10.0, [(-1.0, 11.0)]) == pytest.approx(0.0)


def test_spans_self_times_count_parents_and_linked_flushes():
    spans = bl.Spans()
    first, second = spans.new_request(), spans.new_request()
    root = spans.add("request", 0.0, 10.0, request=first)
    spans.add("shard.submit", 0.0, 1.0, parent=root, request=first)
    spans.add("batcher.queue_wait", 1.0, 4.0, parent=root, request=first)
    other = spans.add("request", 2.0, 9.0, request=second)
    spans.add("shard.submit", 2.0, 3.0, parent=other, request=second)
    # one flush carries both requests
    spans.add("worker.roundtrip", 4.0, 8.0, links=[first, second])
    totals = spans.self_times()
    assert totals["request"] == pytest.approx((10 - 1 - 3 - 4) + (7 - 1 - 4))
    assert totals["shard.submit"] == pytest.approx(2.0)
    assert totals["worker.roundtrip"] == pytest.approx(4.0)
    assert len(spans.as_rows()) == 6


def test_poisson_schedule_reproducible_from_seed():
    one = bl.poisson_schedule(7, "nominal", rate=500.0, seconds=2.0)
    again = bl.poisson_schedule(7, "nominal", rate=500.0, seconds=2.0)
    np.testing.assert_array_equal(one, again)
    assert not np.array_equal(one, bl.poisson_schedule(8, "nominal", 500.0, 2.0))
    assert not np.array_equal(one[:50], bl.poisson_schedule(7, "high", 500.0, 2.0)[:50])
    assert np.all(np.diff(one) > 0) and 0 < one[0] and one[-1] < 2.0
    assert abs(one.size - 1000) < 5 * np.sqrt(1000)


def test_request_sizes_reproducible_and_in_range():
    sizes = bl.request_sizes(3, "sizes", 1000, 1, 8)
    np.testing.assert_array_equal(sizes, bl.request_sizes(3, "sizes", 1000, 1, 8))
    assert not np.array_equal(sizes, bl.request_sizes(4, "sizes", 1000, 1, 8))
    assert sizes.min() == 1 and sizes.max() == 8
    # every block of eight carries each size once
    np.testing.assert_array_equal(np.sort(sizes[:1000].reshape(-1, 8), axis=1),
                                  np.tile(np.arange(1, 9), (125, 1)))
