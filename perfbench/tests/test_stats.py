"""The percentile rule and the solo run time of overlapping jobs."""

import pytest

from stats import highest_supported_percentile, overlaps, percentile, samples_beyond, solo_time


def test_p90_needs_one_hundred_samples():
    assert samples_beyond(100, 90) == 10
    assert highest_supported_percentile(100) == 90
    assert samples_beyond(99, 90) == 9
    assert highest_supported_percentile(99) == 80


@pytest.mark.parametrize("count", [1, 9, 10, 39, 40, 49, 50, 199, 200, 999, 1000, 5000])
def test_reported_tail_always_has_ten_beyond(count):
    pct = highest_supported_percentile(count)
    if pct is None:
        assert all(samples_beyond(count, p) < 10 for p in (75, 80, 90, 95, 99))
    else:
        assert samples_beyond(count, pct) >= 10
        higher = [p for p in (75, 80, 90, 95, 99) if p > pct]
        assert all(samples_beyond(count, p) < 10 for p in higher)


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 100) == 100
    assert percentile([3.0], 99) == 3.0


def test_overlaps_sum_the_other_intervals():
    assert overlaps([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == [1.0, 1.0, 0.0]
    assert overlaps([(0.0, 4.0), (1.0, 2.0), (3.0, 5.0)]) == [2.0, 1.0, 1.0]


def test_solo_time_reads_the_fit_at_zero_overlap():
    # A job alone takes 1 s; each second of overlap adds a second.
    intervals = [(0.0, 1.0), (10.0, 11.5), (11.0, 12.5), (20.0, 21.0)]
    assert overlaps(intervals) == [0.0, 0.5, 0.5, 0.0]
    assert solo_time(intervals) == pytest.approx(1.0)
    # Without any spread in overlap, the median run time.
    assert solo_time([(0.0, 1.0), (5.0, 7.0), (10.0, 13.0)]) == 2.0
