"""The report arithmetic: the tail rule, peak rate and generator lateness."""

import numpy as np
import pytest

from perfbench.stats import (
    best_window_percentile,
    best_window_rate,
    chunks,
    completion_rate,
    lateness,
    min_samples,
    percentile,
    relative_spread,
    supports,
)


def test_tail_needs_ten_samples_beyond():
    assert min_samples(99) == 1000
    assert min_samples(90) == 100
    assert not supports(999, 99) and supports(1000, 99)
    assert not supports(99, 90) and supports(100, 90)
    assert supports(1, 50)


def test_unsupported_percentile_refuses():
    with pytest.raises(ValueError, match="need 1000"):
        percentile(range(999), 99)
    assert percentile(range(1000), 99) == pytest.approx(np.percentile(range(1000), 99))


def test_percentile_interpolates_like_numpy():
    values = np.random.default_rng(3).exponential(size=2000)
    for q in (50, 90, 99):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_completion_rate_counts_intervals_not_the_window():
    # four completions half a second apart: 3 intervals over 1.5 s
    assert completion_rate([10.0, 10.5, 11.0, 11.5]) == pytest.approx(2.0)
    # order does not matter
    assert completion_rate([11.5, 10.0, 11.0, 10.5]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        completion_rate([1.0])


def test_best_window_percentile_skips_disturbed_windows():
    calm = list(np.random.default_rng(1).uniform(1.0, 2.0, size=400))
    disturbed = [x * 10 for x in calm[:200]] + calm[200:]  # half the phase is slow
    assert best_window_percentile(disturbed, 90) == pytest.approx(
        best_window_percentile(calm, 90), rel=0.1)
    assert percentile(disturbed, 90) > 5  # the pooled percentile is not robust
    # too few samples for two p90 windows: the plain percentile
    assert best_window_percentile(calm[:150], 90) == percentile(calm[:150], 90)
    # a median window holds at least 100 samples as well
    assert best_window_percentile(calm[:150], 50) == percentile(calm[:150], 50)
    with pytest.raises(ValueError):
        best_window_percentile(calm[:99], 90)


def test_chunks_cover_everything_in_order():
    assert chunks(range(7), 3) == [[0, 1], [2, 3, 4], [5, 6]]


def test_best_window_rate_takes_the_fastest_window():
    steady = [i * 0.01 for i in range(300)]  # 100/s
    stalled = [i * 0.05 for i in range(100)] + [5.0 + i * 0.01 for i in range(200)]
    assert best_window_rate(steady) == pytest.approx(100.0)
    assert best_window_rate(stalled) == pytest.approx(100.0, rel=0.02)


def test_lateness_excludes_queueing():
    # free connection, sent 0.1 s after due: all of it is the generator's
    assert lateness(scheduled=3.0, free_at=1.0, sent=3.1) == pytest.approx(0.1)
    # due at 0 but both connections busy until 5: only the 0.2 s after is lag
    assert lateness(scheduled=0.0, free_at=5.0, sent=5.2) == pytest.approx(0.2)
    assert lateness(scheduled=2.0, free_at=1.0, sent=2.0) == 0.0


def test_relative_spread():
    assert relative_spread([10.0] * 10) == 0.0
    # exclusive quartiles of [9, 9, 10 x6, 11, 11] are 9.75 and 10.25
    assert relative_spread([9, 10, 10, 10, 11] * 2) == pytest.approx(0.05)
