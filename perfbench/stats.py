"""Report arithmetic: percentiles with enough tail, completion rates, lateness.

A timing is reported as a median plus the highest percentile that leaves
at least :data:`MIN_BEYOND` samples beyond it.  Asking for a percentile
the sample cannot support raises instead of returning what is really the
maximum of a few samples.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: fewest samples in one window of :func:`best_window_percentile`: enough
#: for a p90, and for a median that the mix of inputs in a few seconds of
#: traffic does not swing.
MIN_WINDOW = 100


def min_samples(q: float) -> int:
    """Smallest sample count that leaves MIN_BEYOND samples beyond ``q``."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def supports(count: int, q: float) -> bool:
    """True when ``count`` samples can support the ``q``-th percentile."""
    return q <= 50.0 or count >= min_samples(q)


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default rule).

    Raises :class:`ValueError` on an empty sample or an unsupported tail.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not supports(len(data), q):
        raise ValueError(
            f"{len(data)} samples cannot support p{q:g}: "
            f"need {min_samples(q)} for {MIN_BEYOND} beyond it"
        )
    position = (len(data) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def chunks(values, count: int) -> list[list]:
    """``values`` cut into ``count`` contiguous runs of near-equal length."""
    values = list(values)
    bounds = [round(i * len(values) / count) for i in range(count + 1)]
    return [values[bounds[i]:bounds[i + 1]] for i in range(count)]


def best_window_percentile(values, q: float, max_windows: int = 7) -> float:
    """The lowest ``q``-th percentile over consecutive windows of a phase.

    ``values`` are in time order.  The phase is cut into as many windows
    (at most ``max_windows``) as still leave every window enough samples
    for ``q`` and at least :data:`MIN_WINDOW`.  On a shared machine,
    interference from other tenants only ever adds time, and it comes in
    bursts of a few seconds; the best window is the one it touched least.
    With too few samples for two windows this is the plain percentile.
    """
    values = list(values)
    count = max(1, min(max_windows, len(values) // max(min_samples(q), MIN_WINDOW)))
    return min(percentile(window, q) for window in chunks(values, count))


def best_window_rate(done_times, windows: int = 5) -> float:
    """The highest :func:`completion_rate` over consecutive windows."""
    times = sorted(done_times)
    count = max(1, min(windows, len(times) // 2))
    return max(completion_rate(window) for window in chunks(times, count))


def completion_rate(done_times) -> float:
    """Completions per second between the first and the last completion.

    Dividing n completions by a fixed phase length quantises the rate by
    one completion per phase; counting the n - 1 intervals between the
    first and last completion does not.
    """
    times = sorted(done_times)
    if len(times) < 2 or times[-1] <= times[0]:
        raise ValueError("need two completions at distinct times")
    return (len(times) - 1) / (times[-1] - times[0])


def lateness(scheduled: float, free_at: float, sent: float) -> float:
    """How late the generator sent a request it was free to send.

    A request can leave no earlier than its due time and no earlier than
    the moment a connection was free for it.  Delay past the later of the
    two is the generator's own lag; delay before it is queueing.
    """
    return max(0.0, sent - max(scheduled, free_at))


def relative_spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
