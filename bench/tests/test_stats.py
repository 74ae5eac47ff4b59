import pytest

from stats import (
    P95_MIN_SAMPLES,
    best_of_repeats,
    latency_summary,
    nearest_rank,
    spread,
    windows,
)


def test_nearest_rank_picks_a_sample_not_an_interpolation():
    values = [5, 1, 4, 2, 3]
    assert nearest_rank(values, 50) == 3
    assert nearest_rank(values, 95) == 5
    assert nearest_rank(values, 20) == 1
    assert nearest_rank(values, 21) == 2
    assert nearest_rank(list(range(1, 101)), 95) == 95


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_p95_is_resolved_only_with_enough_samples():
    short = latency_summary([0.001] * (P95_MIN_SAMPLES - 1))
    assert short["p95_resolved"] is False
    assert short["samples"] == P95_MIN_SAMPLES - 1
    enough = latency_summary([i / 1000 for i in range(P95_MIN_SAMPLES)])
    assert enough["p95_resolved"] is True
    assert enough["p95_ms"] == pytest.approx(189.0)
    assert enough["p50_ms"] == pytest.approx(99.0)


def _back_to_back(latencies, work=2):
    """Back-to-back ops of the given latencies, in turn."""
    ops, begin = [], 0.0
    for latency in latencies:
        ops.append((begin, begin + latency, work))
        begin += latency
    return ops


def test_a_window_holds_a_fiftieth_of_the_ops():
    assert windows(_back_to_back([0.001] * 200))["windows"] == 200 - 4 + 1
    assert windows(_back_to_back([0.001] * 10))["windows"] == 10


def test_a_slow_stretch_moves_neither_best_estimate():
    # Windows of two ops; twenty ops in the middle run four times slower.
    ops = _back_to_back([0.001] * 40 + [0.004] * 20 + [0.001] * 40)
    windowed = windows(ops)
    assert windowed["best"]["throughput"] == pytest.approx(2000)
    assert windowed["best"]["p50_ms"] == pytest.approx(1)


def test_the_median_window_shows_a_cost_that_grows_during_the_run():
    # Of 99 two-op windows, 30 hold a 1 ms op and 40 more a 2 ms one.
    ops = _back_to_back([0.001] * 30 + [0.002] * 40 + [0.003] * 30)
    windowed = windows(ops)
    assert windowed["windows"] == 99
    assert windowed["best"]["throughput"] == pytest.approx(2000)
    assert windowed["best"]["p50_ms"] == pytest.approx(1)
    assert windowed["median"]["throughput"] == pytest.approx(1000)
    assert windowed["median"]["p50_ms"] == pytest.approx(2)


def test_a_window_lasts_until_its_latest_op_ends():
    # Two connections: op i begins at i and takes 3 s if i is even, else
    # 1 s.  A window of ops i, i+1 (i even) ends when op i does, at i+3.
    ops = [(float(i), i + (3.0 if i % 2 == 0 else 1.0), 1)
           for i in range(100)]
    windowed = windows(list(reversed(ops)))
    assert windowed["best"]["throughput"] == pytest.approx(2 / 3)
    assert windowed["best"]["p50_ms"] == pytest.approx(1000)


def test_each_op_of_a_short_run_is_its_own_window():
    ops = [(0.0, 1.5, 300), (1.5, 2.7, 300), (2.7, 4.7, 300)]
    windowed = windows(ops)
    assert windowed["windows"] == 3
    assert windowed["best"]["throughput"] == pytest.approx(250)
    assert windowed["best"]["p50_ms"] == pytest.approx(1200)
    assert windowed["median"]["throughput"] == pytest.approx(200)
    assert windowed["median"]["p50_ms"] == pytest.approx(1500)


def test_each_repeated_op_counts_once_at_its_fastest_run():
    # Item "a" runs in 1 s, 3 s and 2 s; item "b" in 4 s and 2 s.  The
    # gaps between runs, where outputs are checked, count for nothing.
    runs = [("a", 1.0), ("b", 4.0), ("a", 3.0), ("b", 2.0), ("a", 2.0)]
    ops, begin = [], 0.0
    for item, latency in runs:
        ops.append((begin, begin + latency, 10, item))
        begin += latency + 5.0
    repeated = best_of_repeats(ops)
    assert repeated["items"] == 2
    assert repeated["fewest_runs"] == 2
    assert repeated["best"]["throughput"] == pytest.approx(20 / 3)
    assert repeated["best"]["p50_ms"] == pytest.approx(1000)
    # The lower median run: 2 s for "a", 2 s for "b".
    assert repeated["median"]["throughput"] == pytest.approx(20 / 4)
    assert repeated["median"]["p50_ms"] == pytest.approx(2000)


def test_one_repeated_op_gives_its_fastest_run():
    ops = [(0.0, 1.5, 300, "r"), (1.6, 2.8, 300, "r"), (2.9, 4.9, 300, "r")]
    repeated = best_of_repeats(ops)
    assert repeated["best"]["throughput"] == pytest.approx(250)
    assert repeated["best"]["p50_ms"] == pytest.approx(1200)
    assert repeated["median"]["p50_ms"] == pytest.approx(1500)


def test_spread_is_interquartile_range_over_median():
    assert spread([10.0]) == 0.0
    assert spread([10.0, 10.0, 10.0]) == 0.0
    # statistics.quantiles (exclusive) of 1..5 gives q1=1.5, q3=4.5.
    assert spread([1, 2, 3, 4, 5]) == pytest.approx(3.0 / 3)
