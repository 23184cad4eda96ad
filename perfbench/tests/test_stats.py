import pytest

import stats


def test_tail_percentile_leaves_ten_calls_beyond():
    assert stats.tail_percentile(120) == pytest.approx(100 * 110 / 120)
    values = [float(v) for v in range(1, 121)]
    tail = stats.nearest_rank(values, stats.tail_percentile(120))
    assert tail == 110.0
    assert sum(v > tail for v in values) == 10


def test_tail_percentile_is_fixed_by_the_round_not_the_run():
    per_round = [float(v) for v in range(1, 65)]
    pct = stats.tail_percentile(len(per_round))
    one = stats.nearest_rank(per_round, pct)
    three = stats.nearest_rank(per_round * 3, pct)
    assert one == three == 54.0


def test_rounds_of_ten_calls_or_fewer_report_the_maximum():
    assert stats.tail_percentile(1) == 100.0
    assert stats.tail_percentile(10) == 100.0
    assert stats.nearest_rank([3.0, 1.0, 2.0], stats.tail_percentile(1)) == 3.0
    assert stats.tail_percentile(11) == pytest.approx(100 / 11)


def test_nearest_rank_median_and_quartiles():
    assert stats.nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    q1, med, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0 and q1 < med < q3
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0


def test_best_time_takes_each_stretch_at_its_fastest():
    rounds = [[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 2.0, 4.0]]
    assert stats.best_time(rounds) == 1.0 + 1.0 + 2.0
    assert stats.best_time([[4.0, 2.0]]) == 6.0


def test_best_time_falls_back_to_the_fastest_round_when_cuts_differ():
    assert stats.best_time([[1.0, 5.0], [2.0, 1.0, 1.0], [3.0, 0.5]]) == 3.5
