"""Tests for the benchmark's own arithmetic: tail levels, self time, fail_frac."""

import pytest

from perfbench.arith import (
    Span,
    fail_frac,
    level_name,
    model_study_counts,
    n_beyond,
    percentile,
    quartile_spread,
    self_times,
    tail_level,
)


# -- highest percentile with at least ten samples beyond it ----------------------


def test_tail_level_picks_the_highest_level_with_ten_beyond():
    assert tail_level(160) == 0.9  # p95 would leave 8 beyond
    assert tail_level(200) == 0.95  # exactly 10 beyond p95
    assert tail_level(199) == 0.9
    assert tail_level(1000) == 0.99
    assert tail_level(10_000) == 0.999


def test_tail_level_at_the_edges():
    assert tail_level(48) == 0.75  # 12 beyond p75, 4 beyond p90
    assert tail_level(100) == 0.9  # exactly 10 beyond p90
    assert tail_level(20) == 0.5
    assert tail_level(19) is None
    assert tail_level(0) is None


def test_beyond_counts_match_the_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert percentile(xs, 0.9) == 90
    assert n_beyond(100, 0.9) == sum(x > percentile(xs, 0.9) for x in xs) == 10
    assert percentile(xs, 0.5) == 50
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([3, 1, 2], 1.0) == 3


def test_level_names():
    assert [level_name(q) for q in (0.5, 0.9, 0.99, 0.999)] == ["p50", "p90", "p99", "p99.9"]


# -- self time from nested spans -------------------------------------------------


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("root", 0.0, 10.0),
        Span("cli.evaluate", 1.0, 9.0, parent=0),
        Span("core.parse", 1.0, 3.0, parent=1),
        Span("classify.fit_grid", 3.0, 8.0, parent=1),
        Span("stats.fit", 3.5, 4.5, parent=3),
        Span("stats.fit", 5.0, 7.0, parent=3),
    ]
    assert self_times(spans) == pytest.approx([2.0, 1.0, 2.0, 2.0, 1.0, 2.0])
    # every instant is attributed to exactly one span
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("a", 0.0, 4.0),
        Span("b", 1.0, 3.0, parent=0),
        Span("c", 2.0, 3.5, parent=0),  # overlaps b
        Span("d", 3.8, 5.0, parent=0),  # runs past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.5 - 0.2)


def test_leaf_self_time_is_its_duration():
    assert self_times([Span("x", 2.0, 2.5)]) == pytest.approx([0.5])
    assert self_times([]) == []


# -- fail_frac denominators ------------------------------------------------------


def test_fail_frac_divides_by_attempted():
    assert fail_frac(216, 0) == 0.0
    assert fail_frac(7500, 3) == pytest.approx(3 / 7500)
    assert fail_frac(4, 4) == 1.0


@pytest.mark.parametrize("attempted, failed", [(0, 0), (3, 4), (3, -1)])
def test_fail_frac_rejects_impossible_counts(attempted, failed):
    with pytest.raises(ValueError):
        fail_frac(attempted, failed)


def _eval_report(n_periods, scored_by_model):
    return {"n_periods": n_periods, "per_model": {
        name: {"auprc_curve": [{"w_ms": 250.0 * (i + 1), "auprc": 0.9, "n_scored": k}
                               for i, k in enumerate(scored)]}
        for name, scored in scored_by_model.items()}}


def _dsa_point(cap, n_calibrate, n_evaluate):
    return {"max_fpr": cap, "sa": 0.9, "dsa": 0.8,
            "n_calibrate": n_calibrate, "n_evaluate": n_evaluate}


def test_model_study_counts_each_cell_once():
    ev = _eval_report(40, {"gaussian": [40, 40], "gmm3": [39, 37]})
    # dsa reports one point per cap, all from one grid of 40 cells
    dsa = {"points": [_dsa_point(0.05, 20, 19), _dsa_point(0.10, 20, 19)]}
    attempted, failed = model_study_counts(ev, dsa)
    assert attempted == 4 * 40 + 40
    assert failed == (1 + 3) + 1
    assert fail_frac(attempted, failed) == pytest.approx(5 / 200)


def test_model_study_counts_without_dsa_points():
    assert model_study_counts(_eval_report(12, {"gpd": [12, 10, 12]}), {"points": []}) == (36, 2)


def test_quartile_spread_is_a_share_of_the_median():
    assert quartile_spread([10.0] * 5) == 0.0
    # statistics.quantiles (exclusive) of 1..9 gives quartiles 2.5 and 7.5
    assert quartile_spread(range(1, 10)) == pytest.approx(5.0 / 5.0)
