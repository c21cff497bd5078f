"""Scoring tests: ratio-to-best semantics, tie flagging, suite aggregation
and the per-instance difficulty report."""

import pytest
from scipy import stats

from conftest import make_instance, schedule
from gridmotion.evaluate import InstanceScore, extract_features, instance_report, score_suites
from gridmotion.generate import GeneratorParams, generate
from gridmotion.model import Objective
from gridmotion.solve import SolverConfig, solve


LINE = make_instance([(0, 0)], [(2, 0)], name="line")

# makespans 2 and 4 on the same one-robot instance
FAST = schedule("line", "E", "E")
SLOW = schedule("line", "E", "W", "E", "E")
BROKEN = schedule("line", "E")   # ends short of the target


def row_for(report, team, instance):
    for row in report.rows:
        if row.team == team and row.instance == instance:
            return row
    raise AssertionError(f"no row for {team}/{instance}")


def test_single_valid_solution_scores_one():
    report = score_suites([LINE], {"solo": [FAST]}, Objective.MAX)
    assert report.totals == {"solo": 1.0}
    assert report.rows == [InstanceScore(team="solo", instance="line",
                                         value=2, best_value=2, score=1.0)]
    assert report.instance_count == 1
    assert report.tied_teams == []


def test_ratio_to_best_halves_the_doubled_makespan():
    report = score_suites([LINE], {"a": [FAST], "b": [SLOW]}, Objective.MAX)
    assert row_for(report, "a", "line").score == 1.0
    assert row_for(report, "b", "line").score == 0.5
    assert row_for(report, "b", "line").best_value == 2
    assert report.totals == {"a": 1.0, "b": 0.5}


def test_invalid_solutions_are_excluded_and_score_zero():
    report = score_suites([LINE], {"a": [FAST], "b": [BROKEN]}, Objective.MAX)
    b = row_for(report, "b", "line")
    assert b.value is None and b.score == 0.0
    assert report.totals["b"] == 0.0
    # the valid competitor is unaffected
    assert row_for(report, "a", "line").score == 1.0


def test_team_value_is_best_of_its_valid_schedules():
    report = score_suites([LINE], {"a": [SLOW, BROKEN, FAST]}, Objective.MAX)
    a = row_for(report, "a", "line")
    assert a.value == 2 and a.score == 1.0


def test_adding_strictly_worse_solution_changes_nothing():
    lean = score_suites([LINE], {"a": [FAST], "b": [SLOW]}, Objective.MAX)
    padded = score_suites([LINE], {"a": [FAST, SLOW], "b": [SLOW]}, Objective.MAX)
    assert lean.rows == padded.rows
    assert lean.totals == padded.totals


def test_objective_choice_changes_values():
    # a wait stretches the makespan but costs no move
    lazy = schedule("line", "E", ".", "E")   # makespan 3, total 2
    by_max = score_suites([LINE], {"a": [FAST], "b": [lazy]}, Objective.MAX)
    assert row_for(by_max, "b", "line").score == pytest.approx(2 / 3)
    by_sum = score_suites([LINE], {"a": [FAST], "b": [lazy]}, "sum")
    assert row_for(by_sum, "b", "line").score == 1.0
    assert by_sum.tied_teams == [("a", "b")]


def test_scale_invariance_of_ratio_scores():
    # same value ratio on both instances -> identical per-instance scores
    far = make_instance([(0, 0)], [(4, 0)], name="far")
    fast4 = schedule("far", "E", "E", "E", "E")
    slow8 = schedule("far", "W", "E", "W", "E", "E", "E", "E", "E")
    report = score_suites([LINE, far], {"a": [FAST, fast4], "b": [SLOW, slow8]},
                          Objective.MAX)
    assert row_for(report, "b", "line").score == 0.5
    assert row_for(report, "b", "far").score == 0.5
    assert report.totals == {"a": 2.0, "b": 1.0}


def test_unsolved_instance_scores_zero_for_everyone():
    far = make_instance([(0, 0)], [(4, 0)], name="far")
    report = score_suites([LINE, far], {"a": [FAST], "b": [SLOW]}, Objective.MAX)
    for team in ("a", "b"):
        row = row_for(report, team, "far")
        assert row.value is None and row.best_value is None and row.score == 0.0
    assert 0.0 <= report.totals["b"] <= report.instance_count


def test_unknown_instance_is_an_error():
    stray = schedule("nowhere", "E", "E")
    with pytest.raises(ValueError, match="unknown instance"):
        score_suites([LINE], {"a": [stray]}, Objective.MAX)


def test_bogus_objective_is_an_error():
    with pytest.raises(ValueError):
        score_suites([LINE], {"a": [FAST]}, "median")


def test_instances_accepted_as_mapping_or_iterable():
    by_map = score_suites({"line": LINE}, {"a": [FAST]}, Objective.MAX)
    by_list = score_suites([LINE], {"a": [FAST]}, Objective.MAX)
    assert by_map.rows == by_list.rows


def test_two_instances_of_one_name_are_an_error():
    # FAST reaches LINE's target only; keeping either instance would make
    # the team's score depend on the order of the list
    other = make_instance([(0, 0)], [(0, 2)], name="line")
    for report in (score_suites, instance_report):
        for instances in ([LINE, other], [other, LINE]):
            with pytest.raises(ValueError, match="duplicate instance name 'line'"):
                report(instances, {"a": [FAST]}, Objective.MAX)


def test_exact_total_ties_are_flagged_in_groups():
    report = score_suites([LINE], {"a": [FAST], "b": [FAST], "c": [SLOW]},
                          Objective.MAX)
    assert report.tied_teams == [("a", "b")]
    three = score_suites([LINE], {t: [FAST] for t in "abc"}, Objective.MAX)
    assert three.tied_teams == [("a", "b", "c")]


# ------------------------------------------------------ instance report

def test_report_single_team_averages_one():
    report, summaries = instance_report([LINE], {"solo": [FAST]}, Objective.MAX)
    (summary,) = summaries
    assert summary.instance == "line"
    assert summary.average_score == 1.0
    assert summary.best_value == 2
    assert summary.lb_makespan == 2 and summary.lb_total == 2
    assert summary.features.n_robots == 1


def test_report_two_teams_average_is_three_quarters():
    _, summaries = instance_report([LINE], {"a": [FAST], "b": [SLOW]},
                                   Objective.MAX)
    assert summaries[0].average_score == pytest.approx(0.75)


def test_report_uses_bounding_box_features():
    params = GeneratorParams(map_width=6, map_height=6, density=0.1,
                             obstacle_count=0, obstacle_size_mean=2.0,
                             obstacle_size_stddev=0.5, seed=1)
    inst = generate(params).instance
    _, summaries = instance_report([inst], {}, Objective.MAX)
    assert summaries[0].features == extract_features(inst)


def test_report_handles_unreachable_lower_bounds():
    pocket = make_instance([(0, 0)], [(5, 5)],
                           [(5, 4), (5, 6), (4, 5), (6, 5)], name="pocket")
    report, summaries = instance_report([pocket], {"a": []}, Objective.MAX)
    (summary,) = summaries
    assert summary.lb_makespan is None and summary.lb_total is None
    assert summary.best_value is None
    assert summary.average_score == 0.0


def test_average_score_does_not_increase_with_robot_count():
    # Two solver budgets over a density ladder: the cheap budget falls behind
    # as instances get crowded, so average score must not rise with n_robots.
    instances = []
    for i, density in enumerate((0.02, 0.05, 0.1, 0.2, 0.3, 0.4)):
        params = GeneratorParams(map_width=10, map_height=10, density=density,
                                 obstacle_count=0, obstacle_size_mean=2.0,
                                 obstacle_size_stddev=0.5, seed=40 + i)
        instances.append(generate(params).instance)
    suites = {"full": [], "quick": []}
    for inst in instances:
        strong = solve(inst, SolverConfig(objective="sum", restarts=4,
                                          anneal_iterations=1500, seed=3))
        weak = solve(inst, SolverConfig(objective="sum", restarts=1,
                                        anneal_iterations=0, seed=3))
        assert strong.success and weak.success
        suites["full"].append(strong.schedule)
        suites["quick"].append(weak.schedule)
    _, summaries = instance_report(instances, suites, "sum")
    n_robots = [s.features.n_robots for s in summaries]
    averages = [s.average_score for s in summaries]
    assert n_robots == [2, 5, 10, 20, 30, 40]
    rho = stats.spearmanr(n_robots, averages).statistic
    assert rho <= 0.0
    # the strong budget never loses an instance outright
    totals = score_suites(instances, suites, "sum").totals
    assert totals["full"] == pytest.approx(len(instances))
