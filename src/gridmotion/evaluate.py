"""Tournament-style scoring of solution suites and per-instance reporting.

For each (team, instance) pair the team's value V is the best objective among
its valid schedules for that instance; invalid schedules are excluded before
scoring. With L the best V over all teams, the team scores L / V (defined as
1 when V equals L, which also covers the degenerate 0/0 case) and 0 when it
has no valid schedule. Smaller objectives are better, so scores lie in
[0, 1] and a team's total lies in [0, number of instances].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .model import Instance, InstanceFeatures, Objective, Schedule
from .validate import UnreachableTargetError, lower_bounds, search_window, validate_schedule


@dataclass(frozen=True)
class InstanceScore:
    team: str
    instance: str
    value: Optional[int]        # team's best valid objective, None when absent
    best_value: Optional[int]   # best over all teams
    score: float


@dataclass
class ScoreReport:
    objective: Objective
    instances: tuple[str, ...]
    rows: list[InstanceScore]
    totals: dict[str, float]
    tied_teams: list[tuple[str, ...]]   # groups of >= 2 teams with equal totals

    @property
    def instance_count(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class InstanceSummary:
    instance: str
    average_score: float
    best_value: Optional[int]
    lb_makespan: Optional[int]
    lb_total: Optional[int]
    features: InstanceFeatures


def _as_instance_map(instances) -> dict[str, Instance]:
    if isinstance(instances, Mapping):
        return dict(instances)
    return {inst.name: inst for inst in instances}


def score_suites(instances, suites: Mapping[str, Iterable[Schedule]],
                 objective: Objective) -> ScoreReport:
    """Score every team's suite of schedules over the given instances.

    ``instances`` is a mapping name -> Instance or an iterable of instances.
    A schedule naming an unknown instance is an error. Missing or invalid
    entries simply leave the team without a value there (score 0).
    """
    objective = Objective(objective)
    by_name = _as_instance_map(instances)
    values: dict[str, dict[str, int]] = {team: {} for team in suites}
    for team, schedules in suites.items():
        for schedule in schedules:
            inst = by_name.get(schedule.instance_name)
            if inst is None:
                raise ValueError(
                    f"team {team!r}: schedule references unknown instance "
                    f"{schedule.instance_name!r}")
            report = validate_schedule(inst, schedule)
            if not report.feasible:
                continue
            value = objective.of(report.makespan, report.total_distance)
            old = values[team].get(inst.name)
            if old is None or value < old:
                values[team][inst.name] = value

    names = tuple(sorted(by_name))
    teams = sorted(suites)
    rows: list[InstanceScore] = []
    totals = {team: 0.0 for team in teams}
    for name in names:
        present = [values[team][name] for team in teams if name in values[team]]
        best = min(present) if present else None
        for team in teams:
            v = values[team].get(name)
            if v is None:
                score = 0.0
            elif v == best:
                score = 1.0
            else:
                score = best / v
            totals[team] += score
            rows.append(InstanceScore(team=team, instance=name, value=v,
                                      best_value=best, score=score))

    by_total: dict[float, list[str]] = {}
    for team in teams:
        by_total.setdefault(totals[team], []).append(team)
    tied = [tuple(group) for total, group in sorted(by_total.items())
            if len(group) > 1]
    return ScoreReport(objective=objective, instances=names, rows=rows,
                       totals=totals, tied_teams=tied)


def instance_report(instances, suites: Mapping[str, Iterable[Schedule]],
                    objective: Objective) -> tuple[ScoreReport, list[InstanceSummary]]:
    """Scores plus a per-instance difficulty summary joining average score,
    best objective, lower bounds and bounding-box features."""
    report = score_suites(instances, suites, objective)
    by_name = _as_instance_map(instances)
    n_teams = max(len(suites), 1)
    best_by_instance = {name: None for name in report.instances}
    score_sum = {name: 0.0 for name in report.instances}
    for row in report.rows:
        best_by_instance[row.instance] = row.best_value
        score_sum[row.instance] += row.score
    summaries = []
    for name in report.instances:
        inst = by_name[name]
        try:
            lb_mk, lb_tot, _ = lower_bounds(inst)
        except UnreachableTargetError:
            lb_mk = lb_tot = None
        summaries.append(InstanceSummary(
            instance=name,
            average_score=score_sum[name] / n_teams,
            best_value=best_by_instance[name],
            lb_makespan=lb_mk,
            lb_total=lb_tot,
            features=extract_features(inst),
        ))
    return report, summaries


def extract_features(instance: Instance) -> InstanceFeatures:
    """Features of an instance file, which carries no generator provenance:
    the map is the bounding box of the instance content, and the cluster
    fields are 0 and flagged unknown. ``generate`` returns the features of
    the instances it makes."""
    n = instance.n_robots
    x0, y0, x1, y1 = search_window(instance)   # the bounding box inflated by 1
    volume = (x1 - x0 - 1) * (y1 - y0 - 1)
    free_area = volume - len(instance.obstacles)
    return InstanceFeatures(n, n / free_area, 0, 0, volume, free_area,
                            cluster_info_known=False)
