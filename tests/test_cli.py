"""End-to-end command line tests. Everything runs in-process through
main(argv) against temp directories, apart from the launch checks: a
subprocess smoke test runs the CLI as ``python -m gridmotion`` for the
top-level help and each subcommand's, a second one runs the installed
``gridmotion`` console script and is skipped where no such script is on
PATH, and an entry-point check reads pyproject.toml to confirm that the
script and ``python -m`` call the same function. Two more subprocesses
serve perfbench's traced run: one checks that every function it wraps is
still found after importing ``gridmotion.cli``, the other runs a traced
solve and turns its spans into per-layer metrics. One checks that the
modules that read, validate, score and render import without numpy, and
one solves, under a 3 GB address-space limit, an instance too far apart to
fit in it."""

import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import make_instance, schedule, seal
import gridmotion.cli as cli_module
import gridmotion.solve as solve_module
from gridmotion import __main__ as run_module
from gridmotion.cli import main, main_entry
from gridmotion.formats import emit_instance, emit_solution, parse_solution

GRID_CONFIG = (
    "map_width = 8\n"
    "map_height = 8\n"
    "density = 0.1\n"
    "obstacle_count = 2\n"
    "seed = 1 2 3 4 5\n"
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def line_files(tmp_path):
    inst = make_instance([(0, 0)], [(2, 0)], name="line")
    ipath = write(tmp_path / "line.instance.json", emit_instance(inst))
    spath = write(tmp_path / "line.solution.json",
                  emit_solution(schedule("line", "E", "E")))
    return ipath, spath


# -------------------------------------------------------------- pipeline

def test_generate_solve_validate_score_pipeline(tmp_path, capsys):
    config = write(tmp_path / "batch.cfg", GRID_CONFIG)
    instances = tmp_path / "instances"
    assert main(["generate", config, str(instances)]) == 0
    files = sorted(instances.glob("*.instance.json"))
    assert len(files) == 5
    assert (instances / "features.csv").exists()

    team = tmp_path / "solo"
    team.mkdir()
    for f in files:
        out = team / f.name.replace(".instance.json", ".solution.json")
        code = main(["solve", str(f), "-o", str(out), "--objective", "max",
                     "--restarts", "2", "--anneal-iterations", "50"])
        assert code == 0
        assert main(["validate", str(f), str(out)]) == 0

    scores = tmp_path / "scores"
    assert main(["score", "--instances", str(instances), "--objective", "max",
                 "--output", str(scores), str(team)]) == 0
    printed = capsys.readouterr().out
    assert "solo: 5.0000 / 5" in printed

    rows = (scores / "scores.csv").read_text().splitlines()
    assert rows[0] == "objective,instance,team,value,best_value,score"
    assert len(rows) == 6
    assert all(r.endswith("1.000000") for r in rows[1:])
    totals = (scores / "totals.csv").read_text().splitlines()
    assert totals[0] == "team,total,instances"
    assert totals[1] == "solo,5.000000,5"

    # a second team with the same schedules ties with the first
    shutil.copytree(team, tmp_path / "twin")
    assert main(["score", "--instances", str(instances), "--objective", "max",
                 "--output", str(scores), str(team), str(tmp_path / "twin")]) == 0
    assert "tie on total: solo, twin" in capsys.readouterr().out.splitlines()


def readme_quick_start():
    """(argv, output lines) for each ``$`` command of README's command-line
    quick start, continuation lines joined and blank lines dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command-line quick start")[1].split("\n## ")[0]
    commands = []
    for block in section.split("```")[1::2]:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *output = chunk.replace("\\\n", " ").splitlines()
            commands.append((shlex.split(command), [line for line in output if line]))
    return commands


def test_readme_quick_start_prints_what_it_quotes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRIDMOTION_SEED", raising=False)
    commands = readme_quick_start()
    assert [argv[:2] for argv, _ in commands] == [
        ["cat", "batch.cfg"], ["gridmotion", "generate"], ["mkdir", "team_a"],
        ["gridmotion", "solve"], ["gridmotion", "validate"], ["gridmotion", "score"],
        ["gridmotion", "render"]]
    for argv, output in commands:
        if argv[0] == "cat":    # the config file, as the README shows it
            (tmp_path / argv[1]).write_text("\n".join(output) + "\n", encoding="utf-8")
        elif argv[0] == "mkdir":
            (tmp_path / argv[1]).mkdir()
        else:
            assert main(argv[1:]) == 0, argv
            assert capsys.readouterr().out.splitlines() == output, argv


def test_score_instance_report_table(tmp_path):
    config = write(tmp_path / "one.cfg",
                   "map_width = 6\nmap_height = 6\ndensity = 0.1\nseed = 3\n")
    instances = tmp_path / "instances"
    main(["generate", config, str(instances)])
    (inst_file,) = instances.glob("*.instance.json")
    team = tmp_path / "team"
    team.mkdir()
    main(["solve", str(inst_file), "-o",
          str(team / inst_file.name.replace(".instance.json", ".solution.json"))])
    scores = tmp_path / "report"
    assert main(["score", "--instances", str(instances), "--objective", "sum",
                 "--output", str(scores), "--instance-report", str(team)]) == 0
    table = (scores / "instances.csv").read_text().splitlines()
    assert table[0] == ("instance,average_score,best_value,lb_makespan,"
                        "lb_total,n_robots,density,free_area")
    assert len(table) == 2


def test_score_rejects_duplicate_instance_names(tmp_path, capsys):
    # two files name instance "a"; the later one would silently win
    instances = tmp_path / "instances"
    instances.mkdir()
    for stem, target in (("x", (1, 0)), ("y", (3, 0))):
        write(instances / f"{stem}.instance.json",
              emit_instance(make_instance([(0, 0)], [target], name="a")))
    team = tmp_path / "team"
    team.mkdir()
    write(team / "x.solution.json", emit_solution(schedule("a", "E")))
    scores = tmp_path / "scores"
    assert main(["score", "--instances", str(instances), "--objective", "max",
                 "--output", str(scores), str(team)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'a'" in err
    assert "x.instance.json" in err and "y.instance.json" in err
    assert not scores.exists()


def swap_files(tmp_path, length):
    """Instance and empty solution files for two robots that trade (0, 0)
    and (length, length) past one obstacle in the middle of the diagonal."""
    inst = make_instance([(0, 0), (length, length)], [(length, length), (0, 0)],
                         [(length // 2, length // 2)], name="swap")
    ipath = write(tmp_path / "swap.instance.json", emit_instance(inst))
    spath = write(tmp_path / "swap.solution.json", '{"instance": "swap", "steps": []}\n')
    return ipath, spath


def traced(argv):
    """Exit code of main(argv) and the peak of its Python allocations."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_memory_follows_the_shadow_not_the_window(tmp_path, capsys):
    # the search window is 1,603 x 1,603, but nothing lies in the one
    # obstacle's shadow, so each robot's distance map stores no cell: a
    # list over the window would take over 20 MB per robot
    ipath, spath = swap_files(tmp_path, 1600)
    code, peak = traced(["solve", ipath, "-o", spath, "--restarts", "1"])
    assert code == 0 and "(makespan 3200, total 6400)" in capsys.readouterr().out
    assert peak < 10_000_000


def test_validate_bounds_a_huge_window_in_little_memory(tmp_path, capsys):
    # lower bounds over a 100,003 x 100,003 window; the empty schedule
    # leaves both robots off their targets
    ipath, spath = swap_files(tmp_path, 100_000)
    code, peak = traced(["validate", ipath, spath])
    assert code == 1
    assert "lb_makespan: 200000  lb_total: 400000" in capsys.readouterr().out
    assert peak < 5_000_000


# -------------------------------------------------------------- validate

def test_validate_prints_bounds_and_objective(line_files, capsys):
    ipath, spath = line_files
    assert main(["validate", ipath, spath, "--objective", "sum"]) == 0
    out = capsys.readouterr().out
    assert "feasible: True" in out
    assert "makespan: 2  total_distance: 2" in out
    assert "objective (sum): 2" in out
    assert "lb_makespan: 2  lb_total: 2" in out
    assert "stretch_max: 1.0000" in out


def test_validate_names_violated_rule_and_exits_one(tmp_path, capsys):
    free = [(0, 0), (1, 0)]
    swap = make_instance([(0, 0), (1, 0)], [(1, 0), (0, 0)], seal(free),
                         name="swap")
    ipath = write(tmp_path / "swap.instance.json", emit_instance(swap))
    spath = write(tmp_path / "swap.solution.json",
                  emit_solution(schedule("swap", "EW")))
    assert main(["validate", ipath, spath]) == 1
    out = capsys.readouterr().out
    assert "feasible: False" in out
    assert "violation: step 0 rule R3 robots [0, 1]" in out

    # a walled-in target has no lower bounds, so none are printed
    walled = make_instance([(0, 0)], [(2, 0)], seal([(2, 0)]), name="walled")
    ipath = write(tmp_path / "walled.instance.json", emit_instance(walled))
    spath = write(tmp_path / "walled.solution.json", emit_solution(schedule("walled")))
    assert main(["validate", ipath, spath]) == 1
    out = capsys.readouterr().out
    assert "feasible: False" in out and "violation: step 0 rule target" in out
    assert "lb_makespan" not in out


def test_validate_warns_on_name_mismatch(line_files, tmp_path, capsys):
    ipath, _ = line_files
    other = write(tmp_path / "other.solution.json",
                  emit_solution(schedule("elsewhere", "E", "E")))
    assert main(["validate", ipath, other]) == 0
    assert "warning: solution names instance 'elsewhere'" in capsys.readouterr().err


def with_meta(text):
    """A JSON file's text with an extra, unknown "meta" key."""
    return json.dumps({**json.loads(text), "meta": "x"})


def test_unknown_key_warnings_name_their_file(tmp_path, capsys, recwarn):
    # one line per file; a Python warning would show once per source line
    instances, team = tmp_path / "instances", tmp_path / "team"
    instances.mkdir()
    team.mkdir()
    files = []
    for name in ("one", "two"):
        inst = make_instance([(0, 0)], [(2, 0)], name=name)
        files.append(write(instances / f"{name}.instance.json",
                           with_meta(emit_instance(inst))))
    for name in ("one", "two"):
        files.append(write(team / f"{name}.solution.json",
                           with_meta(emit_solution(schedule(name, "E", "E")))))
    assert main(["score", "--instances", str(instances), "--objective", "max",
                 "--output", str(tmp_path / "scores"), str(team)]) == 0
    what = ["instance file"] * 2 + ["solution file"] * 2
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {path}: {kind}: unknown key(s) 'meta'" for path, kind in zip(files, what)]
    assert not recwarn.list


def test_empty_instance_name_exits_two(tmp_path, capsys):
    ipath = write(tmp_path / "blank.instance.json",
                  '{"name": "", "starts": [[0, 0]], "targets": [[1, 0]], "obstacles": []}')
    out = tmp_path / "out.json"
    assert main(["solve", ipath, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {ipath}: instance file: ")
    assert not out.exists()


def test_validate_truncated_file_exits_two(line_files, tmp_path, capsys):
    ipath, spath = line_files
    bad = write(tmp_path / "cut.instance.json", Path(ipath).read_text()[:25])
    assert main(["validate", bad, spath]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, line_files, capsys):
    ipath, _ = line_files
    assert main(["validate", ipath, str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("command", ["validate", "solve", "generate", "score", "select"])
def test_non_utf8_file_exits_two(command, line_files, tmp_path, capsys):
    ipath, _ = line_files
    team = tmp_path / "team"
    team.mkdir()
    bad = team / "line.solution.json"
    bad.write_bytes(b"\xff\xfe")
    out = tmp_path / "out"
    argv = {
        "validate": ["validate", ipath, str(bad)],
        "solve": ["solve", str(bad), "-o", str(out)],
        "generate": ["generate", str(bad), str(out)],
        "score": ["score", "--instances", str(tmp_path), "--objective", "max",
                  "--output", str(out), str(team)],
        "select": ["select", str(bad), "-k", "1"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


@pytest.mark.parametrize("command, broken", [
    ("validate", "instance"),
    ("validate", "solution"),
    ("solve", "instance"),
    ("solve", "config"),
    ("generate", "config"),
    ("score", "instance"),
    ("score", "solution"),
    ("score", "unnamed solution"),
    ("render", "instance"),
    ("render", "solution"),
    ("features", "instance"),
    ("select", "features"),
])
def test_broken_input_file_is_named_once(command, broken, line_files, tmp_path, capsys):
    # a cut JSON file, or a config or CSV that does not parse: the message
    # starts with the path of the broken file, and names it only there
    ipath, spath = line_files
    text = {"instance": Path(ipath).read_text()[:25], "solution": Path(spath).read_text()[:30],
            "unnamed solution": "[]\n", "config": "no equals sign\n",
            "features": "name,n_robots\n"}[broken]
    instances, team = tmp_path / "instances", tmp_path / "team"
    for folder, good in ((instances, ipath), (team, spath)):
        folder.mkdir()
        shutil.copy(good, folder)
    if command == "score":   # break one file of a directory
        folder = instances if broken == "instance" else team
        bad = write(folder / f"line.{broken.split()[-1]}.json", text)
    else:
        bad = write(tmp_path / "broken.txt", text)
    out = str(tmp_path / "out")
    argv = {
        ("validate", "instance"): ["validate", bad, spath],
        ("validate", "solution"): ["validate", ipath, bad],
        ("solve", "instance"): ["solve", bad, "-o", out],
        ("solve", "config"): ["solve", ipath, "-o", out, "--config", bad],
        ("generate", "config"): ["generate", bad, out],
        ("render", "instance"): ["render", bad, out],
        ("render", "solution"): ["render", ipath, out, "--solution", bad],
        ("features", "instance"): ["features", bad],
        ("select", "features"): ["select", bad, "-k", "1"],
    }.get((command, broken), ["score", "--instances", str(instances), "--objective", "max",
                              "--output", out, str(team)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count(bad) == 1, err
    assert "Traceback" not in err and not os.path.exists(out)


DEEP = "[" * 200_000 + "]" * 200_000   # nested past any recursion limit
LONG = "1" + "0" * 4_999   # past the 4,300-digit int conversion limit
MALFORMED = {
    "deep": DEEP,
    "long coordinate": '{"name": "line", "starts": [[%s, 0]], "targets": [[2, 0]], '
                       '"obstacles": []}' % LONG,
    "long step": '{"instance": "line", "steps": [%s]}' % LONG,
    "far coordinate": '{"name": "line", "starts": [[%d, 0]], "targets": [[2, 0]], '
                      '"obstacles": []}' % 10 ** 400,
    "huge cell": f"{','.join(cli_module._FEATURE_COLUMNS)}\n"
                 f"{'a' * 200_000},1,0.1,0,0,100,99,1\n",
}


@pytest.mark.parametrize("command, role, malformed", [
    *((command, "instance", "deep") for command in ("validate", "solve", "render", "features")),
    *((command, "solution", "deep") for command in ("validate", "render", "score")),
    ("validate", "instance", "long coordinate"),
    ("validate", "solution", "long step"),
    ("select", "features", "huge cell"),
    *((command, "instance", "far coordinate") for command in ("solve", "render", "validate")),
])
def test_malformed_input_exits_two_naming_its_file(command, role, malformed, line_files,
                                                    tmp_path, capsys):
    # text that fails to decode (nesting too deep, an integer too long, a CSV
    # cell too large) or a coordinate too large to plan or draw: exit 2 with
    # the file named, never a traceback. Where ints decode at any length, the
    # long coordinate is refused by the coordinate bound instead.
    ipath, spath = line_files
    team = tmp_path / "team"
    team.mkdir()
    bad = write(team / "line.solution.json" if command == "score" else tmp_path / "bad.json",
                MALFORMED[malformed])
    out = str(tmp_path / "out")
    argv = {
        "validate": ["validate", *((bad, spath) if role == "instance" else (ipath, bad))],
        "solve": ["solve", bad, "-o", out],
        "render": ["render", *((bad, out) if role == "instance" else
                               (ipath, out, "--solution", bad))],
        "features": ["features", bad],
        "select": ["select", bad, "-k", "1"],
        "score": score_argv(tmp_path, team)[0],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.search(f"^error: {re.escape(bad)}: ", err, re.MULTILINE), err
    assert "Traceback" not in err


def score_argv(tmp_path, *teams):
    """A score command line over one solved instance, and its output directory."""
    instances = tmp_path / "instances"
    instances.mkdir(exist_ok=True)
    write(instances / "line.instance.json",
          emit_instance(make_instance([(0, 0)], [(2, 0)], name="line")))
    out = tmp_path / "scores"
    return ["score", "--instances", str(instances), "--objective", "max",
            "--output", str(out), *map(str, teams)], out


def test_score_rejects_a_missing_team_directory(tmp_path, capsys):
    team = tmp_path / "team"
    team.mkdir()
    write(team / "line.solution.json", emit_solution(schedule("line", "E", "E")))
    empty = tmp_path / "empty"
    empty.mkdir()
    argv, out = score_argv(tmp_path, team, empty)
    assert main(argv) == 0
    assert "empty: 0.0000 / 1" in capsys.readouterr().out
    shutil.rmtree(out)
    missing = tmp_path / "nosuchteam"
    argv, out = score_argv(tmp_path, team, missing)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {missing}: not a directory\n"
    assert not out.exists()
    # a solution naming an instance that is not there
    stray = write(empty / "x.solution.json", emit_solution(schedule("elsewhere", "E")))
    argv, out = score_argv(tmp_path, team, empty)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {stray}: unknown instance 'elsewhere'\n"
    assert not out.exists()
    # an instances directory without instances
    assert main(["score", "--instances", str(team), "--objective", "max",
                 "--output", str(out), str(team)]) == 2
    assert capsys.readouterr().err == f"error: no *.instance.json files in {team}\n"
    assert not out.exists()


def test_score_rejects_team_directories_with_one_name(tmp_path, capsys):
    # both would report as "team"; the later one used to replace the other
    first, second = tmp_path / "team", tmp_path / "other" / "team"
    for team, rows in ((first, "EE"), (second, "E.E")):
        team.mkdir(parents=True)
        write(team / "line.solution.json", emit_solution(schedule("line", *rows)))
    for teams in ((first, second), (second, first)):
        argv, out = score_argv(tmp_path, *teams)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: duplicate team name 'team' in {teams[0]} and {teams[1]}\n")
        assert not out.exists()


def test_score_decodes_each_team_solution_once(tmp_path, monkeypatch):
    # the instance a solution names is read off the same decoded object
    # that becomes its schedule; a second json.loads of the file is waste
    texts = {"team": emit_solution(schedule("line", "E", "E")),
             "other": emit_solution(schedule("line", "E", ".", "E"))}
    for team, text in texts.items():
        (tmp_path / team).mkdir()
        write(tmp_path / team / "line.solution.json", text)
    decoded = []
    real_loads = json.loads

    def counting_loads(text, *args, **kwargs):
        decoded.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    argv, out = score_argv(tmp_path, *(tmp_path / team for team in texts))
    assert main(argv) == 0
    assert [decoded.count(text) for text in texts.values()] == [1, 1]
    assert (out / "totals.csv").read_text().splitlines()[1:] == [
        "other,0.666667,1", "team,1.000000,1"]


# ----------------------------------------------------------------- solve

def test_solve_writes_solution_and_telemetry(line_files, tmp_path, capsys):
    ipath, _ = line_files
    out = tmp_path / "out.solution.json"
    tele = tmp_path / "telemetry.jsonl"
    assert main(["solve", ipath, "-o", str(out), "--telemetry", str(tele)]) == 0
    assert "solved line: max objective 2" in capsys.readouterr().out
    sched = parse_solution(out.read_text(), n_robots=1)
    assert sched.instance_name == "line" and len(sched.steps) == 2
    records = [json.loads(l) for l in tele.read_text().splitlines()]
    assert records[-1]["phase"] == "final"
    assert all(set(r) == {"time", "objective", "phase"} for r in records)


def test_solve_refuses_one_file_for_solution_and_telemetry(line_files, tmp_path, capsys,
                                                           monkeypatch):
    # the telemetry would overwrite the solution, so nothing is searched or written
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(cli_module, "solve", no_search)
    monkeypatch.chdir(tmp_path)
    ipath, _ = line_files
    out = tmp_path / "out.json"
    for tele in (str(out), "out.json", str(tmp_path / "." / "out.json")):
        assert main(["solve", ipath, "-o", str(out), "--telemetry", tele]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: named by both -o and --telemetry\n"
        assert not out.exists()


def test_solve_config_file_with_flag_overrides(line_files, tmp_path, monkeypatch):
    ipath, _ = line_files
    cfg = write(tmp_path / "solver.cfg", "objective = max\nrestarts = 2\nseed = 2\n")
    out = tmp_path / "out.solution.json"
    assert main(["solve", ipath, "-o", str(out), "--config", cfg,
                 "--objective", "sum", "--seed", "5"]) == 0
    assert out.exists()
    # the seed: the flag, then GRIDMOTION_SEED, then the file
    monkeypatch.setenv("GRIDMOTION_SEED", "7")
    argv = ["solve", ipath, "-o", str(out), "--config", cfg]
    assert solver_config_of(monkeypatch, argv).seed == 7
    assert solver_config_of(monkeypatch, [*argv, "--seed", "5"]).seed == 5


def test_solve_refuses_to_write_infeasible(tmp_path, capsys):
    free = [(0, 0), (1, 0), (2, 0), (1, 1)]
    stuck = make_instance([(0, 0), (2, 0)], [(2, 0), (0, 0)], seal(free),
                          name="stuck")
    ipath = write(tmp_path / "stuck.instance.json", emit_instance(stuck))
    out = tmp_path / "stuck.solution.json"
    assert main(["solve", ipath, "-o", str(out), "--restarts", "2",
                 "--anneal-iterations", "10"]) == 1
    assert not out.exists()
    assert "no schedule found" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["-o", "--telemetry"])
@pytest.mark.parametrize("name, message", [
    ("missing/out.json", "no such directory"),
    (".", "is a directory"),
])
def test_solve_checks_output_paths_before_solving(line_files, tmp_path, monkeypatch,
                                                  capsys, option, name, message):
    # a path that cannot be written exits 2 naming it, before any search
    # runs and before the other output is written
    ipath, _ = line_files
    bad = str(tmp_path / name)
    paths = {"-o": str(tmp_path / "out.solution.json"),
             "--telemetry": str(tmp_path / "telemetry.jsonl"), option: bad}
    called = []
    monkeypatch.setattr(cli_module, "solve", lambda *args: called.append(args))
    argv = ["solve", ipath] + [token for pair in paths.items() for token in pair]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}") and "Traceback" not in err
    assert called == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "line.instance.json", "line.solution.json"]


@pytest.mark.parametrize("command", ["render", "features", "select"])
@pytest.mark.parametrize("name, message", [
    ("missing/out.txt", "no such directory"),
    (".", "is a directory"),
])
def test_every_written_file_fails_like_solve_output(line_files, tmp_path, capsys,
                                                    command, name, message):
    # render, features -o and select -o name a path they cannot write as
    # solve names its -o
    ipath, _ = line_files
    feats = write(tmp_path / "features.csv",
                  ",".join(cli_module._FEATURE_COLUMNS) + "\nline,1,0.1,0,0,100,99,1\n")
    bad = str(tmp_path / name)
    argv = {"render": ["render", ipath, bad],
            "features": ["features", ipath, "-o", bad],
            "select": ["select", feats, "-k", "1", "-o", bad]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}") and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "score"])
@pytest.mark.parametrize("name", ["taken.txt", "taken.txt/out"])
def test_output_directory_blocked_by_a_file_exits_two(line_files, tmp_path, capsys,
                                                      command, name):
    # generate's and score's output directory may not be a file, nor lie
    # under one: both exit 2 naming the directory, not with an OSError
    ipath, spath = line_files
    write(tmp_path / "taken.txt", "a file\n")
    config = write(tmp_path / "grid.cfg", "map_width = 4\nmap_height = 4\ndensity = 0.2\n")
    team = tmp_path / "team"
    team.mkdir()
    shutil.copy(spath, team)
    bad = str(tmp_path / name)
    argv = {"generate": ["generate", config, bad],
            "score": ["score", "--instances", str(Path(ipath).parent), "--objective", "max",
                      "--output", bad, str(team)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not a directory\n"
    assert (tmp_path / "taken.txt").read_text() == "a file\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--restarts", "0", "restarts must be >= 1"),
    ("--anneal-iterations", "-5", "anneal_iterations must be >= 0"),
    ("--time-limit", "nan", "time_limit must be positive or None"),
])
def test_solve_rejects_bad_override(line_files, tmp_path, capsys, flag, value, message):
    ipath, _ = line_files
    out = tmp_path / "out.solution.json"
    assert main(["solve", ipath, "-o", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_solve_is_deterministic_for_fixed_seed(tmp_path):
    config = write(tmp_path / "one.cfg",
                   "map_width = 8\nmap_height = 8\ndensity = 0.2\nseed = 9\n")
    instances = tmp_path / "instances"
    main(["generate", config, str(instances)])
    (inst_file,) = instances.glob("*.instance.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["solve", str(inst_file), "-o", str(out), "--seed", "3",
                     "--anneal-iterations", "200"]) == 0
    assert a.read_text() == b.read_text()


# per SolverConfig field: a good text value, a bad one and the type it names
SOLVER_VALUES = {"objective": ("SUM", "median", "objective"),
                 "time_limit": ("2.5", "soon", "float"), "restarts": ("3", "x", "int"),
                 "anneal_iterations": ("17", "1.5", "int"), "seed": ("9", "x", "int")}


class _Stop(Exception):
    pass


def solver_config_of(monkeypatch, argv):
    """The SolverConfig that ``main(argv)`` hands the solver."""
    seen = []

    def fake_solve(instance, config):
        seen.append(config)
        raise _Stop

    monkeypatch.setattr(cli_module, "solve", fake_solve)
    with pytest.raises(_Stop):
        main(argv)
    return seen[0]


def flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("key", SOLVER_VALUES)
def test_solve_flag_reads_like_a_config_line(key, line_files, tmp_path, monkeypatch):
    ipath, _ = line_files
    monkeypatch.delenv("GRIDMOTION_SEED", raising=False)
    cfg = write(tmp_path / "solver.cfg", f"{key} = {SOLVER_VALUES[key][0]}\n")
    argv = ["solve", ipath, "-o", str(tmp_path / "out.json")]
    from_flag = solver_config_of(monkeypatch, [*argv, flag(key), SOLVER_VALUES[key][0]])
    from_file = solver_config_of(monkeypatch, [*argv, "--config", cfg])
    assert from_flag == from_file != solve_module.SolverConfig()


@pytest.mark.parametrize("key", SOLVER_VALUES)
def test_bad_solve_flag_names_its_key_like_a_config_line(key, line_files, tmp_path, capsys):
    ipath, _ = line_files
    _, bad, kind = SOLVER_VALUES[key]
    cfg = write(tmp_path / "solver.cfg", f"{key} = {bad}\n")
    argv = ["solve", ipath, "-o", str(tmp_path / "out.json")]
    message = f"solver config: bad {kind} value for '{key}': '{bad}'\n"
    assert main([*argv, flag(key), bad]) == 2
    assert capsys.readouterr().err == f"error: {message}"
    assert main([*argv, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}"
    assert not (tmp_path / "out.json").exists()


def test_time_limit_flag_none_lifts_a_config_limit(line_files, tmp_path, monkeypatch, capsys):
    ipath, _ = line_files
    cfg = write(tmp_path / "solver.cfg", "time_limit = 5\nrestarts = 2\n")
    argv = ["solve", ipath, "-o", str(tmp_path / "out.json"), "--config", cfg]
    assert solver_config_of(monkeypatch, argv).time_limit == 5.0
    for spelling in ("none", "None"):
        config = solver_config_of(monkeypatch, [*argv, "--time-limit", spelling])
        assert config.time_limit is None and config.restarts == 2
    # 0 is no spelling of "no limit", in a flag as in a file
    assert main([*argv, "--time-limit", "0"]) == 2
    assert "time_limit must be positive or None" in capsys.readouterr().err


def test_objective_flag_takes_any_case(line_files, tmp_path, capsys):
    ipath, spath = line_files
    out = tmp_path / "team" / "line.solution.json"
    out.parent.mkdir()
    assert main(["solve", ipath, "-o", str(out), "--objective", "MAX"]) == 0
    assert "max objective 2" in capsys.readouterr().out
    assert main(["validate", ipath, str(out), "--objective", "Sum"]) == 0
    assert "objective (sum): 2" in capsys.readouterr().out
    assert main(["score", "--instances", str(tmp_path), "--objective", "MAX",
                 "--output", str(tmp_path / "report"), str(out.parent)]) == 0
    assert "team: 1.0000 / 1" in capsys.readouterr().out
    assert main(["validate", ipath, spath, "--objective", "median"]) == 2
    assert "objective must be 'max' or 'sum'" in capsys.readouterr().err


def test_solve_help_lists_one_flag_per_config_field(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    listed = re.findall(r"^  (-[-\w]+)", capsys.readouterr().out, flags=re.M)
    settings = [f for f in listed if f not in ("-h", "-o", "--config", "--telemetry")]
    fields = dataclasses.fields(solve_module.SolverConfig)
    assert settings == [flag(f.name) for f in fields] == [flag(key) for key in SOLVER_VALUES]


# -------------------------------------------------------------- generate

def test_generate_select_writes_manifest(tmp_path):
    config = write(tmp_path / "batch.cfg", GRID_CONFIG)
    outdir = tmp_path / "instances"
    assert main(["generate", config, str(outdir), "--select", "2"]) == 0
    names = (outdir / "selected.txt").read_text().splitlines()
    assert len(names) == 2
    for name in names:
        assert (outdir / f"{name}.instance.json").exists()


def test_empty_selection_writes_an_empty_manifest(tmp_path, capsys):
    # one name per line, so selecting none gives no line, not a blank one
    config = write(tmp_path / "batch.cfg", GRID_CONFIG)
    outdir = tmp_path / "instances"
    assert main(["generate", config, str(outdir), "--select", "0"]) == 0
    assert (outdir / "selected.txt").read_text() == ""
    capsys.readouterr()
    files = sorted(str(f) for f in outdir.glob("*.instance.json"))
    feats = str(tmp_path / "features.csv")
    assert main(["features", *files, "-o", feats]) == 0
    manifest = tmp_path / "picks.txt"
    assert main(["select", feats, "-k", "0", "-o", str(manifest)]) == 0
    assert manifest.read_text() == ""
    capsys.readouterr()
    assert main(["select", feats, "-k", "0"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("k", ["-1", "6"])
def test_generate_rejects_bad_select_before_writing(tmp_path, capsys, k):
    config = write(tmp_path / "batch.cfg", GRID_CONFIG)
    outdir = tmp_path / "instances"
    assert main(["generate", config, str(outdir), "--select", k]) == 2
    err = capsys.readouterr().err
    assert f"cannot select {k} from 5 candidates" in err and "Traceback" not in err
    assert not outdir.exists()


def test_generate_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GRIDMOTION_SEED", "5")
    config = write(tmp_path / "one.cfg",
                   "map_width = 8\nmap_height = 8\ndensity = 0.1\n")
    outdir = tmp_path / "instances"
    assert main(["generate", config, str(outdir)]) == 0
    (name,) = [f.name for f in outdir.glob("*.instance.json")]
    assert "-s5-" in name


def test_bad_environment_seed_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRIDMOTION_SEED", "many")
    config = write(tmp_path / "one.cfg",
                   "map_width = 8\nmap_height = 8\ndensity = 0.1\n")
    assert main(["generate", config, str(tmp_path / "out")]) == 2
    assert "GRIDMOTION_SEED" in capsys.readouterr().err


def test_environment_seed_is_read_only_when_the_config_omits_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("GRIDMOTION_SEED", "many")
    config = write(tmp_path / "one.cfg",
                   "map_width = 8\nmap_height = 8\ndensity = 0.1\nseed = 4\n")
    assert main(["generate", config, str(tmp_path / "out")]) == 0
    (name,) = [f.name for f in (tmp_path / "out").glob("*.instance.json")]
    assert "-s4-" in name


def test_generate_rejects_duplicate_combos(tmp_path, capsys):
    outdir = tmp_path / "out"
    for seeds in ("1 1", "1 2 1"):
        config = write(tmp_path / "dup.cfg", "map_width = 8\nmap_height = 8\n"
                       f"density = 0.1\nseed = {seeds}\n")
        assert main(["generate", config, str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "duplicate parameter combination" in err and "Traceback" not in err
        # the duplicate is found before anything is written
        assert not list(outdir.glob("*.instance.json"))
        assert not (outdir / "features.csv").exists()
    # a valid config that cannot be generated exits 1, not 2
    config = write(tmp_path / "empty.cfg", "map_width = 3\nmap_height = 3\ndensity = 0.05\n")
    assert main(["generate", config, str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("generation failed:")


def test_generate_out_of_memory_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_module, "generate", out_of_memory)
    config = write(tmp_path / "batch.cfg", GRID_CONFIG)
    outdir = tmp_path / "out"
    assert main(["generate", config, str(outdir)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "generation failed: out of memory\n")
    assert not outdir.exists()


@pytest.mark.parametrize("raster", [
    "P5\n2 2 255\n\xff\x00\x10\x80",   # binary PGM
    "P2\n2 2 9\n0 0 0 0\n",               # no positive weight
], ids=["binary", "all-zero"])
def test_generate_rejects_bad_weight_map(tmp_path, capsys, raster):
    (tmp_path / "w.pgm").write_bytes(raster.encode("latin-1"))
    # the second config's first combination is fine: nothing is written
    # before every combination is generated
    for targets in ("weights:w.pgm", "uniform weights:w.pgm"):
        config = write(tmp_path / "w.cfg", "map_width = 8\nmap_height = 8\n"
                       f"density = 0.1\ntarget_distribution = {targets}\n")
        outdir = tmp_path / "out"
        assert main(["generate", config, str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: generator config: ") and "w.pgm" in err
        assert not list(outdir.glob("*.instance.json"))
        assert not (outdir / "features.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("density", "nan"),
    ("obstacle_size_mean", "nan"),
    ("obstacle_size_mean", "inf"),
    ("obstacle_size_stddev", "inf"),
    ("obstacle_size_stddev", "nan"),   # once generated as if it were 0
    ("cluster_size_mean", "inf"),
    ("cluster_size_stddev", "nan"),
])
def test_generate_rejects_non_finite_values(tmp_path, capsys, key, value):
    settings = {"map_width": "8", "map_height": "8", "density": "0.1",
                "obstacle_count": "2", "cluster_count": "1", key: value}
    config = write(tmp_path / "nf.cfg", "".join(f"{k} = {v}\n" for k, v in settings.items()))
    outdir = tmp_path / "out"
    assert main(["generate", config, str(outdir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: generator config: {key} must be finite, got {float(value)!r}\n")
    assert not outdir.exists()


def test_strict_mode_rejects_unknown_config_keys(tmp_path, capsys):
    config = write(tmp_path / "odd.cfg",
                   "map_width = 8\nmap_height = 8\ndensity = 0.1\nnoise = 1\n")
    assert main(["generate", config, str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == (
        f"warning: {config}: generator config: unknown key(s) 'noise'\n")
    assert main(["--strict", "generate", config, str(tmp_path / "b")]) == 2


@pytest.mark.parametrize("seed_line, environment", [
    ("seed = 4 -1\n", None), ("", "-3")], ids=["config", "environment"])
def test_negative_generator_seed_exits_two(tmp_path, monkeypatch, capsys,
                                          seed_line, environment):
    if environment is None:
        monkeypatch.delenv("GRIDMOTION_SEED", raising=False)
    else:
        monkeypatch.setenv("GRIDMOTION_SEED", environment)
    config = write(tmp_path / "neg.cfg",
                   "map_width = 8\nmap_height = 8\ndensity = 0.1\n" + seed_line)
    outdir = tmp_path / "out"
    assert main(["generate", config, str(outdir)]) == 2
    seed = environment or "-1"
    assert capsys.readouterr().err == (
        f"error: {config}: generator config: seed must be >= 0, got {seed}\n")
    assert not outdir.exists()


def test_generate_takes_a_huge_finite_stddev(tmp_path):
    # most obstacle side draws overflow to infinity before they are clamped
    config = write(tmp_path / "wide.cfg", "map_width = 8\nmap_height = 8\ndensity = 0.1\n"
                   "obstacle_count = 3\nobstacle_size_stddev = 1e308\nseed = 1 2 3 4 5 6\n")
    assert main(["generate", config, str(tmp_path / "out")]) == 0
    assert len(list((tmp_path / "out").glob("*.instance.json"))) == 6


# ------------------------------------------------- features / select / render

def test_features_to_stdout_and_select_roundtrip(tmp_path, capsys):
    config = write(tmp_path / "batch.cfg", GRID_CONFIG)
    outdir = tmp_path / "instances"
    main(["generate", config, str(outdir)])
    capsys.readouterr()
    files = sorted(str(f) for f in outdir.glob("*.instance.json"))
    assert main(["features", *files]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0].startswith("name,n_robots,density,")
    assert len(lines) == 6

    feats = write(tmp_path / "features.csv", text)
    manifest = tmp_path / "picks.txt"
    assert main(["select", feats, "-k", "3", "-o", str(manifest)]) == 0
    assert len(manifest.read_text().splitlines()) == 3
    assert main(["select", feats, "-k", "99"]) == 2
    capsys.readouterr()
    assert main(["select", feats, "-k", "-1"]) == 2
    err = capsys.readouterr().err
    assert "cannot select -1 from 5 candidates" in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("name,n_robots,density\na,1,0.1\n", "unexpected header"),
    ("{header}\na,1,0.1,0,0,100,99\n", "bad row: 7 cells, expected 8"),
    ("{header}\na,1,0.1,0,0,100,99,1\nb,1,dense,0,0,100,99,1\n", "bad row: could not"),
    ("{header}\na,1,nan,0,0,100,99,1\n", "bad row: density must be finite, got 'nan'"),
    ("{header}\na,1,inf,0,0,100,99,1\n", "bad row: density must be finite, got 'inf'"),
    ("{header}\na,1,0.1,0,0,100,99,2\n",
     "bad row: cluster_info_known must be 0 or 1, got '2'"),
], ids=["header", "short-row", "non-numeric", "nan", "inf", "flag-2"])
def test_select_rejects_bad_features_csv(tmp_path, capsys, text, message):
    header = "name,n_robots,density,n_clusters,n_clustered_robots,volume,free_area," \
             "cluster_info_known"
    feats = write(tmp_path / "features.csv", text.format(header=header))
    assert main(["select", feats, "-k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {feats}: features CSV: ") and message in err


def test_render_writes_svg(line_files, tmp_path, capsys):
    ipath, spath = line_files
    out = tmp_path / "line.svg"
    assert main(["render", ipath, str(out), "--solution", spath,
                 "--frame-every", "2"]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "#2e8b57" in svg


def test_render_rejects_zero_frame_every(line_files, tmp_path, capsys):
    ipath, spath = line_files
    out = tmp_path / "line.svg"
    with pytest.raises(SystemExit) as exit_info:
        main(["render", ipath, str(out), "--solution", spath, "--frame-every", "0"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--frame-every: must be >= 1" in err and "Traceback" not in err
    assert not out.exists()


def test_render_notes_infeasible_solution(tmp_path, capsys):
    free = [(0, 0), (1, 0)]
    swap = make_instance([(0, 0), (1, 0)], [(1, 0), (0, 0)], seal(free),
                         name="swap")
    ipath = write(tmp_path / "swap.instance.json", emit_instance(swap))
    spath = write(tmp_path / "swap.solution.json",
                  emit_solution(schedule("swap", "EW")))
    out = tmp_path / "swap.svg"
    assert main(["render", ipath, str(out), "--solution", str(spath)]) == 0
    assert "rendering infeasible schedule" in capsys.readouterr().err
    assert "#ff0000" in out.read_text()


# ----------------------------------------------------------------- misc

COMMANDS = ("generate", "validate", "solve", "score", "render", "features", "select")


def exit_of(call, capsys):
    with pytest.raises(SystemExit) as exit_info:
        call()
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "render"], ["--strict"],
    ["bogus"], ["--strict", "bogus", "x"],
    *([command, "--help"] for command in COMMANDS),
    ["--strict", "render", "--help"],
    ["render", "in.json"], ["solve", "in.json"], ["score", "suite"], ["select", "f.csv"],
    ["validate", "in.json", "sol.json", "extra"],   # the top level reports the extra
    ["--strict", "render", "in.json", "out.svg", "--frame-every", "0"],
    ["--str", "render", "in.json"],
])
def test_main_prints_what_the_full_parser_prints(argv, capsys):
    # main parses every command line with build_parser(); each help and error
    # text is the seven-subcommand parser's, on each Python's argparse
    got = exit_of(lambda: main(argv), capsys)
    assert got == exit_of(lambda: cli_module.build_parser().parse_args(argv), capsys)
    assert "Traceback" not in got[2]


def test_one_parser_serves_consecutive_commands(line_files, tmp_path, capsys):
    # main parses every command line with the one parser built per process
    assert cli_module.build_parser() is cli_module.build_parser()
    ipath, spath = line_files
    assert main(["validate", ipath, spath]) == 0
    assert capsys.readouterr().out == (
        "feasible: True\nmakespan: 2  total_distance: 2\n"
        "lb_makespan: 2  lb_total: 2\nstretch_max: 1.0000  stretch_sum: 1.0000\n")
    out = tmp_path / "line.svg"
    assert main(["render", ipath, str(out), "--solution", spath]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text().startswith("<svg")
    # a parse keeps nothing of the subcommand parsed before it
    parser = cli_module.build_parser()
    parser.parse_args(["render", ipath, str(out), "--solution", spath])
    args = parser.parse_args(["validate", ipath, spath])
    assert sorted(vars(args)) == [
        "command", "func", "instance", "objective", "solution", "strict"]
    # an unknown command is told all seven
    code, _, err = exit_of(lambda: main(["bogus"]), capsys)
    assert code == 2 and re.search("invalid choice: 'bogus'.*" + ".*".join(COMMANDS), err)


def test_help_smoke_in_subprocess():
    # the child imports the same gridmotion as this process, also when the
    # suite found it through pytest's pythonpath rather than PYTHONPATH
    src = str(Path(run_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c",
                           "from gridmotion.cli import main_entry; main_entry()"],
                          input="", capture_output=True, text=True, env=env)
    assert proc.returncode == 2   # no subcommand given
    proc = subprocess.run([sys.executable, "-m", "gridmotion", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "render" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "gridmotion.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "generate" in proc.stdout
    # main() without argv reads the subcommand to build from sys.argv
    for command in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "gridmotion", command, "--help"],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith(f"usage: gridmotion {command} ")


def _child_env():
    """The environment of a child that imports the same gridmotion as this
    process."""
    src = str(Path(run_module.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_reading_scoring_and_rendering_import_no_numpy():
    # only the generator, and the cli that runs it, need numpy
    code = ("import sys\n"
            "import gridmotion.model, gridmotion.validate, gridmotion.solve\n"
            "import gridmotion.formats, gridmotion.evaluate, gridmotion.render\n"
            "print(sorted({'numpy', 'gridmotion.generate'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the address-space limit that keeps this solve small is Linux's")
def test_solve_out_of_memory_exits_one_without_traceback(tmp_path):
    # robots 10^11 cells apart: the solver's per-column tables cannot fit in
    # the child's 3 GB of address space; never run this without the limit
    import resource
    far = 10 ** 11
    ipath = write(tmp_path / "far.instance.json", emit_instance(make_instance(
        [(0, 0), (far, 0)], [(far, 0), (0, 0)], name="far")))
    out = tmp_path / "out.json"
    limit = 3 * 1024 ** 3
    proc = subprocess.run(
        [sys.executable, "-m", "gridmotion", "solve", ipath, "-o", str(out)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "no schedule found: out of memory on far\n"
    assert not out.exists()


def test_perfbench_span_targets_resolve_after_cli_import():
    # the traced benchmark wraps these functions by name after importing
    # gridmotion.cli; a rename or a module no longer imported breaks it there
    root = Path(__file__).resolve().parents[1]
    src = str(Path(run_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, str(root / "perfbench"), os.environ.get("PYTHONPATH"))))}
    code = ("import sys, gridmotion.cli, spans\n"
            "print([f'{m}.{f}' for m, f, _ in spans.TARGETS\n"
            "       if not callable(getattr(sys.modules.get(m), f, None))])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_perfbench_traced_solve_reads_its_spans(line_files, tmp_path):
    # the traced benchmark notes each plan_single call by its arguments; a
    # distance field passed by position reads there as a horizon, and
    # turning the spans into per-layer metrics then fails
    ipath, _ = line_files
    root = Path(__file__).resolve().parents[1]
    src = str(Path(run_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, str(root / "perfbench"), os.environ.get("PYTHONPATH"))))}
    code = ("import sys, gridmotion.cli, spans\n"
            "tracer = spans.Tracer()\n"
            "tracer.install()\n"
            "status = gridmotion.cli.main(sys.argv[1:])\n"
            "tracer.remove()\n"
            "metrics = spans.per_layer(tracer.spans, 1)\n"
            "print(status, metrics['solve.calls'] == 1,"
            " metrics['solve.plan_single.calls'] > 0)")
    argv = ["solve", ipath, "-o", str(tmp_path / "out.json"), "--anneal-iterations", "10"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True True"


@pytest.mark.skipif(shutil.which("gridmotion") is None,
                    reason="gridmotion console script not on PATH (package not installed)")
def test_console_script_help():
    proc = subprocess.run(["gridmotion", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "render" in proc.stdout


def test_console_script_entry_point_is_main_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["gridmotion"] == "gridmotion.cli:main_entry"
    assert run_module.main_entry is main_entry   # what python -m gridmotion runs
