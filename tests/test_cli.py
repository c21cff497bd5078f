"""End-to-end command line tests. Everything runs in-process through
main(argv) against temp directories, apart from the launch checks: a
subprocess smoke test runs the CLI as ``python -m gridmotion``, a second
one runs the installed ``gridmotion`` console script and is skipped where
no such script is on PATH, and an entry-point check reads pyproject.toml
to confirm that the script and ``python -m`` call the same function."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_instance, schedule, seal
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


def test_validate_warns_on_name_mismatch(line_files, tmp_path, capsys):
    ipath, _ = line_files
    other = write(tmp_path / "other.solution.json",
                  emit_solution(schedule("elsewhere", "E", "E")))
    assert main(["validate", ipath, other]) == 0
    assert "warning: solution names instance 'elsewhere'" in capsys.readouterr().err


def test_validate_truncated_file_exits_two(line_files, tmp_path, capsys):
    ipath, spath = line_files
    bad = write(tmp_path / "cut.instance.json", open(ipath).read()[:25])
    assert main(["validate", bad, spath]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, line_files, capsys):
    ipath, _ = line_files
    assert main(["validate", ipath, str(tmp_path / "nope.json")]) == 2


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


def test_solve_config_file_with_flag_overrides(line_files, tmp_path):
    ipath, _ = line_files
    cfg = write(tmp_path / "solver.cfg", "objective = max\nrestarts = 2\n")
    out = tmp_path / "out.solution.json"
    assert main(["solve", ipath, "-o", str(out), "--config", cfg,
                 "--objective", "sum", "--seed", "5"]) == 0
    assert out.exists()


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


@pytest.mark.parametrize("flag, value, message", [
    ("--restarts", "0", "restarts must be >= 1"),
    ("--anneal-iterations", "-5", "anneal_iterations must be >= 0"),
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


# -------------------------------------------------------------- generate

def test_generate_select_writes_manifest(tmp_path):
    config = write(tmp_path / "batch.cfg", GRID_CONFIG)
    outdir = tmp_path / "instances"
    assert main(["generate", config, str(outdir), "--select", "2"]) == 0
    names = (outdir / "selected.txt").read_text().splitlines()
    assert len(names) == 2
    for name in names:
        assert (outdir / f"{name}.instance.json").exists()


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


def test_generate_rejects_duplicate_combos(tmp_path, capsys):
    config = write(tmp_path / "dup.cfg",
                   "map_width = 8\nmap_height = 8\ndensity = 0.1\nseed = 1 1\n")
    assert main(["generate", config, str(tmp_path / "out")]) == 2
    assert "duplicate parameter combination" in capsys.readouterr().err


def test_strict_mode_rejects_unknown_config_keys(tmp_path):
    config = write(tmp_path / "odd.cfg",
                   "map_width = 8\nmap_height = 8\ndensity = 0.1\nnoise = 1\n")
    with pytest.warns(UserWarning):
        assert main(["generate", config, str(tmp_path / "a")]) == 0
    assert main(["--strict", "generate", config, str(tmp_path / "b")]) == 2


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

def test_help_smoke_in_subprocess():
    proc = subprocess.run([sys.executable, "-c",
                           "from gridmotion.cli import main_entry; main_entry()"],
                          input="", capture_output=True, text=True)
    assert proc.returncode == 2   # no subcommand given
    proc = subprocess.run([sys.executable, "-m", "gridmotion", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "render" in proc.stdout


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
