"""Wire-format tests: JSON instance/solution files, the generator grid and
solver config readers, strict vs lenient handling, and a corrupted-file
corpus that must never parse."""

import itertools

import pytest

from conftest import make_instance, schedule
from gridmotion.formats import (
    FormatError,
    emit_instance,
    emit_solution,
    parse_generator_grid,
    parse_instance,
    parse_objective,
    parse_solution,
    parse_solver_config,
)
from gridmotion.generate import GeneratorParams
from gridmotion.model import Direction, Objective, Schedule
from gridmotion.solve import SolverConfig

REF = make_instance([(0, 0), (3, 3)], [(1, 0), (3, 4)], [(5, 5), (6, 5)],
                    name="ref")
REF_TEXT = emit_instance(REF)

REF_SOLUTION = schedule("ref", "E.", "..", ".N")
REF_SOLUTION_TEXT = emit_solution(REF_SOLUTION)


# ------------------------------------------------------------- instances

def test_instance_emit_layout_is_frozen():
    assert REF_TEXT == (
        '{\n'
        '  "name": "ref",\n'
        '  "starts": [[0, 0], [3, 3]],\n'
        '  "targets": [[1, 0], [3, 4]],\n'
        '  "obstacles": [[5, 5], [6, 5]]\n'
        '}\n'
    )


def test_instance_round_trip_identity():
    for inst in (
        REF,
        make_instance([(-3, -2)], [(4, 0)], name="negative"),
        make_instance([(0, 0)], [(0, 0)], [(9, 9)], name="already-there"),
    ):
        again = parse_instance(emit_instance(inst), strict=True)
        assert again == inst
        assert emit_instance(again) == emit_instance(inst)


def test_instance_obstacle_order_is_canonical():
    a = make_instance([(0, 0)], [(1, 1)], [(2, 2), (0, 5), (2, 1)])
    b = make_instance([(0, 0)], [(1, 1)], [(2, 1), (2, 2), (0, 5)])
    assert emit_instance(a) == emit_instance(b)


def test_instance_unknown_key_lenient_warns_strict_raises():
    text = REF_TEXT.replace('  "name"', '  "comment": "hi",\n  "name"')
    with pytest.warns(UserWarning, match="unknown key"):
        assert parse_instance(text) == REF
    with pytest.raises(FormatError, match="unknown key"):
        parse_instance(text, strict=True)


def test_instance_boolean_coordinates_rejected():
    text = REF_TEXT.replace("[5, 5]", "[true, false]")
    with pytest.raises(FormatError, match="integer coordinates"):
        parse_instance(text)


def test_instance_semantic_errors_become_format_errors():
    dup = REF_TEXT.replace("[3, 3]", "[0, 0]")
    with pytest.raises(FormatError, match="distinct"):
        parse_instance(dup)
    on_obstacle = REF_TEXT.replace("[[5, 5], [6, 5]]", "[[0, 0]]")
    with pytest.raises(FormatError, match="obstacle"):
        parse_instance(on_obstacle)


# ------------------------------------------------------------- solutions

def test_solution_emit_layout_is_frozen():
    assert REF_SOLUTION_TEXT == (
        '{\n'
        '  "instance": "ref",\n'
        '  "steps": [\n'
        '    {"0": "E"},\n'
        '    {},\n'
        '    {"1": "N"}\n'
        '  ]\n'
        '}\n'
    )


def test_solution_round_trip_restores_waits():
    parsed = parse_solution(REF_SOLUTION_TEXT, n_robots=2, strict=True)
    assert parsed == REF_SOLUTION
    assert parsed.steps[1] == (Direction.WAIT, Direction.WAIT)


def test_direction_letters_round_trip():
    for d, letter in zip((Direction.NORTH, Direction.SOUTH, Direction.EAST,
                          Direction.WEST), "NSEW"):
        sched = Schedule("x", ((Direction.WAIT, d),))
        text = emit_solution(sched)
        assert f'{{"1": "{letter}"}}' in text
        assert parse_solution(text, n_robots=2, strict=True) == sched
    # WAIT has no letter: it is encoded by omission
    assert '{}' in emit_solution(Schedule("x", ((Direction.WAIT,),)))
    with pytest.raises(FormatError, match="step 0: unknown direction letter: 'Q'"):
        parse_solution(REF_SOLUTION_TEXT.replace('"E"', '"Q"'), n_robots=2)


def test_empty_solution_round_trip():
    empty = schedule("ref")
    text = emit_solution(empty)
    assert text == '{\n  "instance": "ref",\n  "steps": []\n}\n'
    assert parse_solution(text, n_robots=2) == empty


def test_solution_robot_keys_must_be_canonical_decimals():
    for bad in ('"01"', '"-1"', '"1.0"', '" 1"', '"one"'):
        text = REF_SOLUTION_TEXT.replace('"1"', bad)
        with pytest.raises(FormatError):
            parse_solution(text, n_robots=2)


def test_solution_rejects_out_of_range_robot_and_bad_moves():
    with pytest.raises(FormatError, match="out of range"):
        parse_solution(REF_SOLUTION_TEXT, n_robots=1)
    for bad in ('"X"', '"EE"', '5', 'null'):
        text = REF_SOLUTION_TEXT.replace('"E"', bad)
        with pytest.raises(FormatError):
            parse_solution(text, n_robots=2)



def test_solution_entry_errors_keep_their_text_and_order():
    def error(step1, n_robots=2):
        with pytest.raises(FormatError) as err:
            parse_solution({"instance": "ref", "steps": [{"0": "E"}, step1]}, n_robots)
        return str(err.value)

    at = "solution file: step 1: "
    for key in ("01", "+1", " 1", "-0", "\u0661", 1, True):
        assert error({key: "N"}) == f"{at}robot index {key!r} is not a canonical decimal string"
    assert error({"2": "N"}) == f"{at}robot index 2 out of range (instance has 2 robots)"
    assert error({"3": "N"}, 3) == f"{at}robot index 3 out of range (instance has 3 robots)"
    for letter in (None, 5, ["N"]):
        assert error({"1": letter}) == f"{at}move must be a string"
    for letter in ("X", "n", "", "NN"):
        assert error({"1": letter}) == f"{at}unknown direction letter: {letter!r}"
    # within an entry the key is checked first; across entries, the first bad one reports
    assert error({"1": "N", "7": "Q"}) == f"{at}robot index 7 out of range (instance has 2 robots)"
    assert error({"01": None}) == f"{at}robot index '01' is not a canonical decimal string"
    assert error({"1": "Q", "01": "N"}) == f"{at}unknown direction letter: 'Q'"
    with pytest.raises(FormatError, match="^solution file: step 0: robot index '01' is not"):
        parse_solution('{"instance": "ref", "steps": [{"1": "N", "01": "Q"}]}', 2)

def test_solution_unknown_key_modes():
    text = REF_SOLUTION_TEXT.replace('  "instance"', '  "extra": 1,\n  "instance"')
    with pytest.warns(UserWarning, match="unknown key"):
        parse_solution(text, n_robots=2)
    with pytest.raises(FormatError, match="unknown key"):
        parse_solution(text, n_robots=2, strict=True)


# ------------------------------------------------------ corrupted corpus

def _truncations(text, count):
    usable = len(text) - 2   # keep the final brace missing
    step = max(1, usable // count)
    return [text[:k] for k in range(4, usable, step)][:count]


INSTANCE_MUTATIONS = [
    REF_TEXT.replace('"starts"', '"sterts"'),
    REF_TEXT.replace('"targets"', '"target"'),
    REF_TEXT.replace('"obstacles": [[5, 5], [6, 5]]', '"obstacles": 7'),
    REF_TEXT.replace('"starts": [[0, 0], [3, 3]]', '"starts": [[0, 0], [3, 3, 3]]'),
    REF_TEXT.replace("[0, 0]", "[0]"),
    REF_TEXT.replace("[1, 0]", '[1, "0"]'),
    REF_TEXT.replace("[3, 4]", "[3, 4.0]"),
    REF_TEXT.replace("[6, 5]", "[null, 5]"),
    REF_TEXT.replace('"ref"', "42"),
    REF_TEXT.replace('"targets": [[1, 0], [3, 4]]', '"targets": [[1, 0]]'),
    "[]\n",
    '"just a string"\n',
    REF_TEXT.replace("{", "[", 1),
]

SOLUTION_MUTATIONS = [
    REF_SOLUTION_TEXT.replace('"steps"', '"step"'),
    REF_SOLUTION_TEXT.replace('"instance": "ref"', '"instance": 3'),
    REF_SOLUTION_TEXT.replace('{"0": "E"}', '["0", "E"]'),
    REF_SOLUTION_TEXT.replace('"steps": [', '"steps": {').replace("  ]", "  }"),
    REF_SOLUTION_TEXT.replace('"E"', '"east"'),
    REF_SOLUTION_TEXT.replace('"1"', '"02"'),
    REF_SOLUTION_TEXT.replace('"1": "N"', '"7": "N"'),
    "{}\n",
]


def test_corrupted_instance_corpus_never_parses():
    corpus = _truncations(REF_TEXT, 40) + INSTANCE_MUTATIONS
    assert len(corpus) >= 50
    for i, text in enumerate(corpus):
        with pytest.raises(FormatError):
            parse_instance(text, strict=True)
        # structural damage is rejected in lenient mode too
        if i < 40:
            with pytest.raises(FormatError):
                parse_instance(text)


def test_corrupted_solution_corpus_never_parses():
    corpus = _truncations(REF_SOLUTION_TEXT, 30) + SOLUTION_MUTATIONS
    for text in corpus:
        with pytest.raises(FormatError):
            parse_solution(text, n_robots=2, strict=True)


# ------------------------------------------------------- generator grids

def test_grid_minimal_config_single_combo():
    combos = parse_generator_grid(
        "map_width = 8\nmap_height = 8\ndensity = 0.1\n", default_seed=lambda: 7)
    assert combos == [GeneratorParams(map_width=8, map_height=8, density=0.1,
                                      seed=7)]


def test_grid_cartesian_expansion_order():
    text = (
        "map_width = 8 10\n"
        "map_height = 6\n"
        "density = 0.1 0.2\n"
        "seed = 1 2 3\n"
    )
    combos = parse_generator_grid(text)
    assert len(combos) == 12
    got = [(p.map_width, p.density, p.seed) for p in combos]
    assert got == list(itertools.product((8, 10), (0.1, 0.2), (1, 2, 3)))


def test_grid_comments_and_blank_lines_ignored():
    text = (
        "# instance batch for the density sweep\n"
        "\n"
        "map_width = 12   # pixels\n"
        "map_height = 12\n"
        "density = 0.05\n"
    )
    (combo,) = parse_generator_grid(text)
    assert combo.map_width == 12 and combo.density == 0.05


def test_grid_structural_errors():
    with pytest.raises(FormatError, match="required"):
        parse_generator_grid("map_width = 8\nmap_height = 8\n")
    with pytest.raises(FormatError, match="expected 'key"):
        parse_generator_grid("map_width 8\n")
    with pytest.raises(FormatError, match="duplicate"):
        parse_generator_grid("map_width = 8\nmap_width = 9\n"
                             "map_height = 8\ndensity = 0.1\n")
    with pytest.raises(FormatError, match="empty key or value"):
        parse_generator_grid("map_width =\nmap_height = 8\ndensity = 0.1\n")
    with pytest.raises(FormatError, match="bad int"):
        parse_generator_grid("map_width = eight\nmap_height = 8\ndensity = 0.1\n")


def test_grid_rejects_out_of_range_parameters():
    with pytest.raises(FormatError):
        parse_generator_grid("map_width = 8\nmap_height = 8\ndensity = 1.5\n")


def test_grid_unknown_key_modes():
    text = "map_width = 8\nmap_height = 8\ndensity = 0.1\nflavor = spicy\n"
    with pytest.warns(UserWarning, match="unknown key"):
        combos = parse_generator_grid(text)
    assert len(combos) == 1
    with pytest.raises(FormatError, match="unknown key"):
        parse_generator_grid(text, strict=True)


# --------------------------------------------------------- solver config

def test_solver_config_defaults_from_empty_file():
    assert parse_solver_config("") == SolverConfig()


def test_solver_config_full_file():
    text = (
        "objective = SUM\n"
        "time_limit = 2.5\n"
        "restarts = 6\n"
        "anneal_iterations = 1234\n"
        "seed = 9\n"
    )
    config = parse_solver_config(text)
    assert config == SolverConfig(objective=Objective.SUM, time_limit=2.5,
                                  restarts=6, anneal_iterations=1234, seed=9)


def test_solver_config_none_and_auto_spellings():
    for spelling in ("none", "NONE"):
        assert parse_solver_config(f"time_limit = {spelling}\n").time_limit is None
    # "auto" once meant no limit too; now it is a bad value
    with pytest.raises(FormatError, match="'auto'"):
        parse_solver_config("time_limit = auto\n")


def test_solver_config_errors():
    with pytest.raises(FormatError, match="single value"):
        parse_solver_config("restarts = 1 2\n")
    with pytest.raises(FormatError):
        parse_solver_config("restarts = 0\n")   # out of range
    with pytest.raises(FormatError):
        parse_solver_config("objective = median\n")
    with pytest.warns(UserWarning, match="unknown key"):
        parse_solver_config("verbosity = 3\n")
    with pytest.raises(FormatError, match="unknown key"):
        parse_solver_config("verbosity = 3\n", strict=True)


@pytest.mark.parametrize("key", ["horizon_factor", "anneal_initial_temp",
                                 "anneal_cooling", "k_replan"])
def test_solver_config_retired_horizon_factor_is_an_unknown_key(key):
    with pytest.warns(UserWarning, match=f"unknown key.*'{key}'"):
        assert parse_solver_config(f"{key} = 2.0\n") == SolverConfig()
    with pytest.raises(FormatError, match=f"unknown key.*'{key}'"):
        parse_solver_config(f"{key} = 2.0\n", strict=True)


def test_parse_objective_spellings():
    assert parse_objective("max") is Objective.MAX
    assert parse_objective("SUM") is Objective.SUM
    with pytest.raises(FormatError):
        parse_objective("avg")
