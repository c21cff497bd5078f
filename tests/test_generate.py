import math
import random

import numpy as np
import pytest
from scipy import stats

import oracles
from gridmotion import generate as generate_module
from gridmotion.formats import emit_instance
from gridmotion.generate import (
    GenerationError,
    GeneratorParams,
    InstanceFeatures,
    _rect_pixels,
    extract_features,
    fill_enclosed,
    generate,
    load_weight_map,
    place_clusters,
    place_obstacles,
    params_slug,
    sample_positions,
    scale_weights_to_map,
    select_diverse,
    truncated_normal_int,
)
from gridmotion.model import Pixel


def cells(pixels):
    return {(p.x, p.y) for p in pixels}


# ---------------------------------------------------------------------------
# parameter validation and the truncated normal


def test_params_validation():
    GeneratorParams(map_width=5, map_height=5, density=1.0)
    with pytest.raises(ValueError):
        GeneratorParams(map_width=0, map_height=5, density=0.5)
    with pytest.raises(ValueError):
        GeneratorParams(map_width=5, map_height=5, density=0.0)
    with pytest.raises(ValueError):
        GeneratorParams(map_width=5, map_height=5, density=1.1)
    with pytest.raises(ValueError):
        GeneratorParams(map_width=5, map_height=5, density=0.5, obstacle_count=-1)
    with pytest.raises(ValueError):
        GeneratorParams(map_width=5, map_height=5, density=0.5,
                        start_distribution="gaussian")
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        GeneratorParams(map_width=5, map_height=5, density=0.5, seed=-1)
    for bad, message in (({"obstacle_size_stddev": -1.0}, "stddevs must be >= 0"),
                         ({"cluster_size_stddev": -0.5}, "stddevs must be >= 0"),
                         ({"obstacle_count": 1, "obstacle_size_mean": 0.0},
                          "obstacle_size_mean must be > 0"),
                         ({"cluster_count": 1, "cluster_size_mean": -2.0},
                          "cluster_size_mean must be > 0")):
        with pytest.raises(ValueError, match=message):
            GeneratorParams(map_width=5, map_height=5, density=0.5, **bad)


def test_truncated_normal_respects_bounds():
    rng = np.random.default_rng(0)
    draws = [truncated_normal_int(rng, 3.0, 2.5, 1, 8) for _ in range(3000)]
    assert min(draws) >= 1 and max(draws) <= 8
    assert len(set(draws)) > 3  # actually spread out


def test_truncated_normal_degenerate_cases():
    rng = np.random.default_rng(0)
    assert truncated_normal_int(rng, 4.2, 0.0, 1, 10) == 4
    # mean far outside the interval: the resample budget runs out, clamp
    assert truncated_normal_int(rng, 100.0, 0.0, 1, 10) == 10
    assert truncated_normal_int(rng, -5.0, 0.1, 1, 10) == 1
    with pytest.raises(ValueError):
        truncated_normal_int(rng, 3.0, 1.0, 5, 4)
    # most draws overflow to +-inf; they count as out of range, then clamp
    assert all(1 <= truncated_normal_int(rng, 3, 1e308, 1, 8) <= 8 for _ in range(50))


# ---------------------------------------------------------------------------
# obstacles and hole filling


def test_rect_pixels_rasterization():
    got = _rect_pixels(4, 4, 2, 3, 10, 10)
    assert cells(got) == {(x, y) for x in (4, 5) for y in (4, 5, 6)}


def test_rect_pixels_clipped_to_map():
    got = _rect_pixels(8, 8, 4, 4, 10, 10)
    assert cells(got) == {(x, y) for x in (8, 9) for y in (8, 9)}
    assert _rect_pixels(-2, 0, 2, 2, 10, 10) == set()


def test_obstacle_count_zero_is_empty():
    params = GeneratorParams(map_width=6, map_height=6, density=0.2)
    assert place_obstacles(params, np.random.default_rng(1)) == frozenset()


def test_fill_enclosed_noop_on_empty():
    assert fill_enclosed(set(), 8, 8) == frozenset()


def test_fill_enclosed_hollow_square():
    ring = {Pixel(x, y) for x in range(2, 5) for y in range(2, 5)} - {Pixel(3, 3)}
    filled = fill_enclosed(ring, 8, 8)
    assert cells(filled) == cells(ring) | {(3, 3)}


def test_fill_enclosed_wall_does_not_fill():
    # a full-width wall splits the map, but both halves reach the exterior
    wall = {Pixel(x, 3) for x in range(8)}
    assert fill_enclosed(wall, 8, 8) == frozenset(wall)


def test_fill_enclosed_matches_labeling_oracle():
    rng = random.Random(12)
    for _ in range(100):
        w, h = rng.randint(3, 12), rng.randint(3, 12)
        obstacles = {Pixel(rng.randrange(w), rng.randrange(h))
                     for _ in range(rng.randint(0, w * h // 2))}
        filled = fill_enclosed(obstacles, w, h)
        expected = cells(obstacles) | oracles.scipy_enclosed_cells(
            cells(obstacles), w, h)
        assert cells(filled) == expected
        assert oracles.scipy_free_space_connected(cells(filled), w, h)


def test_random_rectangles_can_enclose_a_pixel():
    # seed found by search: the rectangles form a ring around row y=5
    params = GeneratorParams(map_width=12, map_height=12, density=0.1,
                             obstacle_count=9, obstacle_size_mean=4.0,
                             obstacle_size_stddev=1.5, seed=108)
    filled = place_obstacles(params, np.random.default_rng(108))
    assert (5, 5) in cells(filled)
    assert oracles.scipy_free_space_connected(cells(filled), 12, 12)
    # the same rectangles without hole filling leave (5, 5) free
    raw = set()
    rng = np.random.default_rng(108)
    for _ in range(params.obstacle_count):
        w = truncated_normal_int(rng, 4.0, 1.5, 1, 12)
        h = truncated_normal_int(rng, 4.0, 1.5, 1, 12)
        ax = int(rng.integers(0, 12))
        ay = int(rng.integers(0, 12))
        raw |= _rect_pixels(ax, ay, w, h, 12, 12)
    assert (5, 5) not in cells(raw)
    assert (5, 5) in oracles.scipy_enclosed_cells(cells(raw), 12, 12)


# ---------------------------------------------------------------------------
# weight maps and sampling


def _pgm(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_load_weight_map_parses_p2(tmp_path):
    path = _pgm(tmp_path, "w.pgm", "P2\n# comment\n3 2 9\n1 2 3\n4 5 6\n")
    raster = load_weight_map(path)
    assert raster.shape == (2, 3)
    assert raster[0].tolist() == [1, 2, 3]    # top row first
    assert raster[1].tolist() == [4, 5, 6]


@pytest.mark.parametrize("text", [
    "P5\n2 2 9\n1 2 3 4\n",           # binary magic
    "P2\n2 2 9\n1 2 3\n",             # short payload
    "P2\n2 2 9\n1 2 3 4 5\n",         # long payload
    "P2\n2 2 9\n1 2 3 10\n",          # sample over maxval
    "P2\n0 2 9\n\n",                  # zero dimension
    "P2\n2 2\n1 2 3 4\n",             # missing maxval
    "P2\n2 x 9\n1 2 3 4\n",           # non-numeric header
])
def test_load_weight_map_rejects_malformed(tmp_path, text):
    path = _pgm(tmp_path, "bad.pgm", text)
    with pytest.raises(ValueError):
        load_weight_map(path)


def test_scale_weights_orientation():
    raster = np.array([[7.0], [3.0]])  # 2 rows, 1 column; 7 is the top row
    weights = scale_weights_to_map(raster, 1, 2)
    assert weights[0, 1] == 7.0   # largest y = top of the map
    assert weights[0, 0] == 3.0


def test_scale_weights_nearest_neighbor_upscale():
    raster = np.array([[1.0, 2.0], [3.0, 4.0]])
    weights = scale_weights_to_map(raster, 4, 4)
    assert weights[0, 0] == 3.0 and weights[3, 0] == 4.0
    assert weights[0, 3] == 1.0 and weights[3, 3] == 2.0


def test_scale_weights_matches_a_per_pixel_loop():
    # the reference reads each map pixel's raster cell with Python floats;
    # shapes include up- and downscales by ratios that are not integers
    rng = random.Random(5)
    for _ in range(300):
        rows, cols = rng.randint(1, 40), rng.randint(1, 40)
        width, height = rng.randint(1, 60), rng.randint(1, 60)
        raster = np.array([[rng.randint(0, 255) for _ in range(cols)] for _ in range(rows)],
                          dtype=float)
        expected = np.empty((width, height))
        for x in range(width):
            c = min(cols - 1, int((x + 0.5) * cols / width))
            for y in range(height):
                r = min(rows - 1, int((height - 1 - y + 0.5) * rows / height))
                expected[x, y] = raster[r, c]
        assert np.array_equal(scale_weights_to_map(raster, width, height), expected)


def test_sample_positions_count_zero():
    rng = np.random.default_rng(0)
    assert sample_positions(0, None, set(), range(4), range(4), rng) == []


def test_sample_positions_exhaustive_support():
    rng = np.random.default_rng(0)
    got = sample_positions(2, None, set(), range(2), range(1), rng)
    assert sorted(cells(got)) == [(0, 0), (1, 0)]
    with pytest.raises(GenerationError):
        sample_positions(3, None, set(), range(2), range(1), rng)


def test_sample_positions_respects_forbidden_and_distinct():
    rng = np.random.default_rng(7)
    forbidden = {Pixel(0, 0), Pixel(1, 1)}
    for _ in range(50):
        got = sample_positions(5, None, forbidden, range(3), range(3), rng)
        assert len(set(got)) == 5
        assert not (cells(got) & cells(forbidden))


def test_sample_positions_weight_support():
    # all weight on row y=2
    weights = np.zeros((5, 5))
    weights[:, 2] = 1.0
    rng = np.random.default_rng(3)
    for _ in range(40):
        got = sample_positions(3, weights, set(), range(5), range(5), rng)
        assert all(p.y == 2 for p in got)


def test_sample_positions_frequency_matches_weights():
    weights = np.zeros((3, 1))
    raw = {(0, 0): 1.0, (1, 0): 2.0, (2, 0): 5.0}
    for (x, y), v in raw.items():
        weights[x, y] = v
    rng = np.random.default_rng(2024)
    counts = {c: 0 for c in raw}
    n = 10_000
    for _ in range(n):
        p = sample_positions(1, weights, set(), range(3), range(1), rng)[0]
        counts[(p.x, p.y)] += 1
    total_w = sum(raw.values())
    observed = []
    expected = []
    for c, w in raw.items():
        prob = w / total_w
        mean = n * prob
        sigma = math.sqrt(n * prob * (1 - prob))
        assert abs(counts[c] - mean) <= 3 * sigma, (c, counts[c], mean)
        observed.append(counts[c])
        expected.append(mean)
    chi2 = stats.chisquare(observed, expected)
    assert chi2.pvalue > 1e-3


# ---------------------------------------------------------------------------
# clusters


def test_cluster_of_four_fits_initial_window():
    params = GeneratorParams(map_width=12, map_height=12, density=0.05,
                             cluster_count=1, cluster_size_mean=4.0,
                             cluster_size_stddev=0.0, seed=5)
    starts, targets, n_clusters = place_clusters(params, 4, frozenset(), None, None,
                                                 np.random.default_rng(5))
    assert n_clusters == 1
    assert len(starts) == len(targets) == 4
    # side ceil(sqrt(8)) = 3, so each group spans at most a 3x3 box
    for group in (starts, targets):
        xs = [p.x for p in group]
        ys = [p.y for p in group]
        assert max(xs) - min(xs) <= 2 and max(ys) - min(ys) <= 2


def test_cluster_window_grows_in_a_corridor():
    corridor_obs = frozenset(Pixel(x, y) for x in range(9) for y in (0, 2))
    params = GeneratorParams(map_width=9, map_height=3, density=0.5,
                             cluster_count=1, cluster_size_mean=4.0,
                             cluster_size_stddev=0.0, seed=3)
    starts, targets, _ = place_clusters(params, 4, corridor_obs, None, None,
                                        np.random.default_rng(3))
    assert len(starts) == 4
    # the initial 3x3 window clips to 3 cells, so each group spans more columns
    for group in (starts, targets):
        assert max(p.x for p in group) - min(p.x for p in group) >= 3
    assert all(p.y == 1 for p in starts)
    assert all(p.y == 1 for p in targets)


def test_cluster_of_size_one():
    params = GeneratorParams(map_width=6, map_height=6, density=0.05,
                             cluster_count=1, cluster_size_mean=1.0,
                             cluster_size_stddev=0.0, seed=1)
    starts, targets, _ = place_clusters(params, 3, frozenset(), None, None,
                                        np.random.default_rng(1))
    assert len(starts) == len(targets) == 1


def test_cluster_budget_clamps_to_robot_count():
    params = GeneratorParams(map_width=10, map_height=10, density=0.05,
                             cluster_count=3, cluster_size_mean=4.0,
                             cluster_size_stddev=0.0, seed=2)
    starts, _, _ = place_clusters(params, 5, frozenset(), None, None,
                                  np.random.default_rng(2))
    assert len(starts) <= 5


def test_cluster_placement_failure_raises(monkeypatch):
    # only two free pixels on the whole map, cluster needs four
    obstacles = frozenset(Pixel(x, y) for x in range(4) for y in range(4)
                          if (x, y) not in ((0, 0), (3, 3)))
    params = GeneratorParams(map_width=4, map_height=4, density=1.0,
                             cluster_count=1, cluster_size_mean=4.0,
                             cluster_size_stddev=0.0, seed=0)
    counts = []
    real_sample_positions = generate_module.sample_positions

    def recording(count, *args):
        counts.append(count)
        return real_sample_positions(count, *args)

    monkeypatch.setattr(generate_module, "sample_positions", recording)
    with pytest.raises(GenerationError):
        place_clusters(params, 4, obstacles, None, None,
                       np.random.default_rng(0))
    # no window has room, the whole map included, so no new anchors are drawn
    assert counts.count(1) == 2


@pytest.mark.parametrize("width, height, free", [
    (8, 8, ((0, 0), (7, 0), (0, 7), (7, 7))),
    (200, 1, ((0, 0), (1, 0), (198, 0), (199, 0))),
])
def test_cluster_window_grows_to_the_whole_map(width, height, free):
    # the four free pixels lie far apart, so only the whole-map window holds them
    obstacles = frozenset(Pixel(x, y) for x in range(width) for y in range(height)
                          if (x, y) not in free)
    params = GeneratorParams(map_width=width, map_height=height, density=1.0,
                             cluster_count=1, cluster_size_mean=4.0,
                             cluster_size_stddev=0.0, seed=0)
    starts, targets, n_clusters = place_clusters(params, 4, obstacles, None, None,
                                                 np.random.default_rng(0))
    assert n_clusters == 1
    assert cells(starts) == cells(targets) == set(free)


# ---------------------------------------------------------------------------
# the full pipeline


def test_generate_deterministic_and_exact_count():
    params = GeneratorParams(map_width=10, map_height=10, density=0.5, seed=9)
    a = generate(params)
    b = generate(params)
    assert emit_instance(a.instance) == emit_instance(b.instance)
    assert a.features == b.features
    assert a.instance.n_robots == 50      # round(0.5 * 100) on an empty map
    assert a.features.free_area == 100 and a.features.volume == 100


def test_generate_single_robot():
    params = GeneratorParams(map_width=4, map_height=4, density=1 / 16, seed=2)
    inst = generate(params).instance
    assert inst.n_robots == 1


def test_generate_robot_count_tracks_free_area():
    params = GeneratorParams(map_width=10, map_height=10, density=0.3,
                             obstacle_count=4, seed=13)
    result = generate(params)
    f = result.features
    assert f.free_area == 100 - len(result.instance.obstacles)
    assert result.instance.n_robots == round(params.density * f.free_area)
    assert f.n_robots == result.instance.n_robots


def test_generate_with_clusters_bookkeeping():
    params = GeneratorParams(map_width=12, map_height=12, density=0.2,
                             obstacle_count=2, cluster_count=2,
                             cluster_size_mean=3.0, cluster_size_stddev=1.0,
                             seed=21)
    result = generate(params)
    f = result.features
    assert 0 < f.n_clusters <= 2
    assert 0 < f.n_clustered_robots <= result.instance.n_robots
    assert f.cluster_info_known
    assert f.volume == 144 and f.free_area == 144 - len(result.instance.obstacles)


def test_generate_failure_when_density_rounds_to_zero(monkeypatch):
    # density x map area rounds to 0 robots, and obstacles only lower the
    # free area, so no reseed can change the failure and generation gives up
    # after one attempt, with obstacles drawn or not
    seeds = []
    real_default_rng = np.random.default_rng

    def recording(seed):
        seeds.append(seed)
        return real_default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    for params in (GeneratorParams(map_width=10, map_height=10, density=0.001, seed=0),
                   GeneratorParams(map_width=3, map_height=3, density=0.05,
                                   obstacle_count=3, seed=0)):
        seeds.clear()
        with pytest.raises(GenerationError, match="after 1 attempt for seed 0: "):
            generate(params)
        assert seeds == [[0, 0]]


def test_generate_failure_when_weight_support_too_small(tmp_path):
    pgm = tmp_path / "point.pgm"
    pgm.write_text("P2\n4 4 9\n" + " ".join(
        "9" if i == 5 else "0" for i in range(16)) + "\n", encoding="ascii")
    params = GeneratorParams(map_width=8, map_height=8, density=0.1,
                             start_distribution=f"weights:{pgm}", seed=4)
    # with no obstacle and no cluster every attempt sees the same support,
    # so there is no reattempt, whether the starts or the targets fail
    with pytest.raises(GenerationError, match="after 1 attempt for seed 4: "):
        generate(params)
    column = tmp_path / "column.pgm"
    column.write_text("P2\n1 3 9\n9 0 0\n", encoding="ascii")
    params = GeneratorParams(map_width=1, map_height=3, density=1.0,
                             target_distribution=f"weights:{column}")
    with pytest.raises(GenerationError, match="after 1 attempt for seed 0: cannot place "
                                              "3 positions, only 1 eligible pixels"):
        generate(params)


def test_generate_weighted_positions_land_in_support(tmp_path):
    # weight only on the left half of the map
    pgm = tmp_path / "half.pgm"
    pgm.write_text("P2\n2 1 1\n1 0\n", encoding="ascii")
    params = GeneratorParams(map_width=10, map_height=6, density=0.2,
                             start_distribution="weights:half.pgm", seed=8)
    inst = generate(params, base_dir=str(tmp_path)).instance
    assert all(p.x < 5 for p in inst.starts)
    assert any(p.x >= 5 for p in inst.targets)  # targets stayed uniform


def test_params_slug_is_stable_and_distinct():
    a = GeneratorParams(map_width=8, map_height=8, density=0.1, seed=1)
    b = GeneratorParams(map_width=8, map_height=8, density=0.1, seed=2)
    assert params_slug(a) == params_slug(a)
    assert params_slug(a) != params_slug(b)
    assert params_slug(a).startswith("g8x8-d0.1-")
    # names are file names: the slugs quoted in README and docs/FORMATS.md,
    # and one with every field off its default, must not drift
    pinned = {
        "g12x10-d0.08-o3-c0-s1-d827d8": GeneratorParams(
            map_width=12, map_height=10, density=0.08, obstacle_count=3, seed=1),
        "g10x8-d0.1-o2-c0-s1-bbd3d8": GeneratorParams(
            map_width=10, map_height=8, density=0.1, obstacle_count=2, seed=1),
        "g9x7-d0.25-o2-c1-s4-e70ea9": GeneratorParams(
            9, 7, 0.25, "weights:a.pgm", "weights:b.pgm", 2, 2.5, 0.5, 1, 3.0, 0.0, 4),
    }
    for slug, params in pinned.items():
        assert params_slug(params) == slug


# ---------------------------------------------------------------------------
# features


def test_extract_features_without_provenance():
    from conftest import make_instance
    inst = make_instance([(0, 0)], [(9, 9)])
    f = extract_features(inst)
    assert f.n_robots == 1 and f.volume == 100 and f.free_area == 100
    assert f.density == pytest.approx(0.01)
    assert f.n_clusters == 0 and not f.cluster_info_known

    obst = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    inst = make_instance([(0, 0)], [(9, 9)], obst)
    f = extract_features(inst)
    assert f.free_area == 94


def test_extract_features_bbox_fallback():
    from conftest import make_instance
    inst = make_instance([(2, 2)], [(5, 4)])
    f = extract_features(inst)
    assert f.volume == 4 * 3
    assert f.free_area == 12


# ---------------------------------------------------------------------------
# diverse selection


def _features(n, density, volume):
    return InstanceFeatures(n_robots=n, density=density, n_clusters=0,
                            n_clustered_robots=0, volume=volume,
                            free_area=volume)


def test_select_diverse_whole_set():
    cands = [_features(i + 1, 0.1 * (i + 1), 100) for i in range(4)]
    assert sorted(select_diverse(cands, 4)) == [0, 1, 2, 3]
    assert select_diverse(cands, 0) == []
    with pytest.raises(ValueError):
        select_diverse(cands, 5)


def test_select_diverse_collinear_extremes():
    # three feature points on a line, the middle one is never the pair
    cands = [_features(10, 0.1, 100), _features(20, 0.2, 100),
             _features(30, 0.3, 100)]
    picked = select_diverse(cands, 2)
    assert picked[0] == 2          # anchor: most robots
    assert sorted(picked) == [0, 2]


def test_select_diverse_anchor_tie_breaks_low_index():
    cands = [_features(30, 0.1, 100), _features(30, 0.9, 100),
             _features(5, 0.5, 100)]
    assert select_diverse(cands, 1) == [0]


def test_select_diverse_invariant_under_permutation():
    rng = random.Random(99)
    cands = [_features(rng.randint(1, 500), rng.random(),
                       rng.randint(50, 5000)) for _ in range(30)]
    base = set(select_diverse(cands, 8))
    order = list(range(30))
    rng.shuffle(order)
    permuted = [cands[i] for i in order]
    picked = {order[i] for i in select_diverse(permuted, 8)}
    assert picked == base


def _normalized_matrix(cands):
    m = np.array([c.vector() for c in cands])
    lo, hi = m.min(axis=0), m.max(axis=0)
    keep = hi > lo
    return (m[:, keep] - lo[keep]) / (hi[keep] - lo[keep])


def _min_pairwise(norm, idx):
    best = math.inf
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            best = min(best, float(np.linalg.norm(norm[idx[a]] - norm[idx[b]])))
    return best


def test_select_diverse_beats_random_subsets():
    rng = random.Random(5150)
    cands = [_features(rng.randint(1, 400), rng.random(),
                       rng.randint(100, 4000)) for _ in range(60)]
    norm = _normalized_matrix(cands)
    picked = select_diverse(cands, 10)
    ours = _min_pairwise(norm, picked)
    baseline = []
    for _ in range(100):
        baseline.append(_min_pairwise(norm, rng.sample(range(60), 10)))
    assert ours >= sorted(baseline)[50]
