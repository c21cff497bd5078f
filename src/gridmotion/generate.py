"""Seeded random instance generation and diverse selection.

Pipeline for one instance:

  1. rasterize ``obstacle_count`` axis-aligned rectangles with truncated-normal
     side lengths at uniform anchors, clipped to the map;
  2. turn every free region that cannot reach the map exterior into obstacle
     (hole filling), so the remaining free space is one connected region;
  3. place robot clusters: one start and one target anchor per cluster from
     the configured distributions, robots packed into square windows around
     them, both doubled until both have room (``place_clusters`` returns
     the starts, the targets and the number of clusters placed);
  4. place the remaining robots by sampling starts and, independently,
     targets from the configured distributions.

The number of robots is round(density * free_area). Every draw comes from one
numpy Generator seeded from (seed, attempt), so generation is byte-for-byte
reproducible. A failure (exhausted support, unplaceable cluster) is retried
with the next attempt's seed up to a bound, but only if a reseed can change
it: a reseed redraws only obstacles and clusters, and no obstacle set lifts
the robot count above round(density * map area).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (UNIFORM, WEIGHT_PREFIX, GeneratorParams, Instance, InstanceFeatures, Pixel,
                    params_slug)
from .validate import cell_pixel, distance_map

_TRUNCNORM_DRAWS = 64     # resample budget: used up only on [1, 1]; landed draws took <= 59
_GENERATE_ATTEMPTS = 16   # attempt budget: 498 CHANGES.md ledger instances took 2-14


class GenerationError(RuntimeError):
    """Raised when instance generation fails for a seed after bounded retries."""


class WeightMapError(ValueError):
    """Raised when a weight map is malformed or weights no map pixel."""


@dataclass(frozen=True)
class GenerationResult:
    instance: Instance
    features: InstanceFeatures


def truncated_normal_int(rng: np.random.Generator, mean: float, stddev: float,
                         lo: int, hi: int) -> int:
    """Integer truncated normal: resample until the rounded draw lands in
    [lo, hi], then after a fixed budget clamp the last draw (the mean when
    stddev is 0, which draws nothing) into the bounds."""
    if lo > hi:
        raise ValueError(f"empty truncation interval [{lo}, {hi}]")
    value = mean
    for _ in range(_TRUNCNORM_DRAWS if stddev > 0 else 0):
        # clamped one past the bounds first, so an infinite draw rounds too
        value = min(hi + 1, max(lo - 1, rng.normal(mean, stddev)))
        if lo <= round(value) <= hi:
            return round(value)
    return round(min(hi, max(lo, value)))


def _rect_pixels(ax: int, ay: int, w: int, h: int,
                 map_width: int, map_height: int) -> set[Pixel]:
    """Pixels of a wxh rectangle anchored at (ax, ay), clipped to the map."""
    return {
        Pixel(x, y)
        for x in range(max(ax, 0), min(ax + w, map_width))
        for y in range(max(ay, 0), min(ay + h, map_height))
    }


def fill_enclosed(obstacles: frozenset[Pixel] | set[Pixel],
                  map_width: int, map_height: int) -> frozenset[Pixel]:
    """Add every free map pixel that cannot reach the map exterior through
    free pixels (4-neighborhood) to the obstacle set. Walks may leave the map
    boundary, so any free boundary pixel counts as connected. Obstacles must
    lie on the map: the pixels added are the cells that the
    :func:`distance_map` to the corner (-1, -1) of the free ring just
    outside the map finds cut off, all of them in its shadow."""
    obstacles = frozenset(obstacles)
    window = (-1, -1, map_width, map_height)
    reached = distance_map(obstacles, window, Pixel(-1, -1))
    return obstacles | {cell_pixel(window, c) for c, d in reached.shadow.items() if d < 0}


def place_obstacles(params: GeneratorParams, rng: np.random.Generator) -> frozenset[Pixel]:
    """Rasterize the obstacle rectangles and fill enclosed holes."""
    pixels: set[Pixel] = set()
    for _ in range(params.obstacle_count):
        w = truncated_normal_int(rng, params.obstacle_size_mean,
                                 params.obstacle_size_stddev, 1, params.map_width)
        h = truncated_normal_int(rng, params.obstacle_size_mean,
                                 params.obstacle_size_stddev, 1, params.map_height)
        ax = int(rng.integers(0, params.map_width))
        ay = int(rng.integers(0, params.map_height))
        pixels |= _rect_pixels(ax, ay, w, h, params.map_width, params.map_height)
    return fill_enclosed(pixels, params.map_width, params.map_height)


def load_weight_map(path) -> np.ndarray:
    """Parse an ASCII PGM ("P2") raster into a float array of shape
    (rows, cols), top row first."""
    # binary bytes decode to U+FFFD, so a binary PGM fails the checks below
    with open(path, "rb") as fh:
        text = fh.read().decode("ascii", errors="replace")
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise WeightMapError(f"{path}: not an ASCII PGM (P2) file")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        values = [int(t) for t in tokens[4:]]
    except (IndexError, ValueError):
        raise WeightMapError(f"{path}: malformed PGM header or payload") from None
    if w < 1 or h < 1:
        raise WeightMapError(f"{path}: bad PGM dimensions")
    if maxval < 1:
        raise WeightMapError(f"{path}: bad PGM maxval")
    if len(values) != w * h:
        raise WeightMapError(f"{path}: expected {w * h} samples, found {len(values)}")
    if any(v < 0 or v > maxval for v in values):
        raise WeightMapError(f"{path}: sample out of range")
    return np.array(values, dtype=float).reshape(h, w)


def scale_weights_to_map(raster: np.ndarray, map_width: int, map_height: int) -> np.ndarray:
    """Nearest-neighbor resample of a raster onto map pixels. Returns an array
    of shape (map_width, map_height) indexed [x][y]; raster row 0 maps to the
    top of the map (largest y)."""
    rows, cols = raster.shape
    # each map column's raster column, and each map row's raster row
    c = np.minimum(cols - 1, ((np.arange(map_width) + 0.5) * cols / map_width).astype(int))
    r = np.minimum(rows - 1, ((map_height - 1 - np.arange(map_height) + 0.5)
                              * rows / map_height).astype(int))
    return raster[np.ix_(r, c)].T


def resolve_distribution(spec: str, map_width: int, map_height: int,
                         base_dir=None) -> Optional[np.ndarray]:
    """None for the uniform distribution, else per-pixel weights scaled to the
    map. Relative weight-map paths resolve against ``base_dir``."""
    if spec == UNIFORM:
        return None
    path = spec[len(WEIGHT_PREFIX):]
    if base_dir is not None:
        path = os.path.join(base_dir, path)
    raster = load_weight_map(path)
    weights = scale_weights_to_map(raster, map_width, map_height)
    if not np.any(weights > 0):
        raise WeightMapError(f"weight map {path} has no positive weight on the map")
    return weights


def sample_positions(count: int, weights: Optional[np.ndarray],
                     forbidden: set[Pixel] | frozenset[Pixel],
                     columns: range, rows: range,
                     rng: np.random.Generator) -> list[Pixel]:
    """Draw ``count`` distinct free pixels from the given columns and rows
    of the map.

    weights None means uniform over eligible pixels; otherwise pixels are
    drawn proportional to their weight (weight-0 pixels are never chosen).
    Eligible support excludes ``forbidden`` (obstacles and already-placed
    same-role pixels). Raises GenerationError when the support is exhausted.
    """
    if count == 0:
        return []
    support = [
        (x, y)
        for x in columns
        for y in rows
        if (x, y) not in forbidden and (weights is None or weights[x, y] > 0)
    ]
    if count > len(support):
        raise GenerationError(
            f"cannot place {count} positions, only {len(support)} eligible pixels")
    if weights is None:
        idx = rng.choice(len(support), size=count, replace=False)
    else:
        p = np.array([weights[x, y] for x, y in support], dtype=float)
        idx = rng.choice(len(support), size=count, replace=False, p=p / p.sum())
    return [Pixel(*support[i]) for i in idx]


def _cluster_side_pixels(anchor: Pixel, side: int, size: int, forbidden: set[Pixel],
                         params: GeneratorParams,
                         rng: np.random.Generator) -> Optional[list[Pixel]]:
    """Uniformly pick ``size`` distinct eligible pixels from the side x side
    window centered on the anchor, or None when the window is too poor."""
    half = side // 2
    try:
        return sample_positions(
            size, None, forbidden,
            range(max(anchor.x - half, 0), min(anchor.x - half + side, params.map_width)),
            range(max(anchor.y - half, 0), min(anchor.y - half + side, params.map_height)),
            rng)
    except GenerationError:
        return None


def _cluster_pixels(params: GeneratorParams, size: int,
                    taken_s: set[Pixel], taken_t: set[Pixel],
                    start_weights: Optional[np.ndarray],
                    target_weights: Optional[np.ndarray],
                    rng: np.random.Generator) -> tuple[list[Pixel], list[Pixel]]:
    """The starts and the targets of one cluster of ``size`` robots around
    one anchor pair, clear of the pixels taken on each side."""
    columns, rows = range(params.map_width), range(params.map_height)
    anchor_s = sample_positions(1, start_weights, taken_s, columns, rows, rng)[0]
    anchor_t = sample_positions(1, target_weights, taken_t, columns, rows, rng)[0]
    side = math.ceil(math.sqrt(2 * size))
    while True:
        got_s = _cluster_side_pixels(anchor_s, side, size, taken_s, params, rng)
        got_t = _cluster_side_pixels(anchor_t, side, size, taken_t, params, rng)
        if got_s is not None and got_t is not None:
            return got_s, got_t
        if side >= 2 * max(params.map_width, params.map_height):   # the whole map
            raise GenerationError(f"no room on the map for a cluster of {size} robots")
        side *= 2


def place_clusters(params: GeneratorParams, n_robots: int,
                   obstacles: frozenset[Pixel],
                   start_weights: Optional[np.ndarray],
                   target_weights: Optional[np.ndarray],
                   rng: np.random.Generator) -> tuple[list[Pixel], list[Pixel], int]:
    """Place up to ``cluster_count`` robot clusters and return their starts,
    their targets and the number of clusters placed. Cluster sizes are
    truncated normals over [1, n_robots], clamped to the robots not yet
    placed; placement stops once none are left. Starts and targets are
    index-aligned: the i-th start placed pairs with the i-th target placed.

    A cluster samples one start anchor and one target anchor from the
    configured distributions, then packs its robots into square windows of
    side ceil(sqrt(2 * size)) centered on the anchors. While either window
    lacks room, both sides double; GenerationError is raised when the whole
    map has none, which ``generate`` never meets, as it leaves room for all.
    """
    starts: list[Pixel] = []
    targets: list[Pixel] = []
    n_clusters = 0
    while n_clusters < params.cluster_count and len(starts) < n_robots:
        size = min(truncated_normal_int(rng, params.cluster_size_mean,
                                        params.cluster_size_stddev, 1, n_robots),
                   n_robots - len(starts))
        got_s, got_t = _cluster_pixels(params, size, obstacles | set(starts),
                                       obstacles | set(targets),
                                       start_weights, target_weights, rng)
        starts += got_s
        targets += got_t
        n_clusters += 1
    return starts, targets, n_clusters


def generate(params: GeneratorParams, base_dir=None) -> GenerationResult:
    """Generate one instance and its features. Deterministic per params.
    A bad weight map raises WeightMapError (OSError when missing) before
    any draw."""
    start_weights = resolve_distribution(params.start_distribution, params.map_width,
                                         params.map_height, base_dir)
    target_weights = resolve_distribution(params.target_distribution, params.map_width,
                                          params.map_height, base_dir)
    volume = params.map_width * params.map_height
    reseeds_matter = ((params.obstacle_count or params.cluster_count)
                      and round(params.density * volume) >= 1)
    attempts = _GENERATE_ATTEMPTS if reseeds_matter else 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        rng = np.random.default_rng([params.seed, attempt])
        try:
            obstacles = place_obstacles(params, rng)
            free_area = volume - len(obstacles)
            n_robots = int(round(params.density * free_area))
            if n_robots < 1:
                raise GenerationError(
                    f"density {params.density} x free area {free_area} rounds to 0 robots")
            starts, targets, n_clusters = place_clusters(
                params, n_robots, obstacles, start_weights, target_weights, rng)
            n_clustered = len(starts)
            columns, rows = range(params.map_width), range(params.map_height)
            starts += sample_positions(n_robots - n_clustered, start_weights,
                                       obstacles | set(starts), columns, rows, rng)
            targets += sample_positions(n_robots - n_clustered, target_weights,
                                        obstacles | set(targets), columns, rows, rng)
            instance = Instance(name=params_slug(params), starts=tuple(starts),
                                targets=tuple(targets), obstacles=obstacles)
            features = InstanceFeatures(n_robots, n_robots / free_area, n_clusters,
                                        n_clustered, volume, free_area)
            return GenerationResult(instance=instance, features=features)
        except GenerationError as err:
            last_error = err
    raise GenerationError(
        f"generation failed after {attempts} attempt{'s' if attempts > 1 else ''} "
        f"for seed {params.seed}: {last_error}")


def select_diverse(candidates: Sequence[InstanceFeatures], k: int) -> list[int]:
    """Greedy farthest-point selection of ``k`` candidate indices.

    Features are min-max normalized per dimension (constant dimensions are
    dropped); distances are Euclidean. The first pick is the candidate with
    the most robots, later picks maximize the minimum distance to the already
    selected set. All ties break toward the lowest index, which makes the
    result deterministic and, for distinct feature vectors, independent of
    candidate order up to those tie-breaks.
    """
    if not 0 <= k <= len(candidates):
        raise ValueError(f"k must be in [0, {len(candidates)}], got {k}")
    if k == 0:
        return []
    matrix = np.array([c.vector() for c in candidates], dtype=float)
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    keep = hi > lo   # with no column kept, every distance is 0
    norm = (matrix[:, keep] - lo[keep]) / (hi[keep] - lo[keep])
    first = int(np.argmax(matrix[:, 0]))   # most robots, ties to lowest index
    selected = [first]
    min_dist = np.linalg.norm(norm - norm[first], axis=1)
    min_dist[first] = -1.0
    while len(selected) < k:
        pick = int(np.argmax(min_dist))
        selected.append(pick)
        dist = np.linalg.norm(norm - norm[pick], axis=1)
        np.minimum(min_dist, dist, out=min_dist)
        min_dist[pick] = -1.0
    return selected
