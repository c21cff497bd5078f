"""Seeded random instance generation, feature extraction and diverse selection.

Pipeline for one instance:

  1. rasterize ``obstacle_count`` axis-aligned rectangles with truncated-normal
     side lengths at uniform anchors, clipped to the map;
  2. turn every free region that cannot reach the map exterior into obstacle
     (hole filling), so the remaining free space is one connected region;
  3. place robot clusters: paired start/target anchors drawn from the
     configured distributions, robots packed into square windows around the
     anchors, windows doubled while placement fails;
  4. place the remaining robots by sampling starts and, independently,
     targets from the configured distributions.

The number of robots is round(density * free_area). Every draw comes from one
numpy Generator seeded from (seed, attempt), so generation is byte-for-byte
reproducible. Failures (exhausted support, unplaceable cluster) trigger a
bounded number of deterministic reattempts before an error is raised.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import Instance, Pixel
from .validate import distance_map

_TRUNCNORM_DRAWS = 64     # resample budget before clamping into the bounds
_CLUSTER_WINDOW_RETRIES = 6   # doublings of the window side before new anchors
_CLUSTER_ANCHOR_RETRIES = 8
_GENERATE_ATTEMPTS = 16   # deterministic reseeds before giving up

UNIFORM = "uniform"
WEIGHT_PREFIX = "weights:"


class GenerationError(RuntimeError):
    """Raised when instance generation fails for a seed after bounded retries."""


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for one generated instance.

    density is the fraction of free pixels occupied by robots (0 < d <= 1).
    Distributions are either "uniform" or "weights:<path>" naming a grayscale
    raster whose values weight the map pixels. Obstacle side lengths and
    cluster sizes are truncated normals; obstacle sides truncate to
    [1, map dimension], cluster sizes to [1, n_robots].
    """

    map_width: int
    map_height: int
    density: float
    start_distribution: str = UNIFORM
    target_distribution: str = UNIFORM
    obstacle_count: int = 0
    obstacle_size_mean: float = 3.0
    obstacle_size_stddev: float = 1.0
    cluster_count: int = 0
    cluster_size_mean: float = 4.0
    cluster_size_stddev: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.map_width < 1 or self.map_height < 1:
            raise ValueError("map dimensions must be >= 1")
        if not (0.0 < self.density <= 1.0):
            raise ValueError("density must be in (0, 1]")
        if self.obstacle_count < 0 or self.cluster_count < 0:
            raise ValueError("counts must be >= 0")
        if self.obstacle_size_stddev < 0 or self.cluster_size_stddev < 0:
            raise ValueError("stddevs must be >= 0")
        if self.obstacle_count and self.obstacle_size_mean <= 0:
            raise ValueError("obstacle_size_mean must be > 0")
        if self.cluster_count and self.cluster_size_mean <= 0:
            raise ValueError("cluster_size_mean must be > 0")
        for spec in (self.start_distribution, self.target_distribution):
            if spec != UNIFORM and not spec.startswith(WEIGHT_PREFIX):
                raise ValueError(f"unknown distribution spec: {spec!r}")


@dataclass(frozen=True)
class InstanceFeatures:
    """Measured properties used for reporting and diverse selection.

    ``vector()`` fixes the feature order for distance computations:
    (n_robots, density, n_clusters, n_clustered_robots, volume, free_area).
    ``cluster_info_known`` is False for instances without generator
    provenance; their cluster fields are reported as 0.
    """

    n_robots: int
    density: float
    n_clusters: int
    n_clustered_robots: int
    volume: int
    free_area: int
    cluster_info_known: bool = True

    def vector(self) -> tuple[float, ...]:
        return (
            float(self.n_robots),
            float(self.density),
            float(self.n_clusters),
            float(self.n_clustered_robots),
            float(self.volume),
            float(self.free_area),
        )


@dataclass(frozen=True)
class GenerationInfo:
    """Bookkeeping from one successful generation run."""

    params: GeneratorParams
    n_clusters: int
    n_clustered_robots: int
    window_retries: int


@dataclass(frozen=True)
class GenerationResult:
    instance: Instance
    info: GenerationInfo
    features: InstanceFeatures


def truncated_normal_int(rng: np.random.Generator, mean: float, stddev: float,
                         lo: int, hi: int) -> int:
    """Integer truncated normal: resample until the rounded draw lands in
    [lo, hi], clamping after a fixed budget. stddev 0 degenerates to the
    clamped rounded mean."""
    if lo > hi:
        raise ValueError(f"empty truncation interval [{lo}, {hi}]")
    value = mean
    for _ in range(_TRUNCNORM_DRAWS):
        value = rng.normal(mean, stddev) if stddev > 0 else mean
        iv = int(round(value))
        if lo <= iv <= hi:
            return iv
        if stddev == 0:
            break
    return min(hi, max(lo, int(round(value))))


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
    lie on the map: the flood starts from the free ring just outside it."""
    obstacles = frozenset(obstacles)
    reached = distance_map(obstacles, (-1, -1, map_width, map_height), Pixel(-1, -1))
    return obstacles | {Pixel(x, y) for x in range(map_width) for y in range(map_height)
                        if (x, y) not in reached}


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
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not an ASCII PGM (P2) file")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        values = [int(t) for t in tokens[4:]]
    except (IndexError, ValueError):
        raise ValueError(f"{path}: malformed PGM header or payload") from None
    if w < 1 or h < 1 or maxval < 1:
        raise ValueError(f"{path}: bad PGM dimensions")
    if len(values) != w * h:
        raise ValueError(f"{path}: expected {w * h} samples, found {len(values)}")
    if any(v < 0 or v > maxval for v in values):
        raise ValueError(f"{path}: sample out of range")
    return np.array(values, dtype=float).reshape(h, w)


def scale_weights_to_map(raster: np.ndarray, map_width: int, map_height: int) -> np.ndarray:
    """Nearest-neighbor resample of a raster onto map pixels. Returns an array
    of shape (map_width, map_height) indexed [x][y]; raster row 0 maps to the
    top of the map (largest y)."""
    rows, cols = raster.shape
    out = np.empty((map_width, map_height), dtype=float)
    for x in range(map_width):
        c = min(cols - 1, int((x + 0.5) * cols / map_width))
        for y in range(map_height):
            r = min(rows - 1, int((map_height - 1 - y + 0.5) * rows / map_height))
            out[x, y] = raster[r, c]
    return out


def resolve_distribution(spec: str, map_width: int, map_height: int,
                         base_dir=None) -> Optional[np.ndarray]:
    """None for the uniform distribution, else per-pixel weights scaled to the
    map. Relative weight-map paths resolve against ``base_dir``."""
    if spec == UNIFORM:
        return None
    path = spec[len(WEIGHT_PREFIX):]
    if base_dir is not None:
        import os
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
    raster = load_weight_map(path)
    weights = scale_weights_to_map(raster, map_width, map_height)
    if not np.any(weights > 0):
        raise ValueError(f"weight map {path} has no positive weight on the map")
    return weights


def sample_positions(count: int, weights: Optional[np.ndarray],
                     forbidden: set[Pixel] | frozenset[Pixel],
                     map_width: int, map_height: int,
                     rng: np.random.Generator) -> list[Pixel]:
    """Draw ``count`` distinct free pixels from the map.

    weights None means uniform over eligible pixels; otherwise pixels are
    drawn proportional to their weight (weight-0 pixels are never chosen).
    Eligible support excludes ``forbidden`` (obstacles and already-placed
    same-role pixels). Raises GenerationError when the support is exhausted.
    """
    if count == 0:
        return []
    support = [
        (x, y)
        for x in range(map_width)
        for y in range(map_height)
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


def _cluster_side_pixels(anchor: Pixel, side: int, size: int,
                         forbidden: set[Pixel], map_width: int, map_height: int,
                         rng: np.random.Generator) -> Optional[list[Pixel]]:
    """Uniformly pick ``size`` distinct eligible pixels from the side x side
    window centered on the anchor, or None when the window is too poor."""
    half = side // 2
    eligible = [
        (x, y)
        for x in range(max(anchor.x - half, 0), min(anchor.x - half + side, map_width))
        for y in range(max(anchor.y - half, 0), min(anchor.y - half + side, map_height))
        if (x, y) not in forbidden
    ]
    if len(eligible) < size:
        return None
    idx = rng.choice(len(eligible), size=size, replace=False)
    return [Pixel(*eligible[i]) for i in idx]


@dataclass
class ClusterPlacement:
    starts: list[Pixel]
    targets: list[Pixel]
    n_clusters: int
    n_clustered_robots: int
    window_retries: int


def place_clusters(params: GeneratorParams, n_robots: int,
                   obstacles: frozenset[Pixel],
                   start_weights: Optional[np.ndarray],
                   target_weights: Optional[np.ndarray],
                   rng: np.random.Generator) -> ClusterPlacement:
    """Place ``cluster_count`` robot clusters. Cluster sizes are truncated
    normals over [1, n_robots], clamped to the remaining robot budget. Starts
    and targets of a cluster are index-aligned: the i-th start placed pairs
    with the i-th target placed.

    A cluster samples one start anchor and one target anchor from the
    configured distributions, then packs its robots into square windows of
    side ceil(sqrt(2 * size)) centered on the anchors. When either window
    lacks room, both sides double (bounded retries), then fresh anchors are
    drawn; persistent failure raises GenerationError.
    """
    starts: list[Pixel] = []
    targets: list[Pixel] = []
    placed_clusters = 0
    window_retries = 0
    budget = n_robots
    for _ in range(params.cluster_count):
        if budget <= 0:
            break
        size = truncated_normal_int(rng, params.cluster_size_mean,
                                    params.cluster_size_stddev, 1, n_robots)
        size = min(size, budget)
        placed = None
        for _anchor_try in range(_CLUSTER_ANCHOR_RETRIES):
            anchor_s = sample_positions(1, start_weights, obstacles | set(starts),
                                        params.map_width, params.map_height, rng)[0]
            anchor_t = sample_positions(1, target_weights, obstacles | set(targets),
                                        params.map_width, params.map_height, rng)[0]
            side = math.ceil(math.sqrt(2 * size))
            for _win_try in range(_CLUSTER_WINDOW_RETRIES + 1):
                got_s = _cluster_side_pixels(anchor_s, side, size, obstacles | set(starts),
                                             params.map_width, params.map_height, rng)
                got_t = _cluster_side_pixels(anchor_t, side, size, obstacles | set(targets),
                                             params.map_width, params.map_height, rng)
                if got_s is not None and got_t is not None:
                    placed = (got_s, got_t)
                    break
                window_retries += 1
                side *= 2
            if placed is not None:
                break
        if placed is None:
            raise GenerationError("cluster placement failed after anchor retries")
        starts.extend(placed[0])
        targets.extend(placed[1])
        placed_clusters += 1
        budget -= size
    return ClusterPlacement(starts, targets, placed_clusters, len(starts), window_retries)


def params_slug(params: GeneratorParams) -> str:
    """Deterministic, filesystem-friendly instance name for a parameter set."""
    blob = repr(tuple(getattr(params, f) for f in (
        "map_width", "map_height", "density", "start_distribution",
        "target_distribution", "obstacle_count", "obstacle_size_mean",
        "obstacle_size_stddev", "cluster_count", "cluster_size_mean",
        "cluster_size_stddev", "seed"))).encode()
    digest = hashlib.sha1(blob).hexdigest()[:6]
    return (f"g{params.map_width}x{params.map_height}"
            f"-d{params.density:g}-o{params.obstacle_count}"
            f"-c{params.cluster_count}-s{params.seed}-{digest}")


def generate(params: GeneratorParams, base_dir=None) -> GenerationResult:
    """Generate one instance with bookkeeping. Deterministic per params."""
    start_spec = params.start_distribution
    target_spec = params.target_distribution
    last_error: Exception | None = None
    for attempt in range(_GENERATE_ATTEMPTS):
        rng = np.random.default_rng([params.seed, attempt])
        try:
            obstacles = place_obstacles(params, rng)
            volume = params.map_width * params.map_height
            free_area = volume - len(obstacles)
            n_robots = int(round(params.density * free_area))
            if n_robots < 1:
                raise GenerationError(
                    f"density {params.density} x free area {free_area} rounds to 0 robots")
            start_weights = resolve_distribution(start_spec, params.map_width,
                                                 params.map_height, base_dir)
            target_weights = resolve_distribution(target_spec, params.map_width,
                                                  params.map_height, base_dir)
            clusters = place_clusters(params, n_robots, obstacles,
                                      start_weights, target_weights, rng)
            rest = n_robots - clusters.n_clustered_robots
            starts = clusters.starts + sample_positions(
                rest, start_weights, obstacles | set(clusters.starts),
                params.map_width, params.map_height, rng)
            targets = clusters.targets + sample_positions(
                rest, target_weights, obstacles | set(clusters.targets),
                params.map_width, params.map_height, rng)
            instance = Instance(name=params_slug(params), starts=tuple(starts),
                                targets=tuple(targets), obstacles=obstacles)
            info = GenerationInfo(params=params, n_clusters=clusters.n_clusters,
                                  n_clustered_robots=clusters.n_clustered_robots,
                                  window_retries=clusters.window_retries)
            features = InstanceFeatures(
                n_robots=n_robots,
                density=n_robots / free_area,
                n_clusters=clusters.n_clusters,
                n_clustered_robots=clusters.n_clustered_robots,
                volume=volume,
                free_area=free_area,
            )
            return GenerationResult(instance=instance, info=info, features=features)
        except GenerationError as err:
            last_error = err
    raise GenerationError(
        f"generation failed after {_GENERATE_ATTEMPTS} attempts for seed "
        f"{params.seed}: {last_error}")


def generate_instance(params: GeneratorParams, base_dir=None) -> Instance:
    return generate(params, base_dir=base_dir).instance


def extract_features(instance: Instance, info: GenerationInfo | None = None,
                     map_size: tuple[int, int] | None = None) -> InstanceFeatures:
    """Features of an instance. With generator provenance the cluster fields
    come from the bookkeeping; otherwise they are 0 and flagged unknown, and
    the map defaults to the bounding box of the instance content."""
    n = instance.n_robots
    if info is not None:
        volume = info.params.map_width * info.params.map_height
        free_area = volume - len(instance.obstacles)
        return InstanceFeatures(n, n / free_area, info.n_clusters,
                                info.n_clustered_robots, volume, free_area)
    if map_size is not None:
        w, h = map_size
    else:
        xs = [p.x for p in instance.starts] + [p.x for p in instance.targets] \
            + [p.x for p in instance.obstacles]
        ys = [p.y for p in instance.starts] + [p.y for p in instance.targets] \
            + [p.y for p in instance.obstacles]
        w = max(xs) - min(xs) + 1
        h = max(ys) - min(ys) + 1
    volume = w * h
    free_area = volume - len(instance.obstacles)
    return InstanceFeatures(n, n / free_area, 0, 0, volume, free_area,
                            cluster_info_known=False)


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
    keep = hi > lo
    if keep.any():
        norm = (matrix[:, keep] - lo[keep]) / (hi[keep] - lo[keep])
    else:
        norm = np.zeros((len(candidates), 1))
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
