"""Finite quasi-metric measure spaces.

A space is a finite point set {0, ..., n-1} together with a symmetric
distance table that is positive off the diagonal. The quasi-triangle
constant ``a0`` is the smallest real >= 1 with

    dist(x, y) <= a0 * (dist(x, z) + dist(z, y))   for all x, y, z.

Balls use strict inequality everywhere: ``ball(x, r) = {y : dist(x,y) < r}``.
Measures assign a nonnegative mass to each point; a point with positive mass
is an atom. All randomized constructors are deterministic given their seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadParams,
    ConfigError,
    NegativeDistance,
    NonPositiveRadius,
    NonSymmetric,
    UnknownKind,
    ZeroOffDiagonal,
)
from .reporting import _known_fields


@dataclass(frozen=True, eq=False)
class QuasiMetricSpace:
    dist: np.ndarray
    a0: float

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    @property
    def min_distance(self) -> float:
        """Smallest off-diagonal distance; +inf for a one-point space."""
        if self.n == 1:
            return np.inf
        off = self.dist[~np.eye(self.n, dtype=bool)]
        return float(off.min())

    def points(self) -> range:
        return range(self.n)

    @cached_property
    def index(self) -> SpaceIndex:
        """The per-row distance orders, built on first use and then kept."""
        order = np.argsort(self.dist, axis=1, kind="stable")
        dist_sorted = np.take_along_axis(self.dist, order, axis=1)
        end = np.ones_like(dist_sorted, dtype=bool)
        end[:, :-1] = dist_sorted[:, 1:] != dist_sorted[:, :-1]
        flat_rank = np.empty_like(order)
        np.put_along_axis(flat_rank, order, np.arange(order.size).reshape(order.shape), axis=1)
        return SpaceIndex(*map(_frozen, (order, end, flat_rank)))


@dataclass(frozen=True, eq=False)
class SpaceIndex:
    """Row c lists the points by distance from c, ties in id order.

    ``order[c]`` is that list, ``end[c, j]`` marks position j as the last
    of its tie group (so the strict balls centered at c are exactly the
    prefixes ending at an ``end``), and ``flat_rank[c, x] = c * n + j``
    where x is at position j of ``order[c]``: x's index in a raveled table
    of per-row values.
    """

    order: np.ndarray
    end: np.ndarray
    flat_rank: np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class PointMeasure:
    masses: np.ndarray

    def __post_init__(self):
        m = np.array(self.masses, dtype=float)  # own read-only copy
        if m.ndim != 1:
            raise BadParams("measure masses must be a flat array")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise BadParams("measure masses must be finite and nonnegative")
        object.__setattr__(self, "masses", _frozen(m))

    @cached_property
    def charged(self) -> np.ndarray:
        """Read-only mask of the points with positive (read-only) mass."""
        return _frozen(self.masses > 0.0)

    @property
    def total(self) -> float:
        return float(np.sum(self.masses))

    @property
    def atoms(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.charged))

    def of(self, points: Iterable[int]) -> float:
        """Mass of a point set, summed in ascending point-id order."""
        idx = sorted(int(p) for p in points)
        if not idx:
            return 0.0
        return float(np.sum(self.masses[idx]))


@dataclass(frozen=True)
class Ball:
    center: int
    radius: float
    members: tuple[int, ...]


@dataclass(frozen=True)
class DoublingEstimate:
    """Greedy upper bound a1_upper on the geometric doubling constant.

    ``covers`` maps (center, threshold) to the chosen half-radius cover
    centers for the ball class {y : dist(y, center) <= threshold}, so every
    recorded cover can be replayed and re-verified.
    """

    a1_upper: int
    method: str
    covers: dict = field(repr=False, default_factory=dict)


def build_space(dist: Sequence[Sequence[float]] | np.ndarray) -> QuasiMetricSpace:
    """Validate a distance table, keep a read-only copy of it, and compute
    its quasi-triangle constant."""
    d = np.array(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise BadParams("distance table must be square", shape=d.shape)
    n = d.shape[0]
    if not np.all(np.isfinite(d)):
        raise BadParams("distances must be finite")
    if np.any(d < 0):
        x, y = np.argwhere(d < 0)[0]
        raise NegativeDistance(x=int(x), y=int(y), value=float(d[x, y]))
    if not np.array_equal(d, d.T):
        x, y = np.argwhere(d != d.T)[0]
        raise NonSymmetric(x=int(x), y=int(y))
    if np.any(np.diag(d) != 0):
        raise BadParams("diagonal must be zero")
    off = d + np.diag(np.full(n, np.inf))
    if n > 1 and np.any(off == 0):
        x, y = np.argwhere(off == 0)[0]
        raise ZeroOffDiagonal(x=int(x), y=int(y))
    return QuasiMetricSpace(dist=_frozen(d), a0=_quasi_triangle_constant(d))


def _quasi_triangle_constant(d: np.ndarray) -> float:
    n = d.shape[0]
    a0 = 1.0
    for z in range(n):
        denom = d[:, z][:, None] + d[z, :][None, :]
        ratio = np.divide(d, denom, out=np.zeros((n, n)), where=denom > 0)
        a0 = max(a0, float(ratio.max()))
    return a0


def ball(space: QuasiMetricSpace, x: int, r: float) -> Ball:
    """Strict ball {y : dist(x, y) < r}. The center is always a member."""
    if not 0 <= x < space.n:
        raise BadParams("center out of range", x=x, n=space.n)
    if not r > 0:
        raise NonPositiveRadius(x=x, r=r)
    members = np.flatnonzero(space.dist[x] < r)
    return Ball(center=x, radius=float(r), members=tuple(int(i) for i in members))


def ball_masses(space: QuasiMetricSpace, mu: PointMeasure):
    """Per center x, in id order: its distinct distances ``steps``,
    ascending, and mass[j] = mu(ball(x, steps[j])) summed in point-id
    order, with mass[-1] = mu(X)."""
    for row in space.dist:
        steps = np.unique(row)
        yield steps, np.array([np.sum(mu.masses[row < t]) for t in steps]
                              + [np.sum(mu.masses)])


def estimate_geometric_doubling(space: QuasiMetricSpace) -> DoublingEstimate:
    """Greedy-cover upper bound for the geometric doubling constant.

    For each center x the ball membership only changes when the radius
    crosses a distance value, and within one membership class the hardest
    half-radius cover is the limit from above, i.e. covering
    {dist(.,x) <= a} by closed balls of radius a/2. Sweeping those classes
    therefore bounds the cover count of every ball of the space.
    """
    d = space.dist
    worst = 1
    covers: dict[tuple[int, float], list[int]] = {}
    for x in space.points():
        thresholds = np.unique(d[x])
        for a in thresholds:
            members = np.flatnonzero(d[x] <= a)
            uncovered = set(int(i) for i in members)
            chosen: list[int] = []
            while uncovered:
                y = min(uncovered)
                chosen.append(y)
                uncovered -= {int(i) for i in members[d[y, members] <= a / 2.0]}
            covers[(x, float(a))] = chosen
            worst = max(worst, len(chosen))
    return DoublingEstimate(a1_upper=worst, method="greedy-cover", covers=covers)


def replay_doubling_cover(space: QuasiMetricSpace, est: DoublingEstimate) -> bool:
    """Re-verify every recorded cover; True iff all covers are valid."""
    d = space.dist
    for (x, a), chosen in est.covers.items():
        members = np.flatnonzero(d[x] <= a)
        if len(chosen) > est.a1_upper:
            return False
        covered = np.zeros(space.n, dtype=bool)
        for y in chosen:
            covered |= d[y] <= a / 2.0
        if not covered[members].all():
            return False
    return True


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

_SPACE_PARAMS = {
    "integer_segment_counting": ("n",),
    "euclidean_random_points": ("n", "dim", "power"),
    "snowflake_power": ("n", "power"),
    "ultrametric_tree": ("depth", "branching", "ratio"),
}


def generate_space(kind: str, seed: int = 0, **params) -> tuple[QuasiMetricSpace, PointMeasure]:
    """Build one of the stock test spaces, with the counting measure.

    Kinds: ``integer_segment_counting(n)``, ``euclidean_random_points(n,
    dim, power)``, ``snowflake_power(n, power)``, ``ultrametric_tree(depth,
    branching, ratio)``.  A parameter the kind does not take is a
    ConfigError naming it.
    """
    if kind not in _SPACE_PARAMS:
        raise UnknownKind(kind=kind)
    for key in params:
        if key not in _SPACE_PARAMS[kind]:
            raise ConfigError(f"{key}: unknown parameter for {kind}, "
                              f"expected one of {_SPACE_PARAMS[kind]}")
    if kind == "integer_segment_counting":
        n = _req_int(params, "n", minimum=1)
        idx = np.arange(n, dtype=float)
        d = np.abs(idx[:, None] - idx[None, :])
    elif kind == "euclidean_random_points":
        n = _req_int(params, "n", minimum=1)
        dim = _req_int(params, "dim", minimum=1, default=2)
        rng = np.random.default_rng(np.random.SeedSequence([0x5A11, seed]))
        coords = rng.uniform(0.0, 1.0, size=(n, dim))
        d = _euclidean_table(coords, float(params.get("power", 1.0)))
        if n > 1 and np.any((d + np.eye(n)) == 0):
            # astronomically unlikely; resample once rather than fail
            coords = rng.uniform(0.0, 1.0, size=(n, dim))
            d = _euclidean_table(coords, float(params.get("power", 1.0)))
    elif kind == "snowflake_power":
        n = _req_int(params, "n", minimum=1)
        power = float(params.get("power", 2.0))
        if power <= 0:
            raise BadParams("power must be positive", power=power)
        idx = np.arange(n, dtype=float)
        d = np.abs(idx[:, None] - idx[None, :]) ** power
    elif kind == "ultrametric_tree":
        depth = _req_int(params, "depth", minimum=1)
        branching = _req_int(params, "branching", minimum=2)
        ratio = float(params.get("ratio", 1.0 / 96.0))
        if not 0 < ratio < 1:
            raise BadParams("ratio must lie in (0,1)", ratio=ratio)
        n = branching**depth
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                lca = _common_prefix_len(i, j, branching, depth)
                d[i, j] = d[j, i] = ratio**lca
    space = build_space(d)
    return space, PointMeasure(np.ones(space.n))


def _euclidean_table(coords: np.ndarray, power: float) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    return d if power == 1.0 else d**power


def _common_prefix_len(i: int, j: int, branching: int, depth: int) -> int:
    digits_i, digits_j = [], []
    for _ in range(depth):
        digits_i.append(i % branching)
        digits_j.append(j % branching)
        i //= branching
        j //= branching
    # most significant digit first
    k = 0
    for a, b in zip(reversed(digits_i), reversed(digits_j)):
        if a != b:
            break
        k += 1
    return k


def _req_int(params: dict, key: str, minimum: int,
             default: int | None = None) -> int:
    v = params.get(key, default)
    if v is None:
        raise BadParams(f"missing required parameter '{key}'")
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
        raise BadParams(f"'{key}' must be an integer", value=v)
    if v < minimum:
        raise BadParams(f"'{key}' must be >= {minimum}", value=v)
    return int(v)


# ---------------------------------------------------------------------------
# JSON space files
# ---------------------------------------------------------------------------

def space_from_dict(doc: dict) -> tuple[QuasiMetricSpace, dict[str, PointMeasure]]:
    """Parse a space file document; a bad or unknown key is a ConfigError naming its path."""
    if not isinstance(doc, dict):
        raise ConfigError("$: expected an object")
    _known_fields(doc, ("n", "metric", "measures"), "")
    n = doc.get("n")
    if not isinstance(n, int) or n < 1:
        raise ConfigError("n: expected a positive integer")
    metric = doc.get("metric")
    if not isinstance(metric, dict):
        raise ConfigError("metric: expected an object")
    mtype = metric.get("type")
    if mtype == "matrix":
        _known_fields(metric, ("type", "values"), "metric.")
        values = metric.get("values")
        if not isinstance(values, list) or len(values) != n:
            raise ConfigError("metric.values: expected an n-by-n array")
        for i, row in enumerate(values):
            if not isinstance(row, list) or len(row) != n:
                raise ConfigError(f"metric.values[{i}]: expected a row of length n")
            for j, v in enumerate(row):
                if not isinstance(v, (int, float)):
                    raise ConfigError(f"metric.values[{i}][{j}]: expected a number")
                if v < 0:
                    raise ConfigError(f"metric.values[{i}][{j}]: negative distance")
        d = np.asarray(values, dtype=float)
    elif mtype == "euclidean":
        _known_fields(metric, ("type", "coords", "power"), "metric.")
        coords = metric.get("coords")
        if not isinstance(coords, list) or len(coords) != n:
            raise ConfigError("metric.coords: expected n coordinate rows")
        width = None
        for i, row in enumerate(coords):
            if not isinstance(row, list) or not row:
                raise ConfigError(f"metric.coords[{i}]: expected a nonempty row")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ConfigError(f"metric.coords[{i}]: inconsistent dimension")
            for j, v in enumerate(row):
                if not isinstance(v, (int, float)):
                    raise ConfigError(f"metric.coords[{i}][{j}]: expected a number")
        power = metric.get("power", 1.0)
        if not isinstance(power, (int, float)) or power <= 0:
            raise ConfigError("metric.power: expected a positive number")
        d = _euclidean_table(np.asarray(coords, dtype=float), float(power))
    else:
        raise ConfigError("metric.type: expected 'matrix' or 'euclidean'")
    try:
        space = build_space(d)
    except Exception as exc:  # surfaced with a config path
        raise ConfigError(f"metric: {exc}") from exc

    measures: dict[str, PointMeasure] = {}
    raw = doc.get("measures", {})
    if not isinstance(raw, dict):
        raise ConfigError("measures: expected an object")
    for name, masses in raw.items():
        if not isinstance(masses, list) or len(masses) != n:
            raise ConfigError(f"measures.{name}: expected n masses")
        for i, v in enumerate(masses):
            if not isinstance(v, (int, float)) or v < 0:
                raise ConfigError(f"measures.{name}[{i}]: expected a nonnegative number")
        measures[name] = PointMeasure(np.asarray(masses, dtype=float))
    return space, measures


def load_space(path: str) -> tuple[QuasiMetricSpace, dict[str, PointMeasure]]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return space_from_dict(doc)


def space_to_dict(space: QuasiMetricSpace, measures: dict[str, PointMeasure]) -> dict:
    return {
        "n": space.n,
        "metric": {"type": "matrix", "values": space.dist.tolist()},
        "measures": {name: m.masses.tolist() for name, m in measures.items()},
    }


def save_space(path: str, space: QuasiMetricSpace, measures: dict[str, PointMeasure]) -> None:
    with open(path, "w") as fh:
        json.dump(space_to_dict(space, measures), fh, indent=1, sort_keys=True)
        fh.write("\n")
