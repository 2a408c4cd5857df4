"""Finite quasi-metric measure spaces.

A space is a finite point set {0, ..., n-1} together with a symmetric
distance table that is positive off the diagonal. The quasi-triangle
constant ``a0`` is the smallest real >= 1 with

    dist(x, y) <= a0 * (dist(x, z) + dist(z, y))   for all x, y, z.

Balls use strict inequality everywhere: ``B(x, r) = {y : dist(x,y) < r}``,
which is a prefix of ``index.order[x]`` ending at an ``index.end``.
Measures assign a nonnegative mass to each point; a point with positive mass
is an atom. All randomized constructors are deterministic given their seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParams, ConfigError
from .reporting import _is_int, _is_number, _known_fields, _read_json


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

    @cached_property
    def _distance_ranks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``ball_ends``' tables, kept after first use: the distinct
        distances, each row's rank offset and the raveled offset ranks of
        the rows of ``index``."""
        rows = np.arange(self.n)[:, None]
        vals = np.unique(self.dist)
        offset = (vals.size + 1) * rows
        keys = np.searchsorted(vals, self.dist[rows, self.index.order]) + offset
        return _frozen(vals), _frozen(offset), _frozen(keys.ravel())

    def ball_ends(self, radii, closed: bool = False) -> np.ndarray:
        """c * n + |B| - 1 for B = B(c, r[c, j]) or its closure: where B ends
        in a raveled (n, n) table of per-row values of ``index``.  Distances
        become ranks, offset by c times their count in row c, so one
        searchsorted serves every row."""
        vals, offset, keys = self._distance_ranks
        return np.searchsorted(keys, offset + np.searchsorted(
            vals, radii, side="right" if closed else "left")) - 1


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

    def prefix_sums(self, w) -> np.ndarray:
        """w, or each row of a (K, n) block w, summed along every row of
        ``order``: [..., c, j] sums the first j + 1 points of ``order[c]``,
        in that (distance) order, so a ball's mass is read at its end."""
        return np.cumsum(np.asarray(w)[..., self.order], axis=-1)


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

    @cached_property
    def level_set_masses(self) -> dict[bytes, float]:
        """Memo of point-set masses, each summed in point-id order, keyed
        by the set's np.packbits mask; weak_quasinorm fills it."""
        return {}

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


@dataclass(frozen=True, eq=False)
class DoublingEstimate:
    """Greedy upper bound a1_upper on the geometric doubling constant.

    Read-only row i is the ball class {y : dist(y, center[i]) <= threshold[i]},
    one per (center, distinct distance) in ascending order, and
    ``covers[i]`` its chosen half-radius cover centers in the order picked,
    padded with -1 to width ``a1_upper``, so every cover can be replayed.
    """

    a1_upper: int
    method: str
    center: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    covers: np.ndarray = field(repr=False)


# elements of one temporary block of the quasi-triangle constant, of the
# doubling cover and its replay, and of the kernel envelope
_BLOCK_ELEMENTS = 1 << 16


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
        raise BadParams("distances must be nonnegative", x=int(x), y=int(y),
                        value=float(d[x, y]))
    if not np.array_equal(d, d.T):
        x, y = np.argwhere(d != d.T)[0]
        raise BadParams("distance table must be symmetric", x=int(x), y=int(y))
    if np.any(np.diag(d) != 0):
        raise BadParams("diagonal must be zero")
    off = d + np.diag(np.full(n, np.inf))
    if n > 1 and np.any(off == 0):
        x, y = np.argwhere(off == 0)[0]
        raise BadParams("distinct points need a positive distance", x=int(x),
                        y=int(y))
    return QuasiMetricSpace(dist=_frozen(d), a0=_quasi_triangle_constant(d))


def _quasi_triangle_constant(d: np.ndarray) -> float:
    """max(1, d[x, y] / (d[x, z] + d[z, y])) over every x, y, z with a
    positive denominator. Division rounds monotonically, so each (x, y)
    divides once, by its smallest denominator over z, taken in (rows x z x
    n) tiles of at most _BLOCK_ELEMENTS elements; it is zero on the
    diagonal only, where d is zero too."""
    n = d.shape[0]
    rows = min(n, max(1, _BLOCK_ELEMENTS // n))
    zs = max(1, _BLOCK_ELEMENTS // (rows * n))
    low = np.full((n, n), np.inf)
    for x, z in itertools.product(range(0, n, rows), range(0, n, zs)):
        tile = d[x:x + rows, z:z + zs, None] + d[z:z + zs]
        np.minimum(low[x:x + rows], tile.min(axis=1), out=low[x:x + rows])
    ratio = np.divide(d, low, out=np.zeros((n, n)), where=low > 0)
    return max(1.0, float(ratio.max()))


def _ball_classes(space: QuasiMetricSpace):
    """(center, threshold) of every class {y : dist(y, center) <= threshold},
    one per center and distinct distance (the tie-group ends of the index),
    and its consecutive blocks as (rows, threshold / 2, boolean members)."""
    idx, d = space.index, space.dist
    center, pos = np.nonzero(idx.end)
    threshold = d[center, idx.order[center, pos]]
    step = max(1, _BLOCK_ELEMENTS // max(space.n, 1))
    blocks = ((r, threshold[r] / 2.0, d[center[r]] <= threshold[r, None])
              for r in (slice(s, s + step) for s in range(0, center.size, step)))
    return center, threshold, blocks


def estimate_geometric_doubling(space: QuasiMetricSpace) -> DoublingEstimate:
    """Greedy-cover upper bound for the geometric doubling constant.

    For each center x the ball membership only changes when the radius
    crosses a distance value, and within one membership class the hardest
    half-radius cover is the limit from above, i.e. covering
    {dist(.,x) <= a} by closed balls of radius a/2. Sweeping those classes
    therefore bounds the cover count of every ball of the space.

    The greedy rule picks the smallest uncovered id. It runs on blocks of
    classes as one boolean (classes x n) uncovered array, one array pass
    per step, so the passes number the widest cover, not the classes.
    """
    d = space.dist
    center, threshold, blocks = _ball_classes(space)
    columns = [np.full(center.size, -1)]  # columns[j][i]: j-th id of row i
    for rows, half, uncovered in blocks:
        live, j = np.arange(half.size), 0
        while live.size:
            if j == len(columns):
                columns.append(np.full(center.size, -1))
            y = uncovered.argmax(axis=1)  # the smallest uncovered id
            columns[j][rows][live] = y  # rows is a slice: writes through
            uncovered &= d[y] > half[:, None]
            keep = uncovered.any(axis=1)
            uncovered, live, half = uncovered[keep], live[keep], half[keep]
            j += 1
    covers = np.column_stack(columns)
    return DoublingEstimate(a1_upper=covers.shape[1], method="greedy-cover",
                            center=_frozen(center),
                            threshold=_frozen(threshold),
                            covers=_frozen(covers))


def replay_doubling_cover(space: QuasiMetricSpace, est: DoublingEstimate) -> bool:
    """Re-verify every recorded cover; True iff all covers are valid. False
    also when the rows are not the space's classes in the estimate's order,
    an id is neither a point nor -1 padding, or a row has > a1_upper ids."""
    center, threshold, blocks = _ball_classes(space)
    covers = np.asarray(est.covers)
    if not (np.array_equal(est.center, center)
            and np.array_equal(est.threshold, threshold)
            and covers.ndim == 2 and len(covers) == center.size
            and np.issubdtype(covers.dtype, np.integer)
            and np.all((covers >= -1) & (covers < space.n))
            and np.all((covers >= 0).sum(axis=1) <= est.a1_upper)):
        return False
    for rows, half, uncovered in blocks:
        for ids in covers[rows].T:
            # a -1 pad reads d[-1]; OR-ing ids < 0 leaves its row as it was
            uncovered &= (space.dist[ids] > half[:, None]) | (ids < 0)[:, None]
        if uncovered.any():
            return False
    return True


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# each kind's parameters with their types, as gen-space reads its flags
_SPACE_PARAMS = {
    "integer_segment_counting": {"n": int},
    "euclidean_random_points": {"n": int, "dim": int, "power": float},
    "snowflake_power": {"n": int, "power": float},
    "ultrametric_tree": {"depth": int, "branching": int, "ratio": float},
}


def generate_space(kind: str, seed: int = 0, **params) -> tuple[QuasiMetricSpace, PointMeasure]:
    """Build one of the stock test spaces, with the counting measure.

    ``_SPACE_PARAMS`` lists the kinds and the parameters each takes; a
    parameter the kind does not take is a ConfigError naming it.
    """
    if kind not in _SPACE_PARAMS:
        raise BadParams("unknown space kind", kind=kind)
    for key in params:
        if key not in _SPACE_PARAMS[kind]:
            raise ConfigError(f"{key}: unknown parameter for {kind}, "
                              f"expected one of {tuple(_SPACE_PARAMS[kind])}")
    if kind == "integer_segment_counting":
        n = _req(params, kind, "n", minimum=1)
        idx = np.arange(n, dtype=float)
        d = np.abs(idx[:, None] - idx[None, :])
    elif kind == "euclidean_random_points":
        n = _req(params, kind, "n", minimum=1)
        dim = _req(params, kind, "dim", 2, minimum=1)
        rng = np.random.default_rng(np.random.SeedSequence([0x5A11, seed]))
        coords = rng.uniform(0.0, 1.0, size=(n, dim))
        power = _req(params, kind, "power", 1.0)
        d = _euclidean_table(coords, power)
        if n > 1 and np.any((d + np.eye(n)) == 0):
            # astronomically unlikely; resample once rather than fail
            coords = rng.uniform(0.0, 1.0, size=(n, dim))
            d = _euclidean_table(coords, power)
    elif kind == "snowflake_power":
        n = _req(params, kind, "n", minimum=1)
        power = _req(params, kind, "power", 2.0)
        if power <= 0:
            raise BadParams("power must be positive", power=power)
        idx = np.arange(n, dtype=float)
        d = np.abs(idx[:, None] - idx[None, :]) ** power
    elif kind == "ultrametric_tree":
        depth = _req(params, kind, "depth", minimum=1)
        branching = _req(params, kind, "branching", minimum=2)
        ratio = _req(params, kind, "ratio", 1.0 / 96.0)
        if not 0 < ratio < 1:
            raise BadParams("ratio must lie in (0,1)", ratio=ratio)
        n = branching**depth
        # i and j share their first depth - s digits iff i // b^s == j // b^s,
        # so the common prefix length counts the s in 0..depth-1 where they do
        ids = np.arange(n)
        lca = sum(ids[:, None] // branching**s == ids[None, :] // branching**s
                  for s in range(depth))
        # Python-float powers, as np.power's SIMD kernels may round differently
        d = np.array([ratio**k for k in range(depth + 1)])[lca]
        np.fill_diagonal(d, 0.0)
    space = build_space(d)
    return space, PointMeasure(np.ones(space.n))


def _euclidean_table(coords: np.ndarray, power: float) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    return d if power == 1.0 else d**power


def _req(params: dict, kind: str, key: str, default=None, minimum=None):
    """params[key], else its default, as the key's ``_SPACE_PARAMS`` type;
    a bool, str, None or non-finite value is a BadParams naming the key."""
    cast, v = _SPACE_PARAMS[kind][key], params.get(key, default)
    if v is None and key not in params:
        raise BadParams(f"missing required parameter '{key}'")
    number = (int, np.integer) + ((float, np.floating) if cast is float else ())
    if not isinstance(v, number) or isinstance(v, bool) or not np.isfinite(v):
        raise BadParams(f"'{key}' must be "
                        + ("a finite number" if cast is float else "an integer"),
                        value=v)
    if minimum is not None and v < minimum:
        raise BadParams(f"'{key}' must be >= {minimum}", value=v)
    return cast(v)


# ---------------------------------------------------------------------------
# JSON space files
# ---------------------------------------------------------------------------

def space_from_dict(doc: dict) -> tuple[QuasiMetricSpace, dict[str, PointMeasure]]:
    """Parse a space file document; a bad or unknown key is a ConfigError naming its path."""
    if not isinstance(doc, dict):
        raise ConfigError("$: expected an object")
    _known_fields(doc, ("n", "metric", "measures"), "")
    n = doc.get("n")
    if not _is_int(n) or n < 1:
        raise ConfigError("n: expected a positive integer")
    metric = doc.get("metric")
    if not isinstance(metric, dict):
        raise ConfigError("metric: expected an object")
    mtype = metric.get("type")
    if mtype == "matrix":
        _known_fields(metric, ("type", "values"), "metric.")
        d = _number_rows(metric.get("values"), "metric.values", n, n)
        if np.any(d < 0):
            i, j = np.argwhere(d < 0)[0]
            raise ConfigError(f"metric.values[{i}][{j}]: negative distance")
    elif mtype == "euclidean":
        _known_fields(metric, ("type", "coords", "power"), "metric.")
        coords = _number_rows(metric.get("coords"), "metric.coords", n)
        power = metric.get("power", 1.0)
        if not _is_number(power) or power <= 0:
            raise ConfigError("metric.power: expected a positive number")
        d = _euclidean_table(coords, float(power))
    else:
        raise ConfigError("metric.type: expected 'matrix' or 'euclidean'")
    try:
        space = build_space(d)
    except BadParams as exc:
        raise ConfigError(f"metric: {exc}") from exc

    measures: dict[str, PointMeasure] = {}
    raw = doc.get("measures", {})
    if not isinstance(raw, dict):
        raise ConfigError("measures: expected an object")
    for name, masses in raw.items():
        if not isinstance(masses, list) or len(masses) != n:
            raise ConfigError(f"measures.{name}: expected n masses")
        for i, v in enumerate(masses):
            if not _is_number(v) or v < 0:
                raise ConfigError(f"measures.{name}[{i}]: expected a nonnegative number")
        measures[name] = PointMeasure(np.asarray(masses, dtype=float))
    return space, measures


def _number_rows(rows, path: str, n: int, width: int | None = None) -> np.ndarray:
    """n lists of numbers, each of ``width`` (else the first row's) length,
    as a float array; a ConfigError names the first bad row or entry."""
    if not isinstance(rows, list) or len(rows) != n:
        raise ConfigError(f"{path}: expected {n} rows")
    width = width or (len(rows[0]) if isinstance(rows[0], list) else 0)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row or len(row) != width:
            raise ConfigError(f"{path}[{i}]: expected a row of "
                              f"{width or 'one or more'} numbers")
        for j, v in enumerate(row):
            if not _is_number(v):
                raise ConfigError(f"{path}[{i}][{j}]: expected a number")
    return np.asarray(rows, dtype=float)


def load_space(path: str) -> tuple[QuasiMetricSpace, dict[str, PointMeasure]]:
    return space_from_dict(_read_json(path, path))


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
