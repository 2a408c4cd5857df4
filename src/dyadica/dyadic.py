"""Hierarchical cube decompositions of a finite quasi-metric space.

A system holds one partition of the space per generation k in a finite
window [k_min, k_max]. Generation k groups points around a delta^k-separated
net of centers; nets are nested (coarse centers persist into finer nets),
each net point links to its nearest next-coarser net point, and a point's
cube at generation k is the set of points whose ancestor chain passes
through the same center. The window is chosen so the coarsest generation is
one cube equal to the whole space and the finest consists of singletons.

A cube is an integer id, and every per-cube value is an array indexed by
id. Ids are sorted by (k, center), so ``generation(k)`` is a slice of
them. ``cubes`` holds the read-only columns ``k``, ``center`` and
``diameter``; ``label[k - k_min, x]`` is the id of the generation-k cube
containing x; ``parent[i]`` is the id of cube i's parent, -1 at the
coarsest generation. The members of cube i are the row ``incidence[i]``,
a (cubes x n) boolean block derived from ``label`` on first read.
Per-cube tables elsewhere (envelope values, cube sums, stopping-time
averages) are arrays indexed by id too.

Geometry constants are calibrated as

    c1 = 1 / (12 a0^4),   C1 = 4 a0^2,   96 a0^6 delta <= 1,

where a0 is the quasi-triangle constant. Under that calibration a built
system satisfies the five structural properties enforced by check_system:
each generation partitions the space, generations are nested, every cube is
sandwiched between the strict balls of radii c1 delta^k and C1 delta^k
around its center, containing balls grow monotonically along ancestry, and
every center persists to the next finer generation; PROPERTY_NAMES lists
their report names in that order. A caller may relax
delta; reports produced under a relaxed delta are marked non-strict and
construction retries reseeded sweeps before giving up.

A family of systems built from varied seeds is "adjacent" when every ball
B(x, r) embeds in a single cube of one of the systems whose diameter is at
most C r with C = 8 a0^3 / delta^2. Finiteness makes this checkable exactly:
for a fixed center the strict-ball member set is constant while the radius
runs between consecutive distance values, so check_ball_coverage enumerates
those finitely many regimes, one row per (center, band, regime) read off
``space.index``, and resolves them all at once against each system's
containing cubes. The certificate stores the rows as the read-only columns
``x``, ``band_k``, ``lo``, ``hi``, ``t``, ``cube_k``, ``cube_center`` and
``diameter`` with the worst observed diameter ratio; replay_coverage
re-derives the rows and re-checks each named cube on its own.

Pinning a point makes it a cube center at every generation (it is swept
first, so every net keeps it). A pair of measures generalizes a system:
the paper adds a point cube {x} at each joint atom x, a point both measures
charge, but on the full window every finest cube is already a singleton,
so ``generalize`` adds no cubes and returns only the joint atoms.
``maximal_cubes(system, chosen)`` reads containment off ``parent``: it
returns the ids of the chosen cubes with no chosen proper ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import BadParams, CheckFailed
from .policy import TOLERANCES, CheckReport, outcome
from .space import PointMeasure, QuasiMetricSpace, _ball_classes, _frozen

_SALT_SYSTEM = 0xD7AD
_MAX_ATTEMPTS = 8

@dataclass(frozen=True, eq=False)
class CubeTable:
    """Read-only columns by cube id: generation ``k``, ``center`` and
    ``diameter``."""

    k: np.ndarray
    center: np.ndarray
    diameter: np.ndarray

    def __len__(self) -> int:
        return self.k.size

    def name(self, i) -> dict:
        """Cube i as a witness names it."""
        return {"k": int(self.k[i]), "center": int(self.center[i])}


@dataclass(eq=False)
class DyadicSystem:
    space: QuasiMetricSpace
    system_id: int
    seed: int
    delta: float
    c1: float
    C1: float
    k_min: int
    k_max: int
    strict_delta: bool
    cubes: CubeTable = field(repr=False)
    # label[k - k_min, x] = id of the generation-k cube containing x
    label: np.ndarray = field(repr=False)
    # parent[i] = id of cube i's parent, -1 at the coarsest generation
    parent: np.ndarray = field(repr=False)
    x0: int | None = None

    @property
    def num_generations(self) -> int:
        return self.k_max - self.k_min + 1

    def generation_range(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def _gi(self, k: int) -> int:
        if not self.k_min <= k <= self.k_max:
            raise BadParams("generation outside the window", k=k,
                            k_min=self.k_min, k_max=self.k_max)
        return k - self.k_min

    def generation(self, k: int) -> slice:
        """The ids of the generation-k cubes, as a slice."""
        self._gi(k)
        start, stop = np.searchsorted(self.cubes.k, [k, k + 1])
        return slice(int(start), int(stop))

    def containing_cube(self, k: int, x: int) -> int:
        return int(self.label[self._gi(k), x])

    @property
    def top(self) -> int:
        return 0

    def leaf(self, x: int) -> int:
        return self.containing_cube(self.k_max, x)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only (cubes x n) block: incidence[i, x] when x is in cube i."""
        inc = np.zeros((len(self.cubes), self.space.n), dtype=bool)
        inc[self.label, np.arange(self.space.n)] = True
        return _frozen(inc)

    def balls(self, c: float) -> np.ndarray:
        """(cubes x n) block: the strict ball of radius c delta^k around
        each cube's center."""
        radius = np.array([c * self.delta**k for k in self.generation_range()])
        return self.space.dist[self.cubes.center] < \
            radius[self.cubes.k - self.k_min, None]

    @cached_property
    def outer_balls(self) -> np.ndarray:
        """Read-only ``balls(C1)``: each cube's containing ball."""
        return _frozen(self.balls(self.C1))

    def _own(self, ids) -> np.ndarray:
        """ids as an int array of this system's cube ids."""
        ids = np.asarray(ids)
        if ids.size and ids.dtype.kind not in "iu":
            raise BadParams("cube ids must be integers", dtype=str(ids.dtype))
        ids = ids.astype(int)
        if (ids < 0).any():
            raise BadParams("cube ids must be nonnegative",
                            cube=int(ids.min()), cubes=len(self.cubes))
        if (ids >= len(self.cubes)).any():
            raise BadParams("cube id past this system's cubes",
                            cube=int(ids.max()), cubes=len(self.cubes),
                            system=self.system_id)
        return ids

    def children(self, i: int) -> np.ndarray:
        """The ids whose parent is cube i, in id (= center) order."""
        return np.flatnonzero(self.parent == self._own(i))

    def smallest_common_cube(self, x: int, y: int) -> int:
        """Finest-generation cube containing both points; requires x != y."""
        if x == y:
            raise BadParams("need two distinct points", x=x)
        for row in self.label[::-1]:
            if row[x] == row[y]:
                return int(row[x])
        raise CheckFailed("common_cube", "no common cube; coarsest generation "
                          "is not the whole space", x=x, y=y)

    @cached_property
    def size_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The cubes grouped by size m, as read-only (ids, members[k x m])."""
        sizes = self.incidence.sum(axis=1)
        groups = []
        for m in np.unique(sizes):
            ids = np.flatnonzero(sizes == m)
            members = np.nonzero(self.incidence[ids])[1].reshape(ids.size, m)
            groups.append((_frozen(ids), _frozen(members)))
        return tuple(groups)

    def cube_totals(self, values: np.ndarray) -> np.ndarray:
        """Per-cube sums by id along the last axis, each over the cube's
        members in ascending point order, as ``PointMeasure.of`` sums."""
        out = np.zeros((*values.shape[:-1], len(self.cubes)))
        for ids, members in self.size_groups:
            # take keeps each member row contiguous, so it sums as in 1-D
            out[..., ids] = np.add.reduce(values.take(members, axis=-1), axis=-1)
        return out

    @cached_property
    def property_reports(self) -> tuple[CheckReport, ...]:
        """check_system's five reports, computed on first read and kept."""
        return tuple(check_system(self))

    def outer_ball_radius(self, k: int) -> float:
        return self.C1 * self.delta**k


def dyadic_parameters(a0: float, delta: float | None = None) -> tuple[float, float, float, bool]:
    """Return (delta, c1, C1, strict) for a quasi-triangle constant a0."""
    c1 = 1.0 / (12.0 * a0**4)
    C1 = 4.0 * a0**2
    if delta is None:
        delta = 1.0 / (96.0 * a0**6)
    if not 0.0 < delta < 1.0:
        raise BadParams("delta must lie in (0, 1)", delta=delta)
    strict = 96.0 * a0**6 * delta <= 1.0 + TOLERANCES["exact_guard_rel"]
    return float(delta), c1, C1, strict


def _window(space: QuasiMetricSpace, delta: float, c1: float, C1: float) -> tuple[int, int]:
    diam = space.diameter
    k = 0
    if diam > 0:
        while not c1 * delta**k > diam:
            k -= 1
        while c1 * delta ** (k + 1) > diam:
            k += 1
    k_min = k
    md = space.min_distance
    if not np.isfinite(md):
        return k_min, k_min
    k = k_min
    while not C1 * delta**k < md:
        k += 1
    return k_min, k


def _greedy_nets(space: QuasiMetricSpace, perm: np.ndarray,
                 k_min: int, k_max: int, delta: float) -> list[list[int]]:
    """The nested nets of generations k_min..k_max, coarsest first."""
    n = space.n
    d = space.dist
    in_net = np.zeros(n, dtype=bool)
    min_dist_to_net = np.full(n, np.inf)
    current: list[int] = []
    nets: list[list[int]] = []
    for k in range(k_min, k_max + 1):
        sep = delta**k
        for p in perm:
            p = int(p)
            if not in_net[p] and min_dist_to_net[p] >= sep:
                in_net[p] = True
                current.append(p)
                np.minimum(min_dist_to_net, d[p], out=min_dist_to_net)
        nets.append(list(current))
    return nets


def _nearest(d: np.ndarray, rank: np.ndarray, rows, net) -> np.ndarray:
    """Each row's nearest point of net, ties to the lowest rank."""
    net = np.asarray(net)[np.argsort(rank[net])]
    return net[d[np.ix_(rows, net)].argmin(axis=1)]


def build_system(space: QuasiMetricSpace, seed: int = 0, delta: float | None = None,
                 system_id: int = 0, x0: int | None = None) -> DyadicSystem:
    """Build one cube system; retries reseeded sweeps on a property failure.

    The window runs from one cube equal to the whole space down to a
    generation of singletons. x0 pins a point as the first sweep candidate
    of every attempt, so it joins every net and is a cube center at every
    generation.
    """
    delta, c1, C1, strict = dyadic_parameters(space.a0, delta)
    k_min, k_max = _window(space, delta, c1, C1)
    n = space.n
    if x0 is not None and not 0 <= x0 < n:
        raise BadParams("need 0 <= x0 < n", x0=x0, n=n)
    d = space.dist

    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(
            np.random.SeedSequence([_SALT_SYSTEM, seed, system_id, attempt]))
        perm = rng.permutation(n)
        if x0 is not None:
            perm = np.concatenate(([x0], perm[perm != x0]))
        perm_rank = np.empty(n, dtype=int)
        perm_rank[perm] = np.arange(n)
        nets = _greedy_nets(space, perm, k_min, k_max, delta)
        if len(nets[-1]) != n:
            raise CheckFailed(
                "finest_net",
                "finest net is not the whole space; window selection is broken",
                k_max=k_max, net_size=len(nets[-1]), n=n)

        # owner[gi, x] = center of the generation-(k_min + gi) cube holding x
        gens = k_max - k_min + 1
        owner = np.empty((gens, n), dtype=int)
        owner[-1] = np.arange(n)  # the finest net holds every point
        for gi in range(gens - 1, 0, -1):
            link = np.empty(n, dtype=int)  # valid on nets[gi] only
            link[nets[gi]] = _nearest(d, perm_rank, nets[gi], nets[gi - 1])
            owner[gi - 1] = link[owner[gi]]

        # ids run through each generation's centers in ascending order, and
        # a cube's parent is the next-coarser cube holding its center
        centers = [np.sort(net) for net in nets]
        start = np.cumsum([0] + [c.size for c in centers])
        label = np.array([start[gi] + np.searchsorted(c, owner[gi])
                          for gi, c in enumerate(centers)])
        parent = np.concatenate([np.full(centers[0].size, -1),
                                 *(label[gi, c] for gi, c in enumerate(centers[1:]))])
        # a cube's diameter: the largest distance between two of its members
        diameter = np.zeros(start[-1])
        for row in label:
            np.maximum.at(diameter, row,
                          np.where(row[:, None] == row, d, 0.0).max(axis=1))
        ks = np.repeat(np.arange(k_min, k_max + 1), np.diff(start))

        sys = DyadicSystem(space=space, system_id=system_id, seed=seed, delta=delta,
                           c1=c1, C1=C1, k_min=k_min, k_max=k_max, strict_delta=strict,
                           cubes=CubeTable(*map(_frozen, (ks, np.concatenate(centers),
                                                          diameter))),
                           label=_frozen(label), parent=_frozen(parent), x0=x0)
        bad = [r for r in sys.property_reports if not r.ok]
        if not bad:
            return sys
        last_failure = bad[0]

    raise CheckFailed(last_failure.name, f"property '{last_failure.name}' "
                      f"failed after {_MAX_ATTEMPTS} attempts",
                      **(last_failure.witness or {}))


# ---------------------------------------------------------------------------
# structural property checks
# ---------------------------------------------------------------------------

def check_partition(sys: DyadicSystem) -> CheckReport:
    """Every generation splits the space into pairwise disjoint cubes."""
    seen = np.zeros((sys.num_generations, sys.space.n), dtype=int)
    np.add.at(seen, sys.cubes.k - sys.k_min, sys.incidence)
    bad = np.argwhere(seen != 1)
    if bad.size:
        gi, x = (int(i) for i in bad[0])
        return outcome("partition", sys.strict_delta,
                       {"k": sys.k_min + gi, "x": x,
                        "multiplicity": int(seen[gi, x])})
    return outcome("partition", sys.strict_delta)


def check_nesting(sys: DyadicSystem) -> CheckReport:
    """Each cube lies inside a single cube of the previous generation:
    its parent, which holds every member."""
    for k in range(sys.k_min + 1, sys.k_max + 1):
        ids = np.arange(len(sys.cubes))[sys.generation(k)]
        inside, prev = sys.incidence[ids], sys.label[k - 1 - sys.k_min]
        held = np.where(inside, prev == sys.parent[ids, None], True)
        bad = np.flatnonzero(~(held.all(axis=1) & inside.any(axis=1)))
        if bad.size:
            owners = np.unique(prev[inside[bad[0]]])
            return outcome("nesting", sys.strict_delta,
                           {**sys.cubes.name(ids[bad[0]]),
                            "owners": sys.cubes.center[owners].tolist()})
    return outcome("nesting", sys.strict_delta)


def check_ball_sandwich(sys: DyadicSystem) -> CheckReport:
    """B(z, c1 d^k) inside the cube inside B(z, C1 d^k), strict balls."""
    missing = sys.balls(sys.c1) & ~sys.incidence
    excess = sys.incidence & ~sys.outer_balls
    bad = np.flatnonzero(missing.any(axis=1) | excess.any(axis=1))
    if bad.size:
        i = bad[0]
        side, key, points = (("inner", "missing", missing[i]) if missing[i].any()
                             else ("outer", "excess", excess[i]))
        return outcome("ball_sandwich", sys.strict_delta,
                       {**sys.cubes.name(i), "side": side,
                        key: np.flatnonzero(points).tolist()})
    return outcome("ball_sandwich", sys.strict_delta)


def check_outer_ball_nesting(sys: DyadicSystem) -> CheckReport:
    """The containing ball of a cube lies inside its parent's containing ball.

    Containment composes along ancestor chains, so the parent step implies the
    statement for every nested pair of cubes.
    """
    ids = np.flatnonzero(sys.parent >= 0)
    up = sys.parent[ids]
    escapes = sys.outer_balls[ids] & ~sys.outer_balls[up]
    bad = np.flatnonzero(escapes.any(axis=1))
    if bad.size:
        j = bad[0]
        return outcome("outer_ball_nesting", sys.strict_delta,
                       {**sys.cubes.name(ids[j]),
                        "parent_center": int(sys.cubes.center[up[j]]),
                        "escapes": int(np.argmax(escapes[j]))})
    return outcome("outer_ball_nesting", sys.strict_delta)


def check_center_chain(sys: DyadicSystem) -> CheckReport:
    """Every center recurs one generation finer, and owns itself there."""
    k, center, n = sys.cubes.k, sys.cubes.center, sys.space.n
    ids = np.flatnonzero(k < sys.k_max)
    z = center[ids]
    own = sys.label[k[ids] + 1 - sys.k_min, z]
    reasons = np.select(
        [~np.isin((k[ids] + 1) * n + z, k * n + center), center[own] != z,
         sys.parent[own] != ids],
        ["not a finer center", "not self-owned", "parent differs"], "")
    bad = np.flatnonzero(reasons != "")
    if bad.size:
        return outcome("center_chain", sys.strict_delta,
                       {**sys.cubes.name(ids[bad[0]]),
                        "reason": str(reasons[bad[0]])})
    return outcome("center_chain", sys.strict_delta)


_CHECKS = {
    "partition": check_partition,
    "nesting": check_nesting,
    "ball_sandwich": check_ball_sandwich,
    "outer_ball_nesting": check_outer_ball_nesting,
    "center_chain": check_center_chain,
}
PROPERTY_NAMES = tuple(_CHECKS)


def check_system(sys: DyadicSystem) -> list[CheckReport]:
    """Run all five structural checks, one report each."""
    return [check(sys) for check in _CHECKS.values()]


# ---------------------------------------------------------------------------
# adjacent families and ball coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoverageTable:
    """Read-only columns by regime row: ball center ``x``, band ``band_k``,
    radii (``lo``, ``hi``] and the cube: system ``t``, generation
    ``cube_k``, ``cube_center`` and ``diameter``."""

    x: np.ndarray
    band_k: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    t: np.ndarray
    cube_k: np.ndarray
    cube_center: np.ndarray
    diameter: np.ndarray

    def __len__(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class CoverageCertificate:
    """Replayable witness that every ball embeds in some system's cube.

    For each ball center and each radius regime (lo, hi] between consecutive
    distance values, one row of ``entries`` names a cube that contains the
    ball with diameter at most C_bound * lo. observed_C is the worst
    diameter / lo over rows with lo > 0; radii above the top band are
    covered by the whole space (r_large_ok), radii below the bottom band
    give singleton balls inside singleton cubes (r_small_ok).
    """

    C_bound: float
    observed_C: float
    num_systems: int
    entries: CoverageTable
    r_large_ok: bool
    r_small_ok: bool


@dataclass(frozen=True)
class AdjacentSystems:
    systems: tuple[DyadicSystem, ...]
    certificate: CoverageCertificate

    def __len__(self) -> int:
        return len(self.systems)

    def __iter__(self) -> Iterator[DyadicSystem]:
        return iter(self.systems)

    def __getitem__(self, t: int) -> DyadicSystem:
        return self.systems[t]


def coverage_bound(a0: float, delta: float) -> float:
    return 8.0 * a0**3 / delta**2


def _window_terms(systems) -> tuple[float, bool, bool] | None:
    """C_bound, r_large_ok and r_small_ok of the systems' shared space and
    window; None when they do not share one."""
    b = systems[0]
    if any(s.space is not b.space or (s.delta, s.k_min, s.k_max)
           != (b.delta, b.k_min, b.k_max) for s in systems[1:]):
        return None
    C = coverage_bound(b.space.a0, b.delta)
    return (C, b.space.diameter <= C * b.delta ** (b.k_min + 1),
            b.delta ** (b.k_max + 2) < b.space.min_distance)


def _regime_rows(sys: DyadicSystem):
    """(x, band_k, lo, hi) of every regime by (x, band_k, lo): band k's radii
    (delta^(k+2), delta^(k+1)] split at the distinct distances from x
    strictly inside."""
    space, k_max = sys.space, sys.k_max
    bands = np.arange(sys.k_min, k_max + 1)
    # Python-float powers, ascending: edge[j] = delta^(k_max + 2 - j)
    edge = np.array([sys.delta**e for e in range(k_max + 2, sys.k_min, -1)])
    c, v, _ = _ball_classes(space)
    j = np.searchsorted(edge, v)  # edge[j - 1] < v <= edge[j]
    inner = (j >= 1) & (j < edge.size) & (v != edge[np.minimum(j, edge.size - 1)])
    x = np.concatenate([np.repeat(space.points(), bands.size), c[inner]])
    band_k = np.concatenate([np.tile(bands, space.n), k_max + 1 - j[inner]])
    lo = np.concatenate([np.tile(edge[k_max - bands], space.n), v[inner]])
    rows = np.lexsort((lo, band_k, x))
    x, band_k, lo = x[rows], band_k[rows], lo[rows]
    hi = edge[k_max + 1 - band_k]  # the band's top edge, unless a next lo follows
    same = (x[1:] == x[:-1]) & (band_k[1:] == band_k[:-1])
    hi[:-1][same] = lo[1:][same]
    return x, band_k, lo, hi


def check_ball_coverage(systems: list[DyadicSystem] | tuple[DyadicSystem, ...]
                        ) -> tuple[CheckReport, CoverageCertificate | None]:
    """Certify that every strict ball embeds in one cube of one system.

    For a fixed center x the member set of B(x, r) is constant while r runs
    over (lo, hi] between consecutive distance values, and equals
    {y : dist(x, y) <= lo}. The diameter constraint diam(Q) <= C_bound * r is
    hardest as r decreases to lo, so testing at lo settles the whole regime.
    Candidate cubes are the containing cubes of x at the band generation of
    the regime and coarser, system by system; the first meeting both
    constraints certifies. x's cube holds the ball exactly when lo is below
    the distance from x to the nearest point outside it, so one pass per
    (system, generation) resolves every open row. The certificate is None
    exactly when the report fails, with the first failing row as witness.
    """
    if not systems:
        raise BadParams("need at least one system")
    terms = _window_terms(systems)
    if terms is None:
        raise BadParams("systems must share a space and a window")
    C, r_large_ok, r_small_ok = terms
    strict_mode = all(s.strict_delta for s in systems)
    if not (r_large_ok and r_small_ok):
        return outcome("ball_coverage", strict_mode, {
            "r_large_ok": r_large_ok, "r_small_ok": r_small_ok}), None

    d, k_min = systems[0].space.dist, systems[0].k_min
    x, band_k, lo, hi = _regime_rows(systems[0])
    t = np.full(x.size, -1)
    cube_k, center, diameter = np.zeros_like(t), np.zeros_like(t), np.zeros(x.size)
    for ti, sys in enumerate(systems):
        for gi in range(sys.num_generations - 1, -1, -1):
            rows = np.flatnonzero((t < 0) & (band_k - k_min >= gi))
            label = sys.label[gi]
            exit_dist = np.where(label[:, None] != label, d, np.inf).min(axis=1)
            i = label[x[rows]]
            ok = (sys.cubes.diameter[i] <= C * lo[rows]) & (lo[rows] < exit_dist[x[rows]])
            rows, i = rows[ok], i[ok]
            t[rows], cube_k[rows] = ti, k_min + gi
            center[rows], diameter[rows] = sys.cubes.center[i], sys.cubes.diameter[i]

    if (t < 0).any():
        r = np.argmax(t < 0)
        return outcome("ball_coverage", strict_mode,
                       {"x": int(x[r]), "band_k": int(band_k[r]), "lo": float(lo[r]),
                        "members": np.flatnonzero(d[x[r]] <= lo[r]).tolist()}), None
    observed = float(np.max(diameter[lo > 0] / lo[lo > 0], initial=0.0))
    cert = CoverageCertificate(C_bound=C, observed_C=observed,
                               num_systems=len(systems),
                               entries=CoverageTable(*map(_frozen, (
                                   x, band_k, lo, hi, t, cube_k, center, diameter))),
                               r_large_ok=r_large_ok, r_small_ok=r_small_ok)
    return outcome("ball_coverage", strict_mode, entries=x.size,
                   observed_C=observed, C_bound=C), cert


def replay_coverage(systems: list[DyadicSystem] | tuple[DyadicSystem, ...],
                    cert: CoverageCertificate) -> bool:
    """Re-verify every certificate row against its named cube.

    A ball's members are a prefix of ``space.index.order[x]``, so x's cube
    holds it when the cube's incidence runs along that order past the last
    point within lo. False also when the rows are not the space's regime
    rows in order, a cube is not named by a center of its generation, a
    diameter is not its cube's or exceeds C_bound * lo, or a scalar field
    disagrees with the systems and rows.
    """
    rows = cert.entries
    if not (systems and isinstance(rows, CoverageTable)
            and _window_terms(systems) == (cert.C_bound, True, True)
            and cert.r_large_ok and cert.r_small_ok
            and cert.num_systems == len(systems)):
        return False
    base = systems[0]
    n, k_min, order = base.space.n, base.k_min, base.space.index.order
    x, band_k, lo, hi = _regime_rows(base)
    t, cube_k, center, diameter = map(np.asarray, (
        rows.t, rows.cube_k, rows.cube_center, rows.diameter))
    if not (all(map(np.array_equal, (rows.x, rows.band_k, rows.lo, rows.hi),
                    (x, band_k, lo, hi)))
            and all(c.shape == x.shape and c.dtype.kind in "iu"
                    for c in (t, cube_k, center))
            and diameter.shape == x.shape
            and np.all((t >= 0) & (t < len(systems)) & (cube_k >= k_min)
                       & (cube_k <= base.k_max) & (center >= 0) & (center < n))
            and np.all(diameter <= cert.C_bound * lo)
            and cert.observed_C == np.max(diameter[lo > 0] / lo[lo > 0], initial=0.0)):
        return False
    # far[c, j]: the distance from c to the j-th point of order[c], inf at n
    far = np.column_stack([np.take_along_axis(base.space.dist, order, axis=1),
                           np.full(n, np.inf)])
    for ti, sys in enumerate(systems):
        sel = t == ti
        g, xs = cube_k[sel] - k_min, x[sel]
        cube = sys.label[g, center[sel]]
        # run[g, c]: how far c's generation-g cube runs along order[c]
        held = np.take_along_axis(sys.incidence[sys.label], order[None], axis=2)
        run = np.where(held.all(axis=2), n, held.argmin(axis=2))
        if not (np.array_equal(sys.cubes.center[cube], center[sel])
                and np.array_equal(cube, sys.label[g, xs])
                and np.array_equal(sys.cubes.diameter[cube], diameter[sel])
                and (lo[sel] < far[xs, run[g, xs]]).all()):
            return False
    return True


def build_adjacent_systems(space: QuasiMetricSpace, seed: int = 0,
                           delta: float | None = None,
                           num_systems: int | None = None,
                           max_systems: int = 12,
                           x0: int | None = None) -> AdjacentSystems:
    """Build seed-varied systems until ball coverage certifies.

    With num_systems fixed, exactly that many are built and a coverage
    failure raises. Otherwise systems are added one at a time up to
    max_systems before giving up. x0 pins a point as a center of every
    generation of every member system.
    """
    systems: list[DyadicSystem] = []
    target = num_systems if num_systems is not None else 1
    if target < 1:
        raise BadParams("need at least one system", num_systems=num_systems)
    while True:
        while len(systems) < target:
            systems.append(build_system(space, seed=seed, delta=delta,
                                        system_id=len(systems), x0=x0))
        report, cert = check_ball_coverage(systems)
        if cert is not None:
            return AdjacentSystems(systems=tuple(systems), certificate=cert)
        if num_systems is not None or target >= max_systems:
            raise CheckFailed(
                "ball_coverage",
                f"coverage incomplete with {len(systems)} systems",
                **(report.witness or {}))
        target += 1


# ---------------------------------------------------------------------------
# generalized cubes and cube combinatorics
# ---------------------------------------------------------------------------

def generalize(system: DyadicSystem, sigma: PointMeasure,
               omega: PointMeasure) -> tuple[int, ...]:
    """The joint atoms of the pair, the points both measures charge,
    ascending. The paper adds a point cube {x} at each; every finest cube
    of a built system is a singleton, so the generalized cubes are the
    system's own."""
    n = system.space.n
    for name, mv in (("sigma", sigma), ("omega", omega)):
        if mv.masses.shape != (n,):
            raise BadParams("measure does not match the space",
                            measure=name, size=mv.masses.shape, n=n)
    return tuple(np.flatnonzero(sigma.charged & omega.charged).tolist())


def maximal_cubes(system: DyadicSystem, chosen) -> np.ndarray:
    """The ids of the chosen cubes with no chosen proper ancestor, by
    (-size, id).

    ``chosen`` is a boolean mask over the system's cube ids. Member sets
    nest only along ``parent``, so the coarsest of equal member sets wins,
    every chosen cube lies in exactly one returned cube, and the returned
    cubes are disjoint.
    """
    chosen = np.asarray(chosen, dtype=bool)
    if chosen.shape != (len(system.cubes),):
        raise BadParams("mask does not match the cube ids",
                        size=chosen.shape, cubes=len(system.cubes))
    kept = np.flatnonzero(_maximal_mask(system.parent, chosen))
    return kept[np.argsort(-system.incidence[kept].sum(axis=1), kind="stable")]


def _maximal_mask(parent: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """chosen minus the cubes with a chosen proper ancestor, one pass per
    generation up ``parent``; a (rows, cubes) stack is walked at once."""
    above = np.zeros(chosen.shape, dtype=bool)
    anc = parent.copy()
    live = np.flatnonzero(anc >= 0)
    while live.size:
        above[..., live] |= chosen[..., anc[live]]
        anc[live] = parent[anc[live]]
        live = live[anc[live] >= 0]
    return chosen & ~above


def _family_systems(family) -> tuple[DyadicSystem, ...]:
    if isinstance(family, AdjacentSystems):
        return family.systems
    if isinstance(family, DyadicSystem):
        return (family,)
    systems = tuple(family)
    if not systems:
        raise BadParams("need at least one system")
    return systems
