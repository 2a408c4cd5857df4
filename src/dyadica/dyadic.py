"""Hierarchical cube decompositions of a finite quasi-metric space.

A system holds one partition of the space per generation k in a finite
window [k_min, k_max]. Generation k groups points around a delta^k-separated
net of centers; nets are nested (coarse centers persist into finer nets),
each net point links to its nearest next-coarser net point, and a point's
cube at generation k is the set of points whose ancestor chain passes
through the same center. The window is chosen so the coarsest generation is
one cube equal to the whole space and the finest consists of singletons.

A cube is an integer id. The system stores one cube table, ``cubes``,
sorted by (k, center) so that ``cubes[i].id == i`` and ``generation(k)`` is
a slice of it; one label array, ``label[k - k_min, x]`` = the id of the
generation-k cube containing x; and one parent array, ``parent[i]`` = the
id of cube i's parent, -1 at the coarsest generation. Per-cube tables
elsewhere (envelope values, cube sums, stopping-time averages) are arrays
indexed by id.

Geometry constants are calibrated as

    c1 = 1 / (12 a0^4),   C1 = 4 a0^2,   96 a0^6 delta <= 1,

where a0 is the quasi-triangle constant. Under that calibration a built
system satisfies the five structural properties enforced by check_system:
each generation partitions the space, generations are nested, every cube is
sandwiched between the strict balls of radii c1 delta^k and C1 delta^k
around its center, containing balls grow monotonically along ancestry, and
every center persists to the next finer generation. A caller may relax
delta; reports produced under a relaxed delta are marked non-strict and
construction retries reseeded sweeps before giving up.

A family of systems built from varied seeds is "adjacent" when every ball
B(x, r) embeds in a single cube of one of the systems whose diameter is at
most C r with C = 8 a0^3 / delta^2. Finiteness makes this checkable exactly:
for a fixed center the strict-ball member set is constant while the radius
runs between consecutive distance values, so check_ball_coverage enumerates
those finitely many member sets, searches each system's containing cubes for
an embedding with the diameter bound, and emits a replayable certificate
with the worst observed diameter ratio.

Two optional build knobs: pinning a point makes it a cube center at every
generation (it is swept first, so every net keeps it), and a truncated
window stops refinement early, leaving non-singleton finest cubes. A pair
of measures extends a system with point cubes at the joint atoms that are
not already singleton cubes; their ids follow the last standard cube, and
``GeneralizedSystem.parent`` extends the parent array to them.
``maximal_cubes(system, chosen)`` reads containment off ``parent``: it
returns the chosen cubes with no chosen proper ancestor.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterator

import numpy as np

from .errors import (
    BadParams,
    CoverageIncomplete,
    MixedSystems,
    OutOfRange,
    PropertyViolation,
    SamePoint,
)
from .policy import TOLERANCES, CheckReport, outcome
from .space import PointMeasure, QuasiMetricSpace, _frozen, ball

_SALT_SYSTEM = 0xD7AD

PROPERTY_NAMES = (
    "partition",
    "nesting",
    "ball_sandwich",
    "outer_ball_nesting",
    "center_chain",
)


@dataclass(frozen=True)
class Cube:
    system_id: int
    id: int
    k: int
    center: int
    members: tuple[int, ...]
    diameter: float

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members


_cube_k = attrgetter("k")


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
    # sorted by (k, center): cubes[i].id == i
    cubes: tuple[Cube, ...] = field(repr=False)
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
            raise OutOfRange(k=k, k_min=self.k_min, k_max=self.k_max)
        return k - self.k_min

    def generation(self, k: int) -> slice:
        """The ids of the generation-k cubes, as a slice of ``cubes``."""
        self._gi(k)
        return slice(bisect_left(self.cubes, k, key=_cube_k),
                     bisect_right(self.cubes, k, key=_cube_k))

    def containing_cube(self, k: int, x: int) -> Cube:
        return self.cubes[self.label[self._gi(k), x]]

    @property
    def top(self) -> Cube:
        return self.cubes[0]

    def leaf(self, x: int) -> Cube:
        return self.containing_cube(self.k_max, x)

    def _own(self, cube: Cube) -> None:
        # another system's cube, or a point cube, is not cubes[cube.id]
        if not (cube.id < len(self.cubes) and self.cubes[cube.id] == cube):
            raise MixedSystems(cube_system=cube.system_id, system=self.system_id,
                               k=cube.k, center=cube.center)

    def children(self, cube: Cube) -> tuple[Cube, ...]:
        """The cubes whose parent is ``cube``, in id (= center) order."""
        self._own(cube)
        return tuple(self.cubes[i] for i in np.flatnonzero(self.parent == cube.id))

    def cube_chain(self, x: int) -> tuple[Cube, ...]:
        """Cubes containing x, coarsest first."""
        return tuple(self.cubes[i] for i in self.label[:, x])

    def smallest_common_cube(self, x: int, y: int) -> Cube:
        """Finest-generation cube containing both points; requires x != y."""
        if x == y:
            raise SamePoint(x=x)
        for row in self.label[::-1]:
            if row[x] == row[y]:
                return self.cubes[row[x]]
        raise PropertyViolation("no common cube; coarsest generation is not the whole space",
                                x=x, y=y)

    @cached_property
    def size_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The cubes grouped by size m, as read-only (ids, members[k x m])."""
        sizes = np.array([c.size for c in self.cubes])
        groups = []
        for m in np.unique(sizes):
            ids = np.flatnonzero(sizes == m)
            members = np.array([self.cubes[i].members for i in ids])
            groups.append((_frozen(ids), _frozen(members)))
        return tuple(groups)

    def outer_ball_radius(self, k: int) -> float:
        return self.C1 * self.delta**k

    def outer_ball_members(self, cube: Cube) -> tuple[int, ...]:
        """Strict ball around the cube center guaranteed to contain the cube."""
        return ball(self.space, cube.center, self.outer_ball_radius(cube.k)).members


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


def build_system(space: QuasiMetricSpace, seed: int = 0, delta: float | None = None,
                 system_id: int = 0, max_attempts: int = 8,
                 x0: int | None = None, k_max: int | None = None) -> DyadicSystem:
    """Build one cube system; retries reseeded sweeps on a property failure.

    x0 pins a point as the first sweep candidate of every attempt, so it
    joins every net and is a cube center at every generation. k_max asks for
    a coarser finest generation; the value is clamped to the computed window
    and a truncated finest generation may keep non-singleton cubes.
    """
    if max_attempts < 1:
        raise BadParams("need at least one attempt", max_attempts=max_attempts)
    delta, c1, C1, strict = dyadic_parameters(space.a0, delta)
    k_min, k_auto = _window(space, delta, c1, C1)
    if k_max is None:
        k_max = k_auto
    else:
        k_max = int(min(max(k_max, k_min), k_auto))
    n = space.n
    if x0 is not None and not 0 <= x0 < n:
        raise OutOfRange(x0=x0, n=n)
    d = space.dist

    for attempt in range(max_attempts):
        rng = np.random.default_rng(
            np.random.SeedSequence([_SALT_SYSTEM, seed, system_id, attempt]))
        perm = rng.permutation(n)
        if x0 is not None:
            perm = np.concatenate(([x0], perm[perm != x0]))
        perm_rank = np.empty(n, dtype=int)
        perm_rank[perm] = np.arange(n)
        nets = _greedy_nets(space, perm, k_min, k_max, delta)
        if k_max == k_auto and len(nets[-1]) != n:
            raise PropertyViolation(
                "finest net is not the whole space; window selection is broken",
                k_max=k_max, net_size=len(nets[-1]), n=n)

        # owner[gi, x] = center of the generation-(k_min + gi) cube holding x
        gens = k_max - k_min + 1
        owner = np.empty((gens, n), dtype=int)
        fin = np.asarray(nets[-1])
        for x in range(n):
            dd = d[x, fin]
            best = np.lexsort((perm_rank[fin], dd))[0]
            owner[gens - 1, x] = fin[best]
        for gi in range(gens - 1, 0, -1):
            prev = np.asarray(nets[gi - 1])
            link = np.empty(n, dtype=int)  # valid on nets[gi] only
            for z in nets[gi]:
                dd = d[z, prev]
                best = np.lexsort((perm_rank[prev], dd))[0]
                link[z] = prev[best]
            owner[gi - 1] = link[owner[gi]]

        cubes: list[Cube] = []
        label = np.empty((gens, n), dtype=int)
        parent = []
        for gi in range(gens):
            for z in sorted(nets[gi]):
                inside = owner[gi] == z
                members = tuple(int(i) for i in np.flatnonzero(inside))
                if not members:
                    raise PropertyViolation("net point owns no cube",
                                            k=k_min + gi, center=z)
                diam = float(d[np.ix_(members, members)].max()) if len(members) > 1 else 0.0
                label[gi, inside] = len(cubes)
                parent.append(int(label[gi - 1, z]) if gi else -1)
                cubes.append(Cube(system_id=system_id, id=len(cubes), k=k_min + gi,
                                  center=z, members=members, diameter=diam))

        sys = DyadicSystem(space=space, system_id=system_id, seed=seed, delta=delta,
                           c1=c1, C1=C1, k_min=k_min, k_max=k_max, strict_delta=strict,
                           cubes=tuple(cubes), label=label, parent=np.asarray(parent),
                           x0=x0)
        bad = [r for r in check_system(sys) if not r.ok]
        if not bad:
            return sys
        last_failure = bad[0]

    raise PropertyViolation(f"property '{last_failure.name}' failed after "
                            f"{max_attempts} attempts",
                            **(last_failure.witness or {}))


# ---------------------------------------------------------------------------
# structural property checks
# ---------------------------------------------------------------------------

def check_partition(sys: DyadicSystem) -> CheckReport:
    """Every generation splits the space into pairwise disjoint cubes."""
    seen = np.zeros((sys.num_generations, sys.space.n), dtype=int)
    for cube in sys.cubes:
        for x in cube.members:
            seen[cube.k - sys.k_min, x] += 1
    bad = np.argwhere(seen != 1)
    if bad.size:
        gi, x = (int(i) for i in bad[0])
        return outcome("partition", sys.strict_delta, PropertyViolation,
                       {"k": sys.k_min + gi, "x": x,
                        "multiplicity": int(seen[gi, x])})
    return outcome("partition", sys.strict_delta, PropertyViolation)


def check_nesting(sys: DyadicSystem) -> CheckReport:
    """Each cube lies inside a single cube of the previous generation."""
    for cube in sys.cubes:
        up = sys.parent[cube.id]
        if up < 0:
            continue
        owners = np.unique(sys.label[cube.k - 1 - sys.k_min, list(cube.members)])
        if owners.size != 1 or owners[0] != up:
            return outcome("nesting", sys.strict_delta, PropertyViolation,
                           {"k": cube.k, "center": cube.center,
                            "owners": [sys.cubes[o].center for o in owners]})
    return outcome("nesting", sys.strict_delta, PropertyViolation)


def check_ball_sandwich(sys: DyadicSystem) -> CheckReport:
    """B(z, c1 d^k) inside the cube inside B(z, C1 d^k), strict balls."""
    d = sys.space.dist
    for cube in sys.cubes:
        inner = set(np.flatnonzero(d[cube.center] < sys.c1 * sys.delta**cube.k))
        outer = set(np.flatnonzero(d[cube.center] < sys.C1 * sys.delta**cube.k))
        mem = set(cube.members)
        if not inner <= mem:
            return outcome("ball_sandwich", sys.strict_delta, PropertyViolation,
                           {"k": cube.k, "center": cube.center, "side": "inner",
                            "missing": sorted(inner - mem)})
        if not mem <= outer:
            return outcome("ball_sandwich", sys.strict_delta, PropertyViolation,
                           {"k": cube.k, "center": cube.center, "side": "outer",
                            "excess": sorted(mem - outer)})
    return outcome("ball_sandwich", sys.strict_delta, PropertyViolation)


def check_outer_ball_nesting(sys: DyadicSystem) -> CheckReport:
    """The containing ball of a cube lies inside its parent's containing ball.

    Containment composes along ancestor chains, so the parent step implies the
    statement for every nested pair of cubes.
    """
    d = sys.space.dist
    for cube in sys.cubes:
        if sys.parent[cube.id] < 0:
            continue
        par = sys.cubes[sys.parent[cube.id]]
        inner = np.flatnonzero(d[cube.center] < sys.outer_ball_radius(cube.k))
        outer = d[par.center, inner] < sys.outer_ball_radius(par.k)
        if not outer.all():
            y = int(inner[~outer][0])
            return outcome("outer_ball_nesting", sys.strict_delta,
                           PropertyViolation,
                           {"k": cube.k, "center": cube.center,
                            "parent_center": par.center, "escapes": y})
    return outcome("outer_ball_nesting", sys.strict_delta, PropertyViolation)


def check_center_chain(sys: DyadicSystem) -> CheckReport:
    """Every center recurs one generation finer, and owns itself there."""
    for k in range(sys.k_min, sys.k_max):
        finer = {c.center for c in sys.cubes[sys.generation(k + 1)]}
        for cube in sys.cubes[sys.generation(k)]:
            z = cube.center
            own = sys.containing_cube(k + 1, z)
            if z not in finer:
                reason = "not a finer center"
            elif own.center != z:
                reason = "not self-owned"
            elif sys.parent[own.id] != cube.id:
                reason = "parent differs"
            else:
                continue
            return outcome("center_chain", sys.strict_delta, PropertyViolation,
                           {"k": k, "center": z, "reason": reason})
    return outcome("center_chain", sys.strict_delta, PropertyViolation)


_CHECKS = {
    "partition": check_partition,
    "nesting": check_nesting,
    "ball_sandwich": check_ball_sandwich,
    "outer_ball_nesting": check_outer_ball_nesting,
    "center_chain": check_center_chain,
}


def check_system(sys: DyadicSystem) -> list[CheckReport]:
    """Run all five structural checks, one report each."""
    return [_CHECKS[name](sys) for name in PROPERTY_NAMES]


# ---------------------------------------------------------------------------
# adjacent families and ball coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageEntry:
    x: int
    band_k: int
    lo: float
    hi: float
    t: int
    cube_k: int
    cube_center: int
    diameter: float


@dataclass(frozen=True)
class CoverageCertificate:
    """Replayable witness that every ball embeds in some system's cube.

    For each ball center and each radius regime (lo, hi] between consecutive
    distance values, one entry names a cube that contains the ball with
    diameter at most C_bound * lo. observed_C is the worst diameter / lo over
    entries with lo > 0; radii above the top band are covered by the whole
    space (r_large_ok), radii below the bottom band give singleton balls
    inside singleton cubes (r_small_ok).
    """

    C_bound: float
    observed_C: float
    num_systems: int
    entries: tuple[CoverageEntry, ...]
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


def check_ball_coverage(systems: list[DyadicSystem] | tuple[DyadicSystem, ...]
                        ) -> tuple[CheckReport, CoverageCertificate | None]:
    """Certify that every strict ball embeds in one cube of one system.

    For a fixed center x the member set of B(x, r) is constant while r runs
    over (lo, hi] between consecutive distance values, and equals
    {y : dist(x, y) <= lo}. The diameter constraint diam(Q) <= C_bound * r is
    hardest as r decreases to lo, so testing at lo settles the whole regime.
    Candidate cubes are the containing cubes of x at the band generation of
    the regime and coarser; any candidate meeting both constraints certifies.
    The certificate is None exactly when the report fails.
    """
    if not systems:
        raise BadParams("need at least one system")
    base = systems[0]
    for s in systems[1:]:
        if (s.space is not base.space or s.delta != base.delta
                or s.k_min != base.k_min or s.k_max != base.k_max):
            raise BadParams("systems must share a space and a window")
    space = base.space
    delta, k_min, k_max = base.delta, base.k_min, base.k_max
    C = coverage_bound(space.a0, delta)
    d = space.dist
    n = space.n
    strict_mode = all(s.strict_delta for s in systems)

    r_large_ok = space.diameter <= C * delta ** (k_min + 1)
    r_small_ok = delta ** (k_max + 2) < space.min_distance
    if not (r_large_ok and r_small_ok):
        return outcome("ball_coverage", strict_mode, CoverageIncomplete,
                       {"r_large_ok": r_large_ok,
                        "r_small_ok": r_small_ok}), None

    entries: list[CoverageEntry] = []
    observed = 0.0
    for x in range(n):
        dist_vals = np.unique(d[x])
        for k in range(k_min, k_max + 1):
            lo_edge = delta ** (k + 2)
            hi_edge = delta ** (k + 1)
            interior = dist_vals[(dist_vals > lo_edge) & (dist_vals < hi_edge)]
            edges = [lo_edge, *[float(a) for a in interior], hi_edge]
            for lo, hi in zip(edges[:-1], edges[1:]):
                members = np.flatnonzero(d[x] <= lo)
                hit = None
                for t, sys in enumerate(systems):
                    for gi in range(k - k_min, -1, -1):
                        i = sys.label[gi, x]
                        cube = sys.cubes[i]
                        if cube.diameter <= C * lo and np.all(sys.label[gi, members] == i):
                            hit = CoverageEntry(x=x, band_k=k, lo=lo, hi=hi, t=t,
                                                cube_k=cube.k, cube_center=cube.center,
                                                diameter=cube.diameter)
                            break
                    if hit is not None:
                        break
                if hit is None:
                    return outcome("ball_coverage", strict_mode,
                                   CoverageIncomplete,
                                   {"x": x, "band_k": k, "lo": lo,
                                    "members": [int(m) for m in members]}), None
                entries.append(hit)
                if lo > 0:
                    observed = max(observed, hit.diameter / lo)

    cert = CoverageCertificate(C_bound=C, observed_C=observed,
                               num_systems=len(systems), entries=tuple(entries),
                               r_large_ok=r_large_ok, r_small_ok=r_small_ok)
    return outcome("ball_coverage", strict_mode, CoverageIncomplete,
                   entries=len(entries), observed_C=observed, C_bound=C), cert


def replay_coverage(systems: list[DyadicSystem] | tuple[DyadicSystem, ...],
                    cert: CoverageCertificate) -> bool:
    """Re-verify every certificate entry against the named cubes."""
    if not systems:
        return False
    space = systems[0].space
    d = space.dist
    C = cert.C_bound
    for e in cert.entries:
        if not 0 <= e.t < len(systems):
            return False
        sys = systems[e.t]
        if not (sys.k_min <= e.cube_k <= sys.k_max and 0 <= e.cube_center < space.n):
            return False
        cube = sys.cubes[sys.label[e.cube_k - sys.k_min, e.cube_center]]
        if cube.center != e.cube_center:
            return False
        members = set(np.flatnonzero(d[e.x] <= e.lo))
        if not members <= set(cube.members):
            return False
        if cube.diameter > C * e.lo or cube.diameter != e.diameter:
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
            raise CoverageIncomplete(
                f"coverage incomplete with {len(systems)} systems",
                **(report.witness or {}))
        target += 1


# ---------------------------------------------------------------------------
# generalized cubes and cube combinatorics
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GeneralizedSystem:
    """A cube system extended with point cubes at the joint atoms of two measures.

    A point x is a joint atom when both measures charge it. Joint atoms whose
    singleton {x} is not already the member set of a standard cube gain a
    point cube one generation past the window; with a full window every
    finest cube is a singleton and no point cubes are added. Point cubes
    take the ids after the last standard cube, so a point cube never
    indexes a row of a table over the standard cubes. ``parent`` is the
    base system's parent array followed, for each point cube, by the id of
    the finest standard cube holding its center.
    """

    base: DyadicSystem
    sigma: PointMeasure
    omega: PointMeasure
    joint_atoms: tuple[int, ...]
    point_cubes: tuple[Cube, ...]
    parent: np.ndarray = field(repr=False)

    @property
    def space(self) -> QuasiMetricSpace:
        return self.base.space

    @property
    def cubes(self) -> tuple[Cube, ...]:
        """Standard cubes, then point cubes; cubes[i].id == i."""
        return self.base.cubes + self.point_cubes

    def is_joint_atom(self, x: int) -> bool:
        return bool(self.sigma.masses[x] > 0 and self.omega.masses[x] > 0)


def generalize(system: DyadicSystem, sigma: PointMeasure,
               omega: PointMeasure) -> GeneralizedSystem:
    n = system.space.n
    for name, mv in (("sigma", sigma), ("omega", omega)):
        if mv.masses.shape != (n,):
            raise BadParams("measure does not match the space",
                            measure=name, size=mv.masses.shape, n=n)
    joint = tuple(int(x) for x in np.flatnonzero(sigma.charged & omega.charged))
    singleton_sets = {c.members for c in system.cubes if c.size == 1}
    alone = [x for x in joint if (x,) not in singleton_sets]
    extra = tuple(Cube(system_id=system.system_id, id=len(system.cubes) + i,
                       k=system.k_max + 1, center=x, members=(x,), diameter=0.0)
                  for i, x in enumerate(alone))
    parent = np.concatenate([system.parent, system.label[-1, alone]])
    return GeneralizedSystem(base=system, sigma=sigma, omega=omega,
                             joint_atoms=joint, point_cubes=extra, parent=parent)


def maximal_cubes(system, chosen) -> tuple[Cube, ...]:
    """The chosen cubes with no chosen proper ancestor, by (-size, id).

    ``system`` is a DyadicSystem or a GeneralizedSystem and ``chosen`` a
    boolean mask over its cube ids. Member sets nest only along ``parent``,
    so the coarsest of equal member sets wins, every chosen cube lies in
    exactly one returned cube, and the returned cubes are disjoint.
    """
    cubes = system.cubes
    chosen = np.asarray(chosen, dtype=bool)
    if chosen.shape != (len(cubes),):
        raise BadParams("mask does not match the cube ids",
                        size=chosen.shape, cubes=len(cubes))
    parent = system.parent
    above = np.zeros(len(cubes), dtype=bool)
    anc = parent.copy()
    live = np.flatnonzero(anc >= 0)
    while live.size:
        above[live] |= chosen[anc[live]]
        anc[live] = parent[anc[live]]
        live = live[anc[live] >= 0]
    kept = np.flatnonzero(chosen & ~above)
    return tuple(cubes[i] for i in sorted(kept.tolist(),
                                          key=lambda i: (-cubes[i].size, i)))


def _family_systems(family) -> tuple[DyadicSystem, ...]:
    if isinstance(family, AdjacentSystems):
        return family.systems
    if isinstance(family, DyadicSystem):
        return (family,)
    systems = tuple(family)
    if not systems:
        raise BadParams("need at least one system")
    return systems
