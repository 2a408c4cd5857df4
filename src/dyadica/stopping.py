"""Level-set decompositions, maximum principles, and principal cubes.

The level set of a dyadic potential operator is covered, up to omega-null
sets, by the maximal generalized cubes whose part outside the set carries
no omega mass.  That cover feeds the two maximum principles: on a level
cube of the lowered threshold, mass from outside the cube contributes at
most half the threshold, and consequently the localized operator stays
above half the threshold on the part of the cube inside the original level
set.  Principal cubes implement the stopping-time family whose averages
strictly more than double along nesting, and the summation lemma bounds
the resulting average sums by twice the p-th power of the dyadic maximal
function.  Containment between cubes is read off ``parent`` alone, and a
decomposition keeps its image T f, which the second principle reads.  The
level-set entry points take that image as ``image`` when the caller has
it, so one T f serves every threshold of the same f.  All
set and measure identities here are checked exactly; the analytic
inequalities carry only a last-ulp roundoff guard, since the source
results hold in exact arithmetic with explicit constants.  The checks
return a ``CheckReport`` whether the inequality holds or fails, marked
non-strict under a relaxed delta where their constants depend on it;
only broken hypotheses and malformed input raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import Cube, DyadicSystem, GeneralizedSystem, maximal_cubes
from .errors import (
    BadExponents,
    BadParams,
    BoundViolated,
    HypothesisViolated,
    PrincipleViolated,
    PropertyViolation,
)
from .maximal import MaximalParams, _trial_functions, apply_M_dyadic
from .norms import lp_norm
from .policy import TOLERANCES, CheckReport, guard, guard_vec, outcome
from .space import PointMeasure

STOPPING_SALT = 0x5707


def _nonnegative(f, rho: float | None = None) -> np.ndarray:
    a = np.asarray(f, dtype=float)
    if np.any(a < 0):
        raise BadParams("need f >= 0")
    if rho is not None and not rho > 0:
        raise BadParams("need rho > 0", rho=rho)
    return a


@dataclass
class LevelSetDecomposition:
    """Level set of a dyadic operator image and its maximal cube cover.

    image is T f; omega_set lists the points where it exceeds rho; q_rho
    holds the maximal generalized cubes whose omega mass outside the level
    set vanishes, by (-size, k, center).  Construction re-checks, as array
    comparisons, that no point lies in two cover cubes, that no candidate
    cube holds an uncovered point, and the pointwise omega-mass identity
    between the level set and the union of the cover.
    """

    rho: float
    omega_set: tuple[int, ...]
    q_rho: tuple[Cube, ...]
    image: np.ndarray = field(repr=False)


def _cubes_holding(gen: GeneralizedSystem, points: np.ndarray) -> np.ndarray:
    """Mask over the cube ids of gen: the cubes holding a masked point."""
    hit = np.zeros(len(gen.cubes), dtype=bool)
    hit[gen.base.label[:, points].ravel()] = True
    centers = [c.center for c in gen.point_cubes]
    hit[len(gen.base.cubes):] = points[centers]
    return hit


def decompose_level_set(op, f, rho: float,
                        image: np.ndarray | None = None) -> LevelSetDecomposition:
    a = _nonnegative(f, rho)
    img = np.asarray(op.apply(a) if image is None else image, dtype=float)
    in_omega = img > rho
    om = op.omega.masses
    ruled_out = _cubes_holding(op.gen, ~in_omega & (om > 0.0))
    q = maximal_cubes(op.gen, ~ruled_out)
    count = np.zeros(a.size, dtype=int)
    for cube in q:
        count[list(cube.members)] += 1
    if np.any(count > 1):
        raise PropertyViolation("maximal cubes overlap",
                                x=int(np.flatnonzero(count > 1)[0]))
    escaped = ~ruled_out & _cubes_holding(op.gen, count == 0)
    if escaped.any():
        c = op.gen.cubes[int(np.flatnonzero(escaped)[0])]
        raise PropertyViolation("candidate cube escapes the maximal cover",
                                k=c.k, center=c.center)
    lhs = np.where(in_omega, om, 0.0)
    rhs = np.where(count > 0, om, 0.0)
    if not np.array_equal(lhs, rhs):
        x = int(np.flatnonzero(lhs != rhs)[0])
        raise PropertyViolation(
            "level set and its cube cover disagree in omega mass",
            rho=rho, x=x, in_level_set=bool(in_omega[x]))
    return LevelSetDecomposition(
        rho=rho,
        omega_set=tuple(int(i) for i in np.flatnonzero(in_omega)),
        q_rho=q, image=img)


@dataclass(frozen=True)
class ShellParams:
    """Constants for the maximum principles derived from the kernel bound.

    n is an integer with 2^(n-1) >= 2 C_K and C_m >= 2 C_K is the level
    lowering factor; the default C_m = 2^(n-1) keeps both inequalities
    tight simultaneously.
    """

    C_K: float
    n: int
    C_m: float

    def __post_init__(self):
        if self.n < 2 or not 2.0 ** (self.n - 1) >= 2.0 * self.C_K:
            raise BadParams("need n >= 2 with 2^(n-1) >= 2 C_K",
                            n=self.n, C_K=self.C_K)
        if self.C_m < 2.0 * self.C_K:
            raise BadParams("need C_m >= 2 C_K", C_m=self.C_m, C_K=self.C_K)


def shell_params(C_K: float) -> ShellParams:
    """Smallest admissible shell constants for a kernel bound C_K >= 1."""
    if not (math.isfinite(C_K) and C_K >= 1.0):
        raise BadParams("need finite C_K >= 1", C_K=C_K)
    n = 2
    while 2.0 ** (n - 1) < 2.0 * C_K:
        n += 1
    return ShellParams(C_K=C_K, n=n, C_m=2.0 ** (n - 1))


def rho_grid(op, f, image: np.ndarray | None = None) -> np.ndarray:
    """Thresholds exercising every jump of the image: values x {1/2, 1, 2}."""
    img = np.asarray(op.apply(np.asarray(f, dtype=float)) if image is None
                     else image, dtype=float)
    vals = np.unique(img[img > 0.0])
    if not vals.size:
        return np.array([1.0])
    return np.unique(np.concatenate([0.5 * vals, vals, 2.0 * vals]))


def _principle_sweep(op, f, rho: float, C: float, localized: bool, violates,
                     image):
    """Decompose at rho/C, then apply op to f off each cover cube (on it,
    if localized, reading only points whose image exceeds rho); values in
    q_rho-then-member order, witness at the first that ``violates``.

    On a cube holding every point, f restricted to the cube is f itself,
    so its image is the one the decomposition already holds."""
    a = _nonnegative(f, rho)
    dec = decompose_level_set(op, a, rho / C, image)
    values, witness = [], None
    for cube in dec.q_rho:
        if localized and cube.size == a.size:
            img = dec.image
        else:
            chi = np.zeros(a.size)
            chi[list(cube.members)] = 1.0
            img = np.asarray(op.apply(a * chi if localized
                                      else a * (1.0 - chi)), dtype=float)
        for x in cube.members:
            if localized and not dec.image[x] > rho:
                continue
            val = float(img[x])
            values.append(val)
            if witness is None and violates(val):
                witness = {"k": cube.k, "center": cube.center, "x": x,
                           "value": val, "bound": rho / 2.0}
    return dec, values, witness


def check_max_principle_1(op, f, rho: float, C: float | None = None,
                          image: np.ndarray | None = None) -> CheckReport:
    """Off-cube mass is small on level cubes of the lowered threshold.

    For every Q in q_{rho/C} with C >= 2 C_K, the operator applied to f
    killed on Q is at most rho/2 at every point of Q.  Vacuous when the
    lowered level set has no cubes.  A failure names the first violating
    point in q_rho-then-member order.
    """
    if C is None:
        C = 2.0 * op.C_K
    if C < 2.0 * op.C_K:
        raise BadParams("need C >= 2 C_K", C=C, C_K=op.C_K)
    bound = rho / 2.0
    dec, values, witness = _principle_sweep(
        op, f, rho, C, False, lambda val: val > guard(bound), image)
    status = "vacuous" if not dec.q_rho else ("fail" if witness else "pass")
    return CheckReport("max_principle_1", status, op.system.strict_delta,
                       witness, {"rho": rho, "C": C, "bound": bound,
                                 "worst": max([-math.inf, *values]),
                                 "cubes": len(dec.q_rho)}, PrincipleViolated)


def check_max_principle_2(op, f, rho: float, C_m: float | None = None,
                          image: np.ndarray | None = None) -> CheckReport:
    """Localized operator stays above rho/2 inside the original level set.

    For every Q in q_{rho/C_m} and every x in Q that also lies in the
    level set at rho itself, the operator applied to f restricted to Q
    exceeds rho/2 strictly.  Vacuous when no such point exists.  A failure
    names the first violating point in q_rho-then-member order.
    """
    if C_m is None:
        C_m = shell_params(op.C_K).C_m
    if C_m < 2.0 * op.C_K:
        raise BadParams("need C_m >= 2 C_K", C_m=C_m, C_K=op.C_K)
    bound = rho / 2.0
    floor = bound * (1.0 - TOLERANCES["exact_guard_rel"])
    _, values, witness = _principle_sweep(
        op, f, rho, C_m, True, lambda val: not val > floor, image)
    status = "vacuous" if not values else ("fail" if witness else "pass")
    return CheckReport("max_principle_2", status, op.system.strict_delta,
                       witness, {"rho": rho, "C_m": C_m, "bound": bound,
                                 "worst": min(values) if values else None,
                                 "points": len(values)}, PrincipleViolated)


@dataclass
class PrincipalFamily:
    """Stopping-time cubes of strictly more than doubling averages.

    cubes is the family sorted by id, i.e. by (generation, center);
    averages holds, by cube id, the sigma-average of every positive-mass
    standard cube and NaN elsewhere; principal_of holds, by cube id, the
    id of the finest principal cube containing it, or -1 when none does.
    pi(Q) looks Q up in principal_of.
    """

    system: DyadicSystem
    sigma: PointMeasure
    cubes: tuple[Cube, ...]
    averages: np.ndarray = field(repr=False)
    principal_of: np.ndarray = field(repr=False)

    def average(self, cube: Cube) -> float:
        return float(self.averages[cube.id])

    def pi(self, cube: Cube) -> Cube:
        self.system._own(cube)
        i = self.principal_of[cube.id]
        if i < 0:
            raise PropertyViolation("cube has no principal ancestor",
                                    k=cube.k, center=cube.center)
        return self.system.cubes[i]


def _sigma_average(a: np.ndarray, sigma: PointMeasure, cube: Cube) -> float:
    idx = list(cube.members)
    return float(np.sum(a[idx] * sigma.masses[idx])) / sigma.of(cube.members)


def _require_doubling(system: DyadicSystem, cubes, avgs, error, message):
    """Raise ``error`` at the first nested pair whose average fails to double.

    A pair is (outer, inner) with outer a proper ancestor of inner holding
    more members, found by walking ``parent``.  Every pair replays
    avgs[inner] > 2 avgs[outer] literally, in (outer, inner) collection
    order; ``avgs`` is aligned with ``cubes``.
    """
    at = {c.id: j for j, c in enumerate(cubes)}
    pairs = []
    for j, inner in enumerate(cubes):
        i = system.parent[inner.id]
        while i >= 0:
            o = at.get(int(i))
            if o is not None and cubes[o].size > inner.size:
                pairs.append((o, j))
            i = system.parent[i]
    for o, j in sorted(pairs):
        if not avgs[j] > 2.0 * avgs[o]:
            raise error(message, inner=(cubes[j].k, cubes[j].center),
                        outer=(cubes[o].k, cubes[o].center))


def build_principal_cubes(system: DyadicSystem, sigma: PointMeasure,
                          f) -> PrincipalFamily:
    """Greedy stopping family: descendants that more than double the average.

    The top cube is principal when it has sigma mass; below it, a cube
    becomes principal when its average strictly exceeds twice the average
    of the finest principal cube above it.  One pass in id order visits
    parents before their children.  Sigma-null cubes cannot stop and have
    no average (additivity leaves their descendants null too).  Both
    family invariants are re-verified on the result, with no tolerance:
    the defining comparisons are replayed literally, so they must hold bit
    for bit.
    """
    a = _nonnegative(f)
    if a.size != system.space.n:
        raise BadParams("function size does not match the space", size=a.size)
    averages = np.full(len(system.cubes), np.nan)
    principal_of = np.full(len(system.cubes), -1)
    principal: list[Cube] = []
    for cube in system.cubes:
        up = system.parent[cube.id]
        ref = principal_of[up] if up >= 0 else -1
        principal_of[cube.id] = ref
        if sigma.of(cube.members) == 0.0:
            continue
        avg = averages[cube.id] = _sigma_average(a, sigma, cube)
        if up < 0 or avg > 2.0 * averages[ref]:
            principal.append(cube)
            principal_of[cube.id] = cube.id
    fam = PrincipalFamily(system=system, sigma=sigma, cubes=tuple(principal),
                          averages=averages, principal_of=principal_of)
    _check_principal_invariants(fam)
    return fam


def _check_principal_invariants(fam: PrincipalFamily) -> None:
    _require_doubling(fam.system, fam.cubes,
                      fam.averages[[c.id for c in fam.cubes]],
                      PropertyViolation,
                      "nested principal cubes fail to double the average")
    ids = np.flatnonzero(~np.isnan(fam.averages))
    ok = fam.averages[ids] <= 2.0 * fam.averages[fam.principal_of[ids]]
    if not ok.all():
        cube = fam.system.cubes[ids[~ok][0]]
        raise PropertyViolation(
            "cube average exceeds twice its principal ancestor",
            k=cube.k, center=cube.center)


def check_mainlemma(system: DyadicSystem, collection, sigma: PointMeasure,
                    f, p: float) -> CheckReport:
    """Average sums over a strictly-doubling family against the maximal bound.

    Verifies the hypotheses first: every cube is one of the system's own
    standard cubes (a point cube or another system's cube raises
    MixedSystems), distinct member sets, positive sigma mass on every
    cube, and nested pairs strictly more than doubling the average.  Then
    at every point the sum of the p-th powers of the averages over member
    cubes containing it is at most exactly twice the p-th power of the
    dyadic sigma-maximal function, up to last-ulp roundoff; a failed
    report names the first point that exceeds it.
    """
    if not 1.0 <= p < math.inf:
        raise BadExponents("need 1 <= p < inf", p=p)
    a = _nonnegative(f)
    cubes = list(collection)
    for cube in cubes:
        system._own(cube)
    if len({c.members for c in cubes}) != len(cubes):
        raise HypothesisViolated("collection repeats a member set")
    for cube in cubes:
        if sigma.of(cube.members) == 0.0:
            raise HypothesisViolated("collection contains a sigma-null cube",
                                     k=cube.k, center=cube.center)
    avgs = [_sigma_average(a, sigma, c) for c in cubes]
    _require_doubling(system, cubes, avgs, HypothesisViolated,
                      "nested pair does not strictly double the average")
    lhs = np.zeros(a.size)
    for cube, avg in zip(cubes, avgs):
        lhs[list(cube.members)] += avg ** p
    params = MaximalParams(space=system.space, mu=sigma, gamma=0.0)
    rhs = 2.0 * apply_M_dyadic(system, params, a) ** p
    bad = np.flatnonzero(~(lhs <= guard_vec(rhs)))
    witness = None
    if bad.size:
        x = int(bad[0])
        witness = {"x": x, "lhs": float(lhs[x]), "rhs": float(rhs[x])}
    ratios = np.divide(lhs, rhs, out=np.zeros(lhs.size), where=rhs > 0.0)
    return outcome("mainlemma", system.strict_delta, BoundViolated, witness,
                   p=p, cubes=len(cubes),
                   max_ratio_of_two=float(np.max(ratios))
                   if ratios.size else 0.0)


def check_universal_maximal(system: DyadicSystem, w: PointMeasure, p: float,
                            trials: int = 100, seed: int = 0) -> CheckReport:
    """Dyadic maximal bound with the universal constant p' = p/(p-1).

    Runs the constant function, every point mass, then seeded random
    functions, and checks the strong norm of the w-maximal function is at
    most p' times the norm of the input, up to last-ulp roundoff.  A
    failure names the first trial that overshoots.
    """
    if not 1.0 < p < math.inf:
        raise BadExponents("need 1 < p < inf", p=p)
    p_prime = p / (p - 1.0)
    params = MaximalParams(space=system.space, mu=w, gamma=0.0)
    worst = 0.0
    for t, f in enumerate(_trial_functions(system.space.n, trials,
                                           STOPPING_SALT, seed)):
        lhs = lp_norm(apply_M_dyadic(system, params, f), w, p)
        rhs = p_prime * lp_norm(f, w, p)
        # p' bounds the dyadic maximal function of any nested partition,
        # so a relaxed delta does not qualify this check
        if lhs > guard(rhs):
            return outcome("universal_maximal", True, BoundViolated,
                           {"trial": t, "lhs": lhs, "rhs": rhs,
                            "p_prime": p_prime})
        if rhs > 0.0:
            worst = max(worst, lhs / rhs)
    return outcome("universal_maximal", True, BoundViolated, p=p,
                   p_prime=p_prime, trials=trials, max_ratio_of_p_prime=worst)
