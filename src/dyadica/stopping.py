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
function.  All set and measure identities here are checked exactly; the
analytic inequalities carry only a last-ulp roundoff guard, since the
source results hold in exact arithmetic with explicit constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import Cube, DyadicSystem, maximal_cubes
from .errors import (
    BadExponents,
    BadParams,
    BoundViolated,
    HypothesisViolated,
    MixedSystems,
    PrincipleViolated,
    PropertyViolation,
)
from .maximal import MaximalParams, _trial_functions, apply_M_dyadic
from .norms import lp_norm
from .policy import TOLERANCES, CheckReport, guard, guard_vec, outcome
from .space import PointMeasure

STOPPING_SALT = 0x5707


@dataclass
class LevelSetDecomposition:
    """Level set of a dyadic operator image and its maximal cube cover.

    omega_set lists the points where the image exceeds rho; q_rho holds
    the maximal generalized cubes whose omega mass outside the level set
    vanishes.  Construction re-verifies disjointness, containment of every
    candidate in a member, and the pointwise omega-mass identity between
    the level set and the union of the cover.
    """

    rho: float
    omega_set: tuple[int, ...]
    q_rho: tuple[Cube, ...]


def decompose_level_set(op, f, rho: float) -> LevelSetDecomposition:
    a = np.asarray(f, dtype=float)
    if np.any(a < 0):
        raise BadParams("need f >= 0")
    if not rho > 0:
        raise BadParams("need rho > 0", rho=rho)
    img = np.asarray(op.apply(a), dtype=float)
    in_omega = img > rho
    om = op.omega.masses
    candidates = []
    for cube in op.gen.cubes:
        outside = [y for y in cube.members if not in_omega[y]]
        if not outside or not np.any(om[outside] > 0.0):
            candidates.append(cube)
    q = maximal_cubes(candidates)
    kept = [set(c.members) for c in q]
    for c in candidates:
        if not any(set(c.members) <= s for s in kept):
            raise PropertyViolation("candidate cube escapes the maximal cover",
                                    k=c.k, center=c.center)
    in_union = np.zeros(a.size, dtype=bool)
    for cube in q:
        in_union[list(cube.members)] = True
    lhs = np.where(in_omega, om, 0.0)
    rhs = np.where(in_union, om, 0.0)
    if not np.array_equal(lhs, rhs):
        x = int(np.flatnonzero(lhs != rhs)[0])
        raise PropertyViolation(
            "level set and its cube cover disagree in omega mass",
            rho=rho, x=x, in_level_set=bool(in_omega[x]))
    return LevelSetDecomposition(
        rho=rho,
        omega_set=tuple(int(i) for i in np.flatnonzero(in_omega)),
        q_rho=q)


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


def rho_grid(op, f) -> np.ndarray:
    """Thresholds exercising every jump of the image: values x {1/2, 1, 2}."""
    img = np.asarray(op.apply(np.asarray(f, dtype=float)), dtype=float)
    vals = np.unique(img[img > 0.0])
    if not vals.size:
        return np.array([1.0])
    return np.unique(np.concatenate([0.5 * vals, vals, 2.0 * vals]))


def _principle_input(op, f, rho):
    a = np.asarray(f, dtype=float)
    if np.any(a < 0):
        raise BadParams("need f >= 0")
    if not rho > 0:
        raise BadParams("need rho > 0", rho=rho)
    return a


def check_max_principle_1(op, f, rho: float,
                          C: float | None = None) -> CheckReport:
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
    a = _principle_input(op, f, rho)
    dec = decompose_level_set(op, a, rho / C)
    bound = rho / 2.0
    worst, witness = -math.inf, None
    for cube in dec.q_rho:
        off = np.ones(a.size)
        off[list(cube.members)] = 0.0
        img = np.asarray(op.apply(a * off), dtype=float)
        for x in cube.members:
            val = float(img[x])
            if val > worst:
                worst = val
            if witness is None and val > guard(bound):
                witness = {"k": cube.k, "center": cube.center, "x": x,
                           "value": val, "bound": bound}
    status = "vacuous" if not dec.q_rho else ("fail" if witness else "pass")
    return CheckReport(name="max_principle_1", status=status, witness=witness,
                       details={"rho": rho, "C": C, "bound": bound,
                                "worst": worst, "cubes": len(dec.q_rho)},
                       error=PrincipleViolated)


def check_max_principle_2(op, f, rho: float,
                          C_m: float | None = None) -> CheckReport:
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
    a = _principle_input(op, f, rho)
    dec = decompose_level_set(op, a, rho / C_m)
    in_omega = np.asarray(op.apply(a), dtype=float) > rho
    bound = rho / 2.0
    checked, witness = 0, None
    worst = math.inf
    for cube in dec.q_rho:
        chi = np.zeros(a.size)
        chi[list(cube.members)] = 1.0
        img = np.asarray(op.apply(a * chi), dtype=float)
        for x in cube.members:
            if not in_omega[x]:
                continue
            checked += 1
            val = float(img[x])
            if val < worst:
                worst = val
            if witness is None and not val > bound * (
                    1.0 - TOLERANCES["exact_guard_rel"]):
                witness = {"k": cube.k, "center": cube.center, "x": x,
                           "value": val, "bound": bound}
    status = "vacuous" if checked == 0 else ("fail" if witness else "pass")
    return CheckReport(name="max_principle_2", status=status, witness=witness,
                       details={"rho": rho, "C_m": C_m, "bound": bound,
                                "worst": worst if checked else None,
                                "points": checked},
                       error=PrincipleViolated)


@dataclass
class PrincipalFamily:
    """Stopping-time cubes of strictly more than doubling averages.

    cubes is the family sorted by id, i.e. by (generation, center);
    averages holds, by cube id, the sigma-average of every positive-mass
    standard cube encountered and NaN elsewhere.  pi(Q) walks Q's parent
    chain to the finest principal cube containing Q.
    """

    system: DyadicSystem
    sigma: PointMeasure
    cubes: tuple[Cube, ...]
    averages: np.ndarray = field(repr=False)

    def average(self, cube: Cube) -> float:
        return float(self.averages[cube.id])

    def pi(self, cube: Cube) -> Cube:
        if cube.system_id != self.system.system_id:
            raise MixedSystems(cube_system=cube.system_id,
                               system=self.system.system_id)
        principal = {c.id for c in self.cubes}
        i = cube.id
        while i >= 0:
            if i in principal:
                return self.system.cubes[i]
            i = self.system.parent[i]
        raise PropertyViolation("cube has no principal ancestor",
                                k=cube.k, center=cube.center)


def _sigma_average(a: np.ndarray, sigma: PointMeasure, cube: Cube) -> float:
    idx = list(cube.members)
    return float(np.sum(a[idx] * sigma.masses[idx])) / sigma.of(cube.members)


def build_principal_cubes(system: DyadicSystem, sigma: PointMeasure,
                          f) -> PrincipalFamily:
    """Greedy stopping family: descendants that more than double the average.

    Starting from the top cube, a cube becomes principal when its average
    strictly exceeds twice the average of the innermost principal cube
    above it; the search then continues below with the new reference.
    Sigma-null cubes cannot stop and are pruned together with their whole
    subtree (additivity leaves no positive-mass descendants).  Both family
    invariants are re-verified on the result, with no tolerance: the
    defining comparisons are replayed literally, so they must hold bit for
    bit.
    """
    a = np.asarray(f, dtype=float)
    if np.any(a < 0):
        raise BadParams("need f >= 0")
    if a.size != system.space.n:
        raise BadParams("function size does not match the space", size=a.size)
    averages = np.full(len(system.cubes), np.nan)
    principal: list[Cube] = []
    top = system.top
    if sigma.of(top.members) > 0:
        a_top = _sigma_average(a, sigma, top)
        averages[top.id] = a_top
        principal.append(top)
        work = [(c, a_top) for c in system.children(top)]
        while work:
            cube, ref = work.pop()
            if sigma.of(cube.members) == 0.0:
                continue
            avg = _sigma_average(a, sigma, cube)
            averages[cube.id] = avg
            if avg > 2.0 * ref:
                principal.append(cube)
                ref = avg
            work.extend((c, ref) for c in system.children(cube))
    fam = PrincipalFamily(system=system, sigma=sigma,
                          cubes=tuple(sorted(principal, key=lambda c: c.id)),
                          averages=averages)
    _check_principal_invariants(fam)
    return fam


def _check_principal_invariants(fam: PrincipalFamily) -> None:
    cubes = fam.cubes
    for outer in cubes:
        s_out = set(outer.members)
        a_out = fam.average(outer)
        for inner in cubes:
            if inner is outer or not set(inner.members) < s_out:
                continue
            if not fam.average(inner) > 2.0 * a_out:
                raise PropertyViolation(
                    "nested principal cubes fail to double the average",
                    inner=(inner.k, inner.center), outer=(outer.k, outer.center))
    for cube in fam.system.cubes:
        if np.isnan(fam.averages[cube.id]):
            continue
        if not fam.average(cube) <= 2.0 * fam.average(fam.pi(cube)):
            raise PropertyViolation(
                "cube average exceeds twice its principal ancestor",
                k=cube.k, center=cube.center)


def check_mainlemma(system: DyadicSystem, collection, sigma: PointMeasure,
                    f, p: float) -> CheckReport:
    """Average sums over a strictly-doubling family against the maximal bound.

    Verifies the hypotheses first: distinct member sets, positive sigma
    mass on every cube, and nested pairs strictly more than doubling the
    average.  Then at every point the sum of the p-th powers of the
    averages over member cubes containing it is at most exactly twice the
    p-th power of the dyadic sigma-maximal function, up to last-ulp
    roundoff.
    """
    if not 1.0 <= p < math.inf:
        raise BadExponents("need 1 <= p < inf", p=p)
    a = np.asarray(f, dtype=float)
    if np.any(a < 0):
        raise BadParams("need f >= 0")
    cubes = list(collection)
    for cube in cubes:
        if cube.system_id != system.system_id:
            raise MixedSystems(cube_system=cube.system_id,
                               system=system.system_id)
    if len({c.members for c in cubes}) != len(cubes):
        raise HypothesisViolated("collection repeats a member set")
    for cube in cubes:
        if sigma.of(cube.members) == 0.0:
            raise HypothesisViolated("collection contains a sigma-null cube",
                                     k=cube.k, center=cube.center)
    avgs = {c.members: _sigma_average(a, sigma, c) for c in cubes}
    for outer in cubes:
        s_out = set(outer.members)
        for inner in cubes:
            if inner is outer or not set(inner.members) < s_out:
                continue
            if not avgs[inner.members] > 2.0 * avgs[outer.members]:
                raise HypothesisViolated(
                    "nested pair does not strictly double the average",
                    inner=(inner.k, inner.center), outer=(outer.k, outer.center))
    lhs = np.zeros(a.size)
    for cube in cubes:
        idx = list(cube.members)
        lhs[idx] += avgs[cube.members] ** p
    params = MaximalParams(space=system.space, mu=sigma, gamma=0.0)
    rhs = 2.0 * apply_M_dyadic(system, params, a) ** p
    ok = lhs <= guard_vec(rhs)
    if not np.all(ok):
        x = int(np.flatnonzero(~ok)[0])
        raise BoundViolated("average sum exceeds twice the maximal power",
                            x=x, lhs=float(lhs[x]), rhs=float(rhs[x]))
    with np.errstate(invalid="ignore"):
        ratios = np.where(rhs > 0.0, lhs / rhs, 0.0)
    return CheckReport(name="mainlemma", status="pass",
                       details={"p": p, "cubes": len(cubes),
                                "max_ratio_of_two": float(np.max(ratios))
                                if ratios.size else 0.0})


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
