"""Level-set decompositions, maximum principles, and principal cubes.

The level set of a dyadic potential operator is covered, up to omega-null
sets, by the maximal cubes whose part outside the set carries no omega
mass.  That cover feeds the two maximum principles: on a level cube of the
lowered threshold, mass from outside the cube contributes at most half the
threshold, and consequently the localized operator stays above half the
threshold on the part of the cube inside the original level set.
Principal cubes implement the stopping-time family whose averages
strictly more than double along nesting, and the summation lemma bounds
the resulting average sums by twice the p-th power of the dyadic maximal
function.  Containment between cubes is read off ``parent`` alone, and
one ``LevelSets`` per f serves every threshold of a principle check.  All
set and measure identities here are checked exactly; the analytic
inequalities carry only a last-ulp roundoff guard, since the source
results hold in exact arithmetic with explicit constants; the second
principle's C_m defaults to the least power of two >= max(2, 2 C_K).  The
checks return a ``CheckReport`` whether the inequality holds or fails,
marked non-strict under a relaxed delta where their constants depend on
it; only broken hypotheses and malformed input raise, as ``CheckFailed``
and ``BadParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicSystem, _maximal_mask, maximal_cubes
from .errors import BadParams, CheckFailed
from .maximal import MaximalParams, _trial_functions, apply_M_dyadic
from .norms import _BLOCK_ELEMS, Exponents, lp_norm
from .policy import TOLERANCES, CheckReport, guard_vec, outcome
from .space import PointMeasure

STOPPING_SALT = 0x5707


def _nonnegative(f, n: int) -> np.ndarray:
    """f as a float array of shape (n,) with no negative value."""
    a = np.asarray(f, dtype=float)
    if a.shape != (n,):
        raise BadParams("function size does not match the space",
                        shape=a.shape)
    if np.any(a < 0):
        raise BadParams("need f >= 0")
    return a


def _inputs(op, f, image: np.ndarray | None):
    """(f, T f), checked; T f, as given or applied, must have f's shape."""
    f = _nonnegative(f, op.omega.masses.size)
    image = np.asarray(op.apply(f) if image is None else image, dtype=float)
    if image.shape != f.shape:
        raise BadParams("image size does not match the space",
                        shape=image.shape)
    return f, image


@dataclass
class LevelSetDecomposition:
    """Level set of a dyadic operator image and its maximal cube cover.

    image is T f; omega_set lists the points where it exceeds rho; q_rho
    holds the ids of the maximal cubes whose omega mass outside the level
    set vanishes, by (-size, id), checked as ``LevelSets.covers``.
    """

    rho: float
    omega_set: tuple[int, ...]
    q_rho: np.ndarray
    image: np.ndarray = field(repr=False)


class LevelSets:
    """Every level set {T f > t} of one image: the candidates at t are the
    cubes whose ``low``, the minimum of T f over their omega-charged
    members (+inf if none), exceeds t, read through the system's
    ``label``; in a cover, the id len(cubes) marks an uncovered point."""

    def __init__(self, op, f, image: np.ndarray | None = None):
        self.op, sys = op, op.system
        self.f, self.image = _inputs(op, f, image)
        self.cubes, m, self.label = sys.cubes, len(sys.cubes), sys.label
        self.low = np.full(m, np.inf)
        np.minimum.at(self.low, self.label, np.broadcast_to(np.where(
            op.omega.charged, self.image, np.inf), self.label.shape))
        self.sizes = np.bincount(self.label.ravel(), minlength=m + 1)

    def covers(self, rhos: np.ndarray, C: float = 1.0):
        """(rows, kept, cover) per block of <= 2^15 gathered entries: the
        maximal candidates at rhos/C and the one holding each point.  Every
        rho must be > 0; each row re-checks that no point is in two cover
        cubes, no candidate holds an uncovered point, and the omega-mass
        identity, and the first broken row raises."""
        bad = ~(rhos > 0)
        if bad.any():
            raise BadParams("need rho > 0", rho=float(rhos[np.argmax(bad)]))
        h, m, at = self.label, len(self.cubes), np.arange(self.f.size)
        om, step = self.op.omega.masses, max(1, _BLOCK_ELEMS // h.size)
        for j0 in range(0, len(rhos), step):
            t = rhos[j0:j0 + step, None] / C
            cand, in_omega = self.low > t, self.image > t
            kept = _maximal_mask(self.op.system.parent, cand)
            hits = kept[:, h]
            count = hits.sum(axis=1)
            escaped = np.where(cand[:, h] & (count == 0)[:, None], h,
                               m).min(axis=(1, 2))
            mass = np.where(in_omega, om, 0.0) != np.where(count > 0, om, 0.0)
            bad = (count > 1).any(axis=1) | (escaped < m) | mass.any(axis=1)
            if bad.any():
                j = int(np.argmax(bad))
                if (count[j] > 1).any():
                    raise CheckFailed("cover_disjoint", "maximal cubes overlap",
                                      x=int(np.argmax(count[j] > 1)))
                if escaped[j] < m:
                    raise CheckFailed("cover_maximal", "candidate cube escapes "
                                      "the maximal cover",
                                      **self.cubes.name(escaped[j]))
                x = int(np.argmax(mass[j]))
                raise CheckFailed(
                    "cover_mass",
                    "level set and its cube cover disagree in omega mass",
                    rho=float(t[j, 0]), x=x, in_level_set=bool(in_omega[j, x]))
            cover = np.where(count > 0, h[hits.argmax(axis=1), at], m)
            yield slice(j0, j0 + len(t)), kept, cover


def _outcome(reports) -> CheckReport:
    """The first failing report, else the first passing one, else the first."""
    return min(reports,
               key=lambda r: ("fail", "pass", "vacuous").index(r.status))


def _principle(name, op, f, rho, C, localized, violates, details, image):
    """The report at each threshold of rho: op applied to f off (on, if
    localized, where T f > rho) each cube of q_{rho/C}, one apply per row
    block; a whole-space cube reads 0 (T f).  A fail names the first value
    that ``violates`` in q_rho-then-member order."""
    rhos = np.asarray(rho, dtype=float).reshape(-1)
    if not rhos.size:
        raise BadParams("need a threshold")
    levels = LevelSets(op, f, image)
    n, M, reports = levels.f.size, levels.sizes.size, []
    at, none = np.arange(n), M * M * n  # above every key
    for rows, kept, cover in levels.covers(rhos, C):
        ids = np.flatnonzero(kept.any(axis=0) & (levels.sizes[:-1] < n))
        slot, table = np.zeros(M, dtype=int), np.zeros((ids.size + 1, n))
        slot[ids] = range(1, ids.size + 1)
        table[0] = levels.image if localized else 0.0
        if ids.size:
            chi = np.zeros(table.shape, dtype=bool)
            chi[slot[levels.label], at] = True
            table[1:] = op.apply(np.where(chi[1:] == localized, levels.f, 0.0))
        vals, covered = table[slot[cover], at], cover < M - 1
        if localized:
            covered &= levels.image > rhos[rows, None]
        # q_rho-then-member order: (-size, id) of the cube, then x
        first = np.where(covered & violates(vals, rhos[rows, None] / 2.0),
                         ((n - levels.sizes[cover]) * M + cover) * n + at,
                         none).min(axis=1)
        for j, (r, cubes) in enumerate(zip(rhos[rows].tolist(),
                                           kept.sum(axis=1).tolist())):
            values, x, witness = vals[j, covered[j]], first[j] % n, None
            if first[j] < none:
                witness = {**levels.cubes.name(cover[j, x]), "x": int(x),
                           "value": float(vals[j, x]), "bound": r / 2.0}
            reports.append(CheckReport(
                name, "fail" if witness else
                ("pass" if values.size else "vacuous"),
                op.system.strict_delta, witness, details(r, cubes, values)))
    return reports


def decompose_level_set(op, f, rho: float,
                        image: np.ndarray | None = None) -> LevelSetDecomposition:
    levels = LevelSets(op, f, image)
    for _ in levels.covers(np.array([rho], dtype=float)):
        pass
    return LevelSetDecomposition(
        rho=rho, omega_set=tuple(np.flatnonzero(levels.image > rho).tolist()),
        q_rho=maximal_cubes(op.system, levels.low > rho), image=levels.image)


def default_C_m(C_K: float) -> float:
    """Default C_m for a kernel bound C_K >= 1: least 2^k >= max(2, 2 C_K)."""
    if not (math.isfinite(C_K) and C_K >= 1.0):
        raise BadParams("need finite C_K >= 1", C_K=C_K)
    C_m = 2.0
    while C_m < 2.0 * C_K:
        C_m *= 2.0
    return C_m


def rho_grid(op, f, image: np.ndarray | None = None) -> np.ndarray:
    """Thresholds exercising every jump of the image: values x {1/2, 1, 2}."""
    img = _inputs(op, f, image)[1]
    vals = np.unique(img[img > 0.0])
    if not vals.size:
        return np.array([1.0])
    return np.unique(np.concatenate([0.5 * vals, vals, 2.0 * vals]))


def check_max_principle_1(op, f, rho, C: float | None = None,
                          image: np.ndarray | None = None) -> CheckReport:
    """Off-cube mass is small on level cubes of the lowered threshold.

    For every Q in q_{rho/C} with C >= 2 C_K, the operator applied to f
    killed on Q is at most rho/2 at every point of Q.  Vacuous when the
    lowered level set has no cubes.  A failure names the first violating
    point in q_rho-then-member order.  An array of thresholds is checked
    at once and reports its first fail, else its first pass, else its
    first threshold; a broken cover at any of them raises.
    """
    C = 2.0 * op.C_K if C is None else C
    if C < 2.0 * op.C_K:
        raise BadParams("need C >= 2 C_K", C=C, C_K=op.C_K)
    return _outcome(_principle(
        "max_principle_1", op, f, rho, C, False,
        lambda vals, bound: vals > guard_vec(bound),
        lambda rho, cubes, vals: {
            "rho": rho, "C": C, "bound": rho / 2.0,
            "worst": float(vals.max(initial=-math.inf)), "cubes": cubes},
        image))


def check_max_principle_2(op, f, rho, C_m: float | None = None,
                          image: np.ndarray | None = None) -> CheckReport:
    """Localized operator stays above rho/2 inside the original level set.

    For every Q in q_{rho/C_m} and every x in Q that also lies in the
    level set at rho itself, the operator applied to f restricted to Q
    exceeds rho/2 strictly.  Vacuous when no such point exists.  A failure
    names the first violating point in q_rho-then-member order.  An array
    of thresholds is checked as in ``check_max_principle_1``.
    """
    C_m = default_C_m(op.C_K) if C_m is None else C_m
    if C_m < 2.0 * op.C_K:
        raise BadParams("need C_m >= 2 C_K", C_m=C_m, C_K=op.C_K)
    floor = 1.0 - TOLERANCES["exact_guard_rel"]
    return _outcome(_principle(
        "max_principle_2", op, f, rho, C_m, True,
        lambda vals, bound: ~(vals > bound * floor),
        lambda rho, _, vals: {
            "rho": rho, "C_m": C_m, "bound": rho / 2.0,
            "worst": float(vals.min()) if vals.size else None,
            "points": vals.size}, image))


@dataclass
class PrincipalFamily:
    """Stopping-time cubes of strictly more than doubling averages.

    cubes holds the family's ids in ascending order, i.e. by (generation,
    center); averages holds, by cube id, the sigma-average of every
    positive-mass standard cube and NaN elsewhere; principal_of holds, by
    cube id, the id of the finest principal cube containing it, or -1 when
    none does. pi(Q) looks the id Q up in principal_of.
    """

    system: DyadicSystem
    sigma: PointMeasure
    cubes: np.ndarray
    averages: np.ndarray = field(repr=False)
    principal_of: np.ndarray = field(repr=False)

    def average(self, i: int) -> float:
        return float(self.averages[self.system._own(i)])

    def pi(self, i: int) -> int:
        j = self.principal_of[self.system._own(i)]
        if j < 0:
            raise CheckFailed("principal_ancestor", "cube has no principal "
                              "ancestor", **self.system.cubes.name(i))
        return int(j)


def _sigma_averages(system: DyadicSystem, sigma: PointMeasure, a: np.ndarray):
    """(sigma masses, sigma-averages of a) by cube id; NaN on null cubes."""
    mass = system.cube_totals(sigma.masses)
    return mass, np.divide(system.cube_totals(a * sigma.masses), mass,
                           out=np.full(mass.size, np.nan), where=mass != 0.0)


def _require_doubling(system: DyadicSystem, cubes, avgs, check, message):
    """Raise CheckFailed(check) at the first nested pair whose average fails
    to double.

    A pair is (outer, inner) with inner's members a proper subset of
    outer's: cubes of one system nest along ``parent``, so outer is a proper
    ancestor of inner holding more members.  Every pair replays
    avgs[inner] > 2 avgs[outer] literally, in (outer, inner) collection
    order; ``avgs`` is aligned with the ids ``cubes``.
    """
    members = system.incidence[cubes].astype(int)
    size = members.sum(axis=1)
    inside = (members @ members.T == size) & (size[:, None] > size)
    name = system.cubes.name
    for o, j in np.argwhere(inside):
        if not avgs[j] > 2.0 * avgs[o]:
            raise CheckFailed(check, message,
                              inner=tuple(name(cubes[j]).values()),
                              outer=tuple(name(cubes[o]).values()))


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
    a = _nonnegative(f, system.space.n)
    mass, averages = _sigma_averages(system, sigma, a)
    principal_of = np.full(len(system.cubes), -1)
    for i, up in enumerate(system.parent.tolist()):
        ref = principal_of[i] = principal_of[up] if up >= 0 else -1
        if mass[i] != 0.0 and (ref < 0 or averages[i] > 2.0 * averages[ref]):
            principal_of[i] = i
    fam = PrincipalFamily(system=system, sigma=sigma,
                          cubes=np.flatnonzero(principal_of == np.arange(mass.size)),
                          averages=averages, principal_of=principal_of)
    _check_principal_invariants(fam)
    return fam


def _check_principal_invariants(fam: PrincipalFamily) -> None:
    _require_doubling(fam.system, fam.cubes, fam.averages[fam.cubes],
                      "principal_doubling",
                      "nested principal cubes fail to double the average")
    ids = np.flatnonzero(~np.isnan(fam.averages))
    ok = fam.averages[ids] <= 2.0 * fam.averages[fam.principal_of[ids]]
    if not ok.all():
        raise CheckFailed(
            "principal_bound",
            "cube average exceeds twice its principal ancestor",
            **fam.system.cubes.name(ids[~ok][0]))


def check_mainlemma(system: DyadicSystem, collection, sigma: PointMeasure,
                    f, p: float) -> CheckReport:
    """Average sums over a strictly-doubling family against the maximal bound.

    ``collection`` holds cube ids.  Verifies the hypotheses first: every
    id is one of the system's own cube ids (BadParams for a negative id
    or any id past the last cube), distinct member sets, positive sigma
    mass on every cube, and nested pairs strictly more than doubling the
    average.  Then at every point the sum of the p-th powers of the averages over member
    cubes containing it is at most exactly twice the p-th power of the
    dyadic sigma-maximal function, up to last-ulp roundoff; a failed
    report names the first point that exceeds it.
    """
    if not 1.0 <= p < math.inf:
        raise BadParams("need 1 <= p < inf", p=p)
    a = _nonnegative(f, system.space.n)
    cubes = system._own(collection)
    members = system.incidence[cubes]
    if len(np.unique(members, axis=0)) != len(cubes):
        raise CheckFailed("distinct_member_sets",
                          "collection repeats a member set")
    mass, averages = _sigma_averages(system, sigma, a)
    null = cubes[mass[cubes] == 0.0]
    if null.size:
        raise CheckFailed("positive_sigma_mass", "collection contains a "
                          "sigma-null cube", **system.cubes.name(null[0]))
    avgs = averages[cubes].tolist()
    _require_doubling(system, cubes, avgs, "strict_doubling",
                      "nested pair does not strictly double the average")
    lhs = np.zeros(a.size)
    for row, avg in zip(members, avgs):
        lhs[row] += avg ** p
    params = MaximalParams(space=system.space, mu=sigma, gamma=0.0)
    rhs = 2.0 * apply_M_dyadic(system, params, a) ** p
    bad = np.flatnonzero(~(lhs <= guard_vec(rhs)))
    witness = None
    if bad.size:
        x = int(bad[0])
        witness = {"x": x, "lhs": float(lhs[x]), "rhs": float(rhs[x])}
    ratios = np.divide(lhs, rhs, out=np.zeros(lhs.size), where=rhs > 0.0)
    return outcome("mainlemma", system.strict_delta, witness, p=p,
                   cubes=len(cubes), max_ratio_of_two=float(np.max(ratios))
                   if ratios.size else 0.0)


def check_universal_maximal(system: DyadicSystem, w: PointMeasure, p: float,
                            trials: int = 100, seed: int = 0) -> CheckReport:
    """Dyadic maximal bound with the universal constant p' = p/(p-1).

    Runs the constant function, every point mass, then seeded random
    functions, all as one block, and checks the strong norm of the
    w-maximal function is at most p' times the norm of the input, up to
    last-ulp roundoff.  A failure names the first trial that overshoots.
    """
    p_prime = Exponents(p, p).p_prime
    params = MaximalParams(space=system.space, mu=w, gamma=0.0)
    F = _trial_functions(system.space.n, trials, STOPPING_SALT, seed)
    lhs = lp_norm(apply_M_dyadic(system, params, F), w, p)
    rhs = p_prime * lp_norm(F, w, p)
    # p' bounds the dyadic maximal function of any nested partition,
    # so a relaxed delta does not qualify this check
    over = np.flatnonzero(lhs > guard_vec(rhs))
    if over.size:
        t = int(over[0])
        return outcome("universal_maximal", True,
                       {"trial": t, "lhs": float(lhs[t]), "rhs": float(rhs[t]),
                        "p_prime": p_prime})
    worst = max([0.0, *(lhs[rhs > 0.0] / rhs[rhs > 0.0]).tolist()])
    return outcome("universal_maximal", True, p=p, p_prime=p_prime,
                   trials=trials, max_ratio_of_p_prime=worst)
