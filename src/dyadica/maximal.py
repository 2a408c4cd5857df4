"""Fractional maximal operators and their two-weight characterization.

The ball-based operator takes, at each point, the largest gamma-fractional
average over balls containing it.  On a finite space the supremum over all
balls reduces to finitely many distinct member sets: for every center the
strict balls are exactly the tie-closed prefixes of that center's distance
ordering, so the operator is computed exactly, not sampled, in a few
(n x n) passes over the rows of ``QuasiMetricSpace.index``.  The dyadic
variant replaces balls by the cubes of one system, summed per
``DyadicSystem.size_groups``, and the two are pointwise comparable with
explicit constants on doubling instances; ``check_maximal_equivalence``
reports that comparison as a ``CheckReport`` like every other check.  The
doubling constant is a property of (space, mu): ``MaximalParams`` measures
it on first read, and a system must be built on the params' own space.

The two-weight boundedness verdict follows the dual weight reduction: with
u the Radon-Nikodym derivative of the base measure against the source
weight and v = u^{1/(p-1)} on its support, the testing functions chi_Q v
are fed to the norm optimizer as mandatory seeds, which keeps the exact
testing supremum structurally below the certified norm lower bound.  When
absolute continuity fails the verdict flips to the necessity branch and
exhibits a violating indicator function instead.  One ``MaximalParams``
serves the whole verdict and is returned with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import Cube, DyadicSystem, _family_systems
from .errors import (
    BadParams,
    BadExponents,
    EquivalenceViolated,
    Infinite,
    NotAbsolutelyContinuous,
    PropertyViolation,
)
from .norms import (
    Exponents,
    NormEstimate,
    _check_structural,
    _equivalence_ratio,
    cube_testing,
    indicator,
    lp_norm,
    operator_norm_strong,
    standard_cubes,
)
from .policy import TOLERANCES, CheckReport, close, outcome
from .space import PointMeasure, QuasiMetricSpace, _frozen, ball_masses

MAXIMAL_SALT = 0xD0B1


@dataclass(frozen=True, eq=False)
class MaximalParams:
    """Base data of a fractional maximal operator.

    ``mu`` is the measure defining both the normalizing mass mu(B)^(1-gamma)
    and, by default, the integration inside the average.  The doubling
    constant of (space, mu) is not an input: it is measured on first read
    and then kept (only the ball/dyadic comparison needs it).
    """

    space: QuasiMetricSpace
    mu: PointMeasure
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise BadParams("gamma must lie in [0, 1)", gamma=self.gamma)
        if self.mu.masses.size != self.space.n:
            raise BadParams("measure size does not match the space",
                            size=self.mu.masses.size, n=self.space.n)

    @cached_property
    def doubling_constant(self) -> float:
        return measure_doubling_constant(self.space, self.mu)

    @cached_property
    def ball_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """Along each row of the space index: the mask of strict balls with
        positive mu mass, and mu(B)^(gamma-1) of every prefix.  Built on
        first use and then kept, read-only; apply_M reads both."""
        idx = self.space.index
        mu_pref = np.cumsum(self.mu.masses[idx.order], axis=1)
        with np.errstate(divide="ignore"):
            power = np.power(mu_pref, self.gamma - 1.0)
        return _frozen(idx.end & (mu_pref > 0.0)), _frozen(power)


def measure_doubling_constant(space: QuasiMetricSpace,
                              mu: PointMeasure) -> float:
    """sup over centers and radii of mu(B(x, 2r)) / mu(B(x, r)).

    Both balls are piecewise constant in r between consecutive points of
    the grid {distances} union {distances/2}, left-open right-closed, so
    evaluating at every grid value plus one radius beyond the largest
    distance visits every distinct pair.  A ball B(x, r) is fixed by how
    many distinct distances from x lie below r, so each center's masses
    are summed once per distinct distance, in point-id order, and looked
    up by searchsorted.  Ratios 0/0 are skipped; positive mass at the
    doubled radius over an empty inner ball yields +inf.  With no
    admissible ratio at all (the zero measure) the supremum is vacuous and
    reported as 1.0.
    """
    d = space.dist
    vals = np.unique(d[d > 0.0])
    if vals.size:
        radii = np.unique(np.concatenate([vals, vals / 2.0,
                                          [float(vals.max()) + 1.0]]))
    else:
        radii = np.array([1.0])
    best = 1.0
    for steps, mass in ball_masses(space, mu):
        den = mass[np.searchsorted(steps, radii)]
        num = mass[np.searchsorted(steps, 2.0 * radii)]
        if np.any((den == 0.0) & (num > 0.0)):
            return math.inf
        pos = den > 0.0
        if pos.any():
            best = max(best, float(np.max(num[pos] / den[pos])))
    return best


def maximal_params(space: QuasiMetricSpace, mu: PointMeasure,
                   gamma: float) -> MaximalParams:
    """MaximalParams with the doubling constant already measured."""
    params = MaximalParams(space=space, mu=mu, gamma=gamma)
    params.doubling_constant  # measured here, not in the first comparison
    return params


def apply_M(params: MaximalParams, f,
            inside: PointMeasure | None = None) -> np.ndarray:
    """Fractional maximal function, exact sup over all balls.

    M f(x) = sup over balls B containing x with mu(B) > 0 of
    mu(B)^(gamma-1) * sum_B |f| d(inside), where ``inside`` defaults to mu
    and may be replaced to get the two-measure form M_gamma(f dv).  Balls
    centered at c are the prefixes of c's row of the space index that end
    at a tie-group end, so prefix sums along every row, a reversed running
    maximum over the group ends, a gather through ``flat_rank`` and a max
    clipped at 0 cover all balls at once (0 where every ball is mu-null).
    """
    weights = (inside if inside is not None else params.mu).masses
    a = np.abs(np.asarray(f, dtype=float))
    if a.shape != weights.shape or a.size != params.space.n:
        raise BadParams("function size does not match the space", shape=a.shape)
    idx = params.space.index
    s_pref = (a * weights)[idx.order].cumsum(axis=1)
    ball, power = params.ball_powers
    cut = np.full(s_pref.shape, -np.inf)
    np.multiply(power, s_pref, out=cut, where=ball)
    rev = cut[:, ::-1]  # running max from the right, in place
    np.maximum.accumulate(rev, axis=1, out=rev)
    best = cut.reshape(-1)[idx.flat_rank].max(axis=0)
    return np.where(best > 0.0, best, 0.0)


def _same_space(system: DyadicSystem, params: MaximalParams) -> None:
    """Raise BadParams unless the system is built on the params' space."""
    if system.space is not params.space:
        raise BadParams("system and maximal params are on different spaces",
                        system=system.system_id)


def apply_M_dyadic(system: DyadicSystem, params: MaximalParams, f,
                   inside: PointMeasure | None = None) -> np.ndarray:
    """Dyadic fractional maximal function over one system's cubes.

    Same shape as apply_M with balls replaced by the cubes containing the
    point; cubes with mu(Q) = 0 are skipped, so empty cubes never produce
    NaN or infinity.  Cubes are summed per size group, each in member
    order, and each point reads its cubes through ``label``.  The system
    must be built on ``params.space`` itself.
    """
    _same_space(system, params)
    mu, gamma = params.mu, params.gamma
    weights = (inside if inside is not None else mu).masses
    a = np.abs(np.asarray(f, dtype=float))
    if a.shape != weights.shape or a.size != system.space.n:
        raise BadParams("function size does not match the space", shape=a.shape)
    terms = a * weights
    vals = np.zeros(len(system.cubes))
    for ids, members in system.size_groups:
        mass = np.sum(mu.masses[members], axis=1)
        scale = [m ** (gamma - 1.0) if m > 0.0 else 0.0 for m in mass.tolist()]
        vals[ids] = scale * np.sum(terms[members], axis=1)
    vals = np.where(vals > 0.0, vals, 0.0)
    return vals[system.label].max(axis=0)


def _containment_ratio_bound(system: DyadicSystem, mu: PointMeasure,
                             gamma: float) -> float:
    best = 0.0
    for cube in system.cubes:
        mq = mu.of(cube.members)
        if mq == 0.0:
            continue
        mb = mu.of(system.outer_ball_members(cube))
        best = max(best, (mb / mq) ** (1.0 - gamma))
    return best


def _trial_functions(n: int, trials: int, salt: int, seed: int):
    """The constant one, then every point mass, then seeded random functions."""
    for t in range(trials):
        if t == 0:
            yield np.ones(n)
        elif t <= n:
            e = np.zeros(n)
            e[t - 1] = 1.0
            yield e
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence([salt, seed, t]))
            yield rng.random(n)


def _violation(trial: int, system: int | None, bad: np.ndarray,
               lhs: np.ndarray, rhs: np.ndarray) -> dict:
    x = int(np.flatnonzero(bad)[0])
    return {"trial": trial, "system": system, "x": x,
            "lhs": float(lhs[x]), "rhs": float(rhs[x])}


def check_maximal_equivalence(family, params: MaximalParams,
                              trials: int = 50, seed: int = 0) -> CheckReport:
    """Pointwise comparison of ball and dyadic maximal functions.

    Direction one is checked per system against the explicit containment
    bound ``ratio_bound``, the largest (mu(outer ball of Q) /
    mu(Q))^(1-gamma) over cubes with positive mass: M^D f <= ratio_bound *
    M f pointwise up to roundoff.  Direction two records the supremum of
    M f over the sum of the per-system dyadic functions and requires it
    finite.  Trials run the constant function, the point masses, then
    seeded random functions.  ``details`` holds ratio_bound and the
    observed suprema ``dyadic_over_ball`` and ``ball_over_sum``.  A
    failure counts the violating trials and names the first: trial,
    system (None for the sum direction), point, and the compared lhs and
    rhs.  Vacuous when mu is not doubling.
    """
    systems = _family_systems(family)
    strict_mode = all(s.strict_delta for s in systems)
    if not math.isfinite(params.doubling_constant):
        return CheckReport("ball_dyadic_equivalence", "vacuous", strict_mode,
                           {"reason": "reference measure is not doubling"},
                           error=EquivalenceViolated)
    bounds = [_containment_ratio_bound(s, params.mu, params.gamma)
              for s in systems]
    g = TOLERANCES["exact_guard_rel"]
    d_over_b, b_over_s = 0.0, 0.0
    found: list[dict] = []
    for t, f in enumerate(_trial_functions(params.space.n, trials,
                                           MAXIMAL_SALT, seed)):
        mb = apply_M(params, f)
        total = np.zeros(params.space.n)
        pos = mb > 0.0
        for sysi, system in enumerate(systems):
            md = apply_M_dyadic(system, params, f)
            total += md
            cap = bounds[sysi] * mb
            ok = md <= cap * (1.0 + g)
            if not np.all(ok):
                found.append(_violation(t, sysi, ~ok, md, cap))
            if np.any(pos):
                d_over_b = max(d_over_b, float(np.max(md[pos] / mb[pos])))
        if np.any(pos) and np.any(total[pos] == 0.0):
            found.append(_violation(t, None, pos & (total == 0.0), mb, total))
        elif np.any(pos):
            b_over_s = max(b_over_s, float(np.max(mb[pos] / total[pos])))
    witness = {"violations": len(found), "first": found[0]} if found else None
    return outcome("ball_dyadic_equivalence", strict_mode, EquivalenceViolated,
                   witness, ratio_bound=max(bounds),
                   dyadic_over_ball=d_over_b, ball_over_sum=b_over_s,
                   trials=trials, systems=len(systems))


@dataclass(frozen=True, eq=False)
class DualWeight:
    """Radon-Nikodym reweighting u = mu/sigma, v = u^{1/(p-1)} on {u > 0}.

    v_measure carries masses v * mu, the measure dv = v dmu; the defining
    identity v^p sigma = v mu is re-verified per point at construction.
    """

    u: np.ndarray
    v: np.ndarray
    v_measure: PointMeasure


def dual_weight(mu: PointMeasure, sigma: PointMeasure, p: float) -> DualWeight:
    if not 1.0 < p < math.inf:
        raise BadExponents("need 1 < p < inf", p=p)
    m, s = mu.masses, sigma.masses
    if m.size != s.size:
        raise BadParams("measure sizes differ", mu=m.size, sigma=s.size)
    bad = np.flatnonzero((s == 0.0) & (m > 0.0))
    if bad.size:
        raise NotAbsolutelyContinuous("mu charges a sigma-null point",
                                      x=int(bad[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(s > 0.0, m / s, 0.0)
    v = np.where(u > 0.0, np.power(u, 1.0 / (p - 1.0)), 0.0)
    lhs = np.power(v, p) * s
    rhs = v * m
    for x in range(m.size):
        if not close(float(lhs[x]), float(rhs[x]), TOLERANCES["dual_weight_rel"]):
            raise PropertyViolation("dual weight identity v^p sigma = v mu failed",
                                    x=x, lhs=float(lhs[x]), rhs=float(rhs[x]))
    return DualWeight(u=u, v=v, v_measure=PointMeasure(v * m))


@dataclass
class MaximalTesting:
    """Exact testing supremum for a maximal operator.

    convention_hits counts cubes skipped because the normalizing mass
    vanished (the inf * 0 = 0 reading); per_system is filled by the dyadic
    form, one value per system, with ``value`` their maximum.
    """

    value: float
    argmax: Cube | None
    convention_hits: int
    per_system: tuple[float, ...] = ()


def testing_constant_maximal(family, params: MaximalParams,
                             sigma: PointMeasure, omega: PointMeasure,
                             p: float, q: float, *,
                             dyadic: bool = False) -> MaximalTesting:
    """Testing supremum of the maximal operator over standard cubes.

    Ball form (default): the dual-weight reformulation
    sup_Q v(Q)^(-1/p) ||chi_Q M_gamma(chi_Q dv)||_{L^q_omega}, with v from
    dual_weight(params.mu, sigma, p), over the cubes of every system.
    Dyadic form: per system, sup_Q sigma(Q)^(-1/p) ||chi_Q M^D(chi_Q
    dsigma)||, where sigma is arbitrary (no absolute continuity needed) and
    only the cube's own system defines M^D; value is the max across systems.
    """
    Exponents(p, q)
    systems = _family_systems(family)
    for s in systems:
        _same_space(s, params)
    if dyadic:
        sweeps = [(s.cubes, sigma,
                   lambda chi, s=s: apply_M_dyadic(s, params, chi, inside=sigma))
                  for s in systems]
    else:
        dw = dual_weight(params.mu, sigma, p)
        sweeps = [(standard_cubes(systems), dw.v_measure,
                   lambda chi: apply_M(params, chi, inside=dw.v_measure))]
    best, argmax, hits, per = 0.0, None, 0, []
    for cubes, normalizer, action in sweeps:
        val, arg, h, infinite = cube_testing(cubes, action, normalizer, omega,
                                             q, p)
        if infinite:
            raise Infinite("infinite testing ratio", k=infinite[0].k,
                           center=infinite[0].center)
        per.append(val)
        hits += h
        if val > best:
            best, argmax = val, arg
    return MaximalTesting(best, argmax, hits, tuple(per) if dyadic else ())


@dataclass
class TheoremAVerdict:
    """Outcome of the two-weight maximal boundedness check.

    branch is "testing" when absolute continuity holds (testing constant,
    seeded norm lower bound, their ratio, and the per-system dyadic testing
    values are reported) and "necessity" when it fails (a violating
    indicator with positive image norm and zero source norm is exhibited).
    """

    branch: str
    params: MaximalParams
    exponents: Exponents
    testing: MaximalTesting | None = None
    norm: NormEstimate | None = None
    ratio: float | None = None
    dyadic_testing: MaximalTesting | None = None
    violating_set: tuple[int, ...] = ()
    lhs: float | None = None
    rhs: float | None = None
    confirmed: bool | None = None


def verdict_theorem_a(family, mu: PointMeasure, sigma: PointMeasure,
                      omega: PointMeasure, gamma: float, p: float, q: float,
                      *, budget: int = 8, seed: int = 0) -> TheoremAVerdict:
    """Check the maximal-operator characterization on one instance.

    With mu absolutely continuous against sigma, computes the exact ball
    testing constant and a norm lower bound whose seed pool contains every
    chi_Q * v and every plain cube indicator; the testing constant must
    stay below the bound (its test functions are in the pool), and the
    ratio norm/testing is the empirical equivalence constant.  q = inf is
    allowed and uses the max over omega-positive points.  Otherwise the
    necessity branch feeds the indicator of the sigma-null mu-positive set
    through the operator and confirms the inequality fails: the image norm
    is positive while the source norm is exactly zero.
    """
    ex = Exponents(p, q)
    params = maximal_params(_family_systems(family)[0].space, mu, gamma)
    bad = np.flatnonzero(~sigma.charged & mu.charged)
    if bad.size:
        members = tuple(int(b) for b in bad)
        f = indicator(params.space.n, members)
        lhs = lp_norm(apply_M(params, f), omega, q)
        rhs = lp_norm(f, sigma, p)
        return TheoremAVerdict(branch="necessity", params=params, exponents=ex,
                               violating_set=members, lhs=lhs, rhs=rhs,
                               confirmed=bool(lhs > 0.0 and rhs == 0.0))
    dw = dual_weight(mu, sigma, p)
    testing = testing_constant_maximal(family, params, sigma, omega, p, q)
    seeds: list[np.ndarray] = []
    for cube in standard_cubes(family):
        chi = indicator(params.space.n, cube.members)
        seeds.append(chi * dw.v)
        seeds.append(chi)
    norm = operator_norm_strong(lambda f: apply_M(params, f), sigma, omega,
                                p, q, budget=budget, seeds=seeds, seed=seed)
    _check_structural("maximal", testing.value, norm.lower)
    dyadic = testing_constant_maximal(family, params, sigma, omega, p, q,
                                      dyadic=True)
    return TheoremAVerdict(branch="testing", params=params, exponents=ex,
                           testing=testing, norm=norm,
                           ratio=_equivalence_ratio(norm.lower, testing.value),
                           dyadic_testing=dyadic)
