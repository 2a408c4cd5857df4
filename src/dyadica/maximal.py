"""Fractional maximal operators and their two-weight characterization.

The ball-based operator takes, at each point, the largest gamma-fractional
average over balls containing it.  On a finite space the supremum over all
balls reduces to finitely many distinct member sets: for every center the
strict balls are exactly the tie-closed prefixes of that center's distance
ordering, so the operator is computed exactly, not sampled, in a few
(n x n) passes over the rows of ``QuasiMetricSpace.index``.  The dyadic
variant replaces balls by the cubes of one system, summed by
``DyadicSystem.cube_totals``, and the two are pointwise comparable with
explicit constants on doubling instances; ``check_maximal_equivalence``
reports that comparison as a ``CheckReport`` like every other check, on
its trial functions as one (trials, n) block, with one ``apply_M`` call
and one ``apply_M_dyadic`` call per system.  The
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

from .dyadic import DyadicSystem, _family_systems
from .errors import BadParams, CheckFailed
from .norms import (
    Exponents,
    NormEstimate,
    _check_structural,
    _equivalence_ratio,
    block_rows,
    cube_name,
    cube_testing,
    indicator,
    lp_norm,
    operator_norm_strong,
    standard_cubes,
)
from .policy import TOLERANCES, CheckReport, close, outcome
from .space import PointMeasure, QuasiMetricSpace, _frozen

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
        mu_pref = idx.prefix_sums(self.mu.masses)
        with np.errstate(divide="ignore"):
            power = np.power(mu_pref, self.gamma - 1.0)
        return _frozen(idx.end & (mu_pref > 0.0)), _frozen(power)


def measure_doubling_constant(space: QuasiMetricSpace,
                              mu: PointMeasure) -> float:
    """sup over centers and radii of mu(B(x, 2r)) / mu(B(x, r)).

    B(x, r) is constant for r in (s, t] between consecutive distances from
    x, while B(x, 2r) only grows with r, so the ratio peaks at r = t; past
    the largest distance both balls are the whole space.  So r runs over
    the positive distances from x.  Masses are prefix sums in distance
    order, read at each ball's end.  Ratios 0/0 are skipped; positive mass
    over an empty inner ball yields +inf, and with no admissible ratio (the
    zero measure) the supremum is 1.0.
    """
    n, mass = space.n, space.index.prefix_sums(mu.masses).ravel()
    d = space.dist[~np.eye(n, dtype=bool)].reshape(n, n - 1)  # B(x, r) holds x
    ends = space.ball_ends(np.concatenate([d, 2.0 * d], axis=1))
    den, num = np.split(mass[ends], 2, axis=1)
    if np.any((den == 0.0) & (num > 0.0)):
        return math.inf
    pos = den > 0.0
    return float((num[pos] / den[pos]).max(initial=1.0))


def maximal_params(space: QuasiMetricSpace, mu: PointMeasure,
                   gamma: float) -> MaximalParams:
    """MaximalParams with the doubling constant already measured."""
    params = MaximalParams(space=space, mu=mu, gamma=gamma)
    params.doubling_constant  # measured here, not in the first comparison
    return params


def _weighted_rows(params: MaximalParams, f, inside: PointMeasure | None):
    """(|f| times inside's, else mu's, masses as (K, n) rows; f's shape)."""
    weights = (inside if inside is not None else params.mu).masses
    a = np.abs(np.asarray(f, dtype=float))
    if a.ndim not in (1, 2) or a.shape[-1] != weights.size \
            or weights.size != params.space.n:
        raise BadParams("function size does not match the space", shape=a.shape)
    return a.reshape(-1, weights.size) * weights, a.shape


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
    A (K, n) block is mapped row by row, block_rows(n) rows at a time.
    """
    w, shape = _weighted_rows(params, f, inside)
    n, idx = params.space.n, params.space.index
    ball, power = params.ball_powers
    best = np.empty(w.shape)
    for i in range(0, len(w), block_rows(n)):
        s_pref = idx.prefix_sums(w[i:i + block_rows(n)])
        cut = np.full(s_pref.shape, -np.inf)
        np.multiply(power, s_pref, out=cut, where=ball)
        rev = cut[:, :, ::-1]  # running max from the right, in place
        np.maximum.accumulate(rev, axis=2, out=rev)
        best[i:i + len(cut)] = cut.reshape(len(cut), -1)[:, idx.flat_rank].max(axis=1)
    return np.where(best > 0.0, best, 0.0).reshape(shape)


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
    NaN or infinity.  Cubes are summed by ``DyadicSystem.cube_totals``, and
    each point reads its cubes through ``label``.  The system
    must be built on ``params.space`` itself; f may be a (K, n) block.
    """
    _same_space(system, params)
    mu, gamma = params.mu, params.gamma
    w, shape = _weighted_rows(params, f, inside)
    scale = np.array([m ** (gamma - 1.0) if m > 0.0 else 0.0
                      for m in system.cube_totals(mu.masses).tolist()])
    vals = scale * system.cube_totals(w)
    vals = np.where(vals > 0.0, vals, 0.0)
    return np.maximum.reduce(vals.take(system.label, axis=1), axis=1).reshape(shape)


def _containment_ratio_bound(system: DyadicSystem, mu: PointMeasure,
                             gamma: float) -> float:
    """max (mu(outer ball) / mu(Q))^(1-gamma) over cubes Q with mu(Q) > 0;
    each outer ball is a strict prefix of its center's row of the index."""
    mq = system.cube_totals(mu.masses)
    mb = system.space.index.prefix_sums(mu.masses)[
        system.cubes.center, system.outer_balls.sum(axis=1) - 1]
    pos = mq > 0.0
    return max(((b / q) ** (1.0 - gamma)
                for b, q in zip(mb[pos].tolist(), mq[pos].tolist())),
               default=0.0)


def _trial_functions(n: int, trials: int, salt: int, seed: int) -> np.ndarray:
    """The first ``trials`` rows of: the constant one, every point mass, then
    seeded random functions, row t drawn from its own stream."""
    rows = [np.ones((1, n)), np.eye(n)]
    rows += [np.random.default_rng(np.random.SeedSequence([salt, seed, t]))
             .random((1, n)) for t in range(n + 1, trials)]
    return np.concatenate(rows)[:trials]


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
    finite.  The trials (the constant function, the point masses, then
    seeded random functions) form one block: one apply_M call, and one
    apply_M_dyadic call per system.  ``details`` holds ratio_bound and the
    observed suprema ``dyadic_over_ball`` and ``ball_over_sum``.  A
    failure counts the violating (trial, direction) pairs and names the
    first, by trial and then system (None, the sum direction, last):
    trial, system, point, and the compared lhs and rhs.  Vacuous when mu
    is not doubling.
    """
    systems = _family_systems(family)
    strict_mode = all(s.strict_delta for s in systems)
    if not math.isfinite(params.doubling_constant):
        return CheckReport("ball_dyadic_equivalence", "vacuous", strict_mode,
                           {"reason": "reference measure is not doubling"})
    bounds = [_containment_ratio_bound(s, params.mu, params.gamma)
              for s in systems]
    g = TOLERANCES["exact_guard_rel"]
    F = _trial_functions(params.space.n, trials, MAXIMAL_SALT, seed)
    mb = apply_M(params, F)
    pos = mb > 0.0
    total = np.zeros(mb.shape)
    d_over_b = 0.0
    found: list[tuple[tuple[int, int], dict]] = []
    for sysi, system in enumerate(systems):
        md = apply_M_dyadic(system, params, F)
        total += md
        cap = bounds[sysi] * mb
        bad = ~(md <= cap * (1.0 + g))
        found += [((t, sysi), _violation(t, sysi, bad[t], md[t], cap[t]))
                  for t in np.flatnonzero(bad.any(axis=1)).tolist()]
        d_over_b = max(d_over_b, float((md[pos] / mb[pos]).max(initial=0.0)))
    zero = pos & (total == 0.0)
    found += [((t, len(systems)), _violation(t, None, zero[t], mb[t], total[t]))
              for t in np.flatnonzero(zero.any(axis=1)).tolist()]
    fine = pos & ~zero.any(axis=1, keepdims=True)
    b_over_s = float((mb[fine] / total[fine]).max(initial=0.0))
    found.sort(key=lambda entry: entry[0])
    witness = {"violations": len(found), "first": found[0][1]} if found else None
    return outcome("ball_dyadic_equivalence", strict_mode, witness,
                   ratio_bound=max(bounds), dyadic_over_ball=d_over_b,
                   ball_over_sum=b_over_s, trials=trials, systems=len(systems))


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
    Exponents(p, p)  # 1 < p < inf
    m, s = mu.masses, sigma.masses
    if m.size != s.size:
        raise BadParams("measure sizes differ", mu=m.size, sigma=s.size)
    bad = np.flatnonzero((s == 0.0) & (m > 0.0))
    if bad.size:
        raise CheckFailed("absolute_continuity",
                          "mu charges a sigma-null point", x=int(bad[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(s > 0.0, m / s, 0.0)
    v = np.where(u > 0.0, np.power(u, 1.0 / (p - 1.0)), 0.0)
    lhs = np.power(v, p) * s
    rhs = v * m
    bad = np.flatnonzero(~close(lhs, rhs, TOLERANCES["dual_weight_rel"]))
    if bad.size:
        x = int(bad[0])
        raise CheckFailed("dual_weight", "dual weight identity v^p sigma = "
                          "v mu failed", x=x, lhs=float(lhs[x]),
                          rhs=float(rhs[x]))
    return DualWeight(u=u, v=v, v_measure=PointMeasure(v * m))


@dataclass
class MaximalTesting:
    """Exact testing supremum for a maximal operator.

    argmax is the best cube's row in ``standard_cubes(family)``;
    convention_hits counts cubes skipped because the normalizing mass
    vanished (the inf * 0 = 0 reading); per_system is filled by the dyadic
    form, one value per system, with ``value`` their maximum.
    """

    value: float
    argmax: int | None
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
        sweeps = [(s, sigma,
                   lambda chi, s=s: apply_M_dyadic(s, params, chi, inside=sigma))
                  for s in systems]
    else:
        dw = dual_weight(params.mu, sigma, p)
        sweeps = [(systems, dw.v_measure,
                   lambda chi: apply_M(params, chi, inside=dw.v_measure))]
    best, argmax, hits, per, offset = 0.0, None, 0, [], 0
    for swept, normalizer, action in sweeps:
        incidence = standard_cubes(swept)
        val, arg, h, infinite = cube_testing(incidence, action, normalizer,
                                             omega, q, p)
        if infinite:
            raise CheckFailed("infinite_testing", "infinite testing ratio",
                              **cube_name(swept, infinite[0]))
        per.append(val)
        hits += h
        if val > best:
            best, argmax = val, offset + arg
        offset += len(incidence)
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
    seeds = [s for chi in standard_cubes(family) for s in (chi * dw.v, chi)]
    norm = operator_norm_strong(lambda f: apply_M(params, f), sigma, omega,
                                p, q, budget=budget, seeds=seeds, seed=seed)
    _check_structural("maximal", testing.value, norm.lower)
    dyadic = testing_constant_maximal(family, params, sigma, omega, p, q,
                                      dyadic=True)
    return TheoremAVerdict(branch="testing", params=params, exponents=ex,
                           testing=testing, norm=norm,
                           ratio=_equivalence_ratio(norm.lower, testing.value),
                           dyadic_testing=dyadic)
