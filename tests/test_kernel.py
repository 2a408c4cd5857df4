import dataclasses
import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica import kernel as kernel_module
from dyadica.dyadic import build_system
from dyadica.errors import BadParams, CheckFailed
from dyadica.kernel import (
    _slot_growth,
    build_kernel,
    check_kernel_estimates,
    growth_scale_factor,
    kernel_bound_constant,
    kernel_growth_constant,
    pair_threshold,
    phi_table,
)
from dyadica.maximal import MaximalParams
from dyadica.policy import guard
from dyadica.space import PointMeasure, generate_space

from conftest import distance_prefix, order_ulps


def brute_growth_constant(K, d, k2):
    """Straight triple loops over both slots; test-side oracle."""
    n = K.shape[0]
    best = 1.0
    for y in range(n):
        for x in range(n):
            if x == y or K[x, y] == 0.0:
                continue
            for xp in range(n):
                if xp == y:
                    continue
                if d[xp, y] <= k2 * d[x, y]:
                    assert K[xp, y] > 0.0
                    best = max(best, K[x, y] / K[xp, y])
    for x in range(n):
        for y in range(n):
            if x == y or K[x, y] == 0.0:
                continue
            for yp in range(n):
                if yp == x:
                    continue
                if d[x, yp] <= k2 * d[x, y]:
                    assert K[x, yp] > 0.0
                    best = max(best, K[x, y] / K[x, yp])
    return best


def ball_volume_loop(space, mu, gamma, closed):
    """One ball per ordered pair, summed point by point in distance order;
    the ball-volume kernel's oracle, failing empty_ball_mass at the first
    empty ball in row-major order."""
    n, d = space.n, space.dist
    K = np.empty((n, n))
    for x in range(n):
        dist, pref = distance_prefix(space, mu, x)
        for y in range(n):
            if x == y:
                continue
            r = d[x, y]
            mass = pref[(bisect_right if closed else bisect_left)(dist, r)]
            if mass == 0.0:
                raise CheckFailed("empty_ball_mass", x=x, y=y,
                                  radius=float(r))
            K[x, y] = mass ** (gamma - 1.0)
        mx = float(mu.masses[x])
        K[x, x] = mx ** (gamma - 1.0) if mx > 0 else np.inf
    return K


def ball_volume_id_loop(space, mu, gamma, closed):
    """The second oracle: one masked np.sum per ordered pair, in point-id
    order."""
    n, d = space.n, space.dist
    K = np.empty((n, n))
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            r = d[x, y]
            inside = d[x] <= r if closed else d[x] < r
            mass = float(np.sum(mu.masses[inside]))
            if mass == 0.0:
                raise CheckFailed("empty_ball_mass", x=x, y=y,
                                  radius=float(r))
            K[x, y] = mass ** (gamma - 1.0)
        mx = float(mu.masses[x])
        K[x, x] = mx ** (gamma - 1.0) if mx > 0 else np.inf
    return K


def growth_loop(K, d, k2, slot):
    """One masked minimum per (a, b): the first-slot growth constant's
    oracle, failing unbounded with the same witness."""
    n = K.shape[0]
    k1 = 1.0
    off = ~np.eye(n, dtype=bool)
    for b in range(n):
        for a in range(n):
            if a == b or K[a, b] == 0.0:
                continue
            reachable = off[:, b] & (d[:, b] <= k2 * d[a, b])
            den = K[reachable, b]
            if np.any(den == 0.0):
                moved = int(np.flatnonzero(reachable)[np.argmax(den == 0.0)])
                x, y = (a, b) if slot == "x" else (b, a)
                raise CheckFailed("unbounded", x=x, y=y,
                                  **{f"{slot}_moved": moved})
            if den.size:
                k1 = max(k1, float(K[a, b] / den.min()))
    return k1


def phi_loop(kernel, sys):
    """One np.ix_ gather of each cube's containing ball: the envelope's
    oracle, as (values, low, defined)."""
    d, K = sys.space.dist, kernel.matrix
    c = pair_threshold(sys.space.a0, sys.delta)
    values, low = np.zeros(len(sys.cubes)), np.zeros(len(sys.cubes))
    defined = np.zeros(len(sys.cubes), dtype=bool)
    for i, (k, inside) in enumerate(zip(sys.cubes.k.tolist(), sys.outer_balls)):
        ball = np.flatnonzero(inside)
        sep = d[np.ix_(ball, ball)] >= c * sys.outer_ball_radius(k)
        if sep.any():
            vals = K[np.ix_(ball, ball)][sep]
            values[i], low[i], defined[i] = vals.max(), vals.min(), True
    return values, low, defined


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except CheckFailed as exc:
        return exc.check, exc.witness


ORACLE_SPACES = [
    lambda: generate_space("integer_segment_counting", n=9),
    lambda: generate_space("euclidean_random_points", seed=2, n=12),
    lambda: generate_space("ultrametric_tree", depth=2, branching=3,
                           ratio=0.3),
    lambda: generate_space("snowflake_power", n=7, power=0.5),
]


@pytest.mark.parametrize("make", ORACLE_SPACES)
class TestArrayFormsAreExact:
    def test_ball_volume_kernels(self, make):
        space, _ = make()
        rng = np.random.default_rng(space.n)
        measures = [PointMeasure(np.ones(space.n)),
                    PointMeasure(rng.integers(0, 4, size=space.n)),
                    PointMeasure(np.exp(3.0 * rng.normal(size=space.n))),
                    PointMeasure(rng.random(space.n)
                                 * (rng.random(space.n) < 0.6))]
        # the masses' sums differ in order only; a power |gamma - 1| < 1
        # keeps their relative gap and rounds once more on each side
        rel = order_ulps(space.n) + 2.0**-51
        for mu in measures:
            integer = np.array_equal(mu.masses, np.round(mu.masses))
            for closed in (False, True):
                kind = "ball_volume_closed" if closed else "ball_volume"
                for gamma in (0.25, 0.5, 1.0):
                    want = outcome_of(ball_volume_loop, space, mu, gamma,
                                      closed)
                    by_id = outcome_of(ball_volume_id_loop, space, mu, gamma,
                                       closed)
                    got = outcome_of(lambda: build_kernel(
                        space, mu, kind, gamma=gamma).matrix)
                    if isinstance(want, tuple):
                        assert got == want == by_id
                    else:
                        assert np.array_equal(got, want)
                        if integer:
                            assert np.array_equal(by_id, want)
                        assert np.allclose(by_id, want, rtol=rel, atol=0.0)

    def test_closed_kernel_reads_the_maximal_prefix(self, make):
        # one mu(B) per ball: the closed kernel at (x, y) is the Python power
        # of the prefix sum that MaximalParams raises, at the end of y's tie
        # group in x's row of the space index
        space, _ = make()
        n, idx = space.n, space.index
        mu = PointMeasure(np.exp(3.0 * np.random.default_rng(n).normal(size=n)))
        gamma = 0.5
        K = build_kernel(space, mu, "ball_volume_closed", gamma=gamma).matrix
        ball, power = MaximalParams(space=space, mu=mu, gamma=gamma).ball_powers
        pref = idx.prefix_sums(mu.masses)
        with np.errstate(divide="ignore"):
            assert np.array_equal(power, np.power(pref, gamma - 1.0))
        for x in range(n):
            for y in range(n):
                j = int(idx.flat_rank[x, y]) - x * n
                tie_end = j + int(np.argmax(idx.end[x, j:]))
                assert ball[x, tie_end]
                if x != y:
                    assert K[x, y] == float(pref[x, tie_end]) ** (gamma - 1.0)

    def test_growth_constants(self, make):
        # zeroed entries make some kernels unbounded, with a witness
        space, mu = make()
        rng = np.random.default_rng(space.n + 1)
        base = build_kernel(space, mu, "ball_volume", gamma=0.5).matrix
        zeroed = np.where(rng.random(base.shape) < 0.1, 0.0, base)
        for K in (base, base.T.copy(), zeroed):
            for k2 in (0.5, 1.0, 2.0, 1e6):
                # each slot alone, then both: the x witness first, else
                # the larger constant
                want = [outcome_of(growth_loop, M, space.dist, k2, slot)
                        for slot, M in (("x", K), ("y", K.T))]
                raised = [w for w in want if isinstance(w, tuple)]
                both = raised[0] if raised else max(want)
                for slots, w in (("x", want[0]), ("y", want[1]), ("xy", both)):
                    assert outcome_of(_slot_growth, K, space, k2, slots) == w

    @pytest.mark.parametrize("cap", [None, 80])
    def test_envelopes(self, make, cap, monkeypatch):
        # the stock cap puts every cube of these spaces in one block of mixed
        # ball sizes; an 80-entry cap makes blocks many, and on the segment
        # some (4, 4, 5)- and (5, 6)-point blocks still mix sizes
        if cap is not None:
            monkeypatch.setattr(kernel_module, "_BLOCK_ELEMENTS", cap)
        space, mu = make()
        rng = np.random.default_rng(space.n + 2)
        kernels = [build_kernel(space, mu, "ball_volume", gamma=0.5),
                   build_kernel(space, mu, "ball_volume_closed", gamma=0.25),
                   build_kernel(space, mu, "frac_rho", alpha=0.5, n_dim=1.0),
                   build_kernel(space, mu, "matrix",
                                values=rng.random((space.n, space.n)))]
        for seed in (0, 1):
            sys = build_system(space, seed=seed)
            for ker in kernels:
                phi = phi_table(ker, sys)
                for got, want in zip((phi.values, phi.low, phi.defined),
                                     phi_loop(ker, sys)):
                    assert np.array_equal(got, want)


class TestBuildKernel:
    def test_strict_ball_volume_values(self, segment4):
        # counting measure on {0,1,2,3}, gamma = 1/2:
        # B(0,1)={0} -> 1, B(0,2)={0,1} -> 2^-1/2, B(0,3)={0,1,2} -> 3^-1/2
        space, mu = segment4
        ker = build_kernel(space, mu, "ball_volume", gamma=0.5)
        K = ker.matrix
        assert K[0, 1] == 1.0
        assert K[0, 2] == 2.0**-0.5
        assert K[0, 3] == 3.0**-0.5
        assert K[1, 0] == 1.0
        assert np.all(np.diag(K) == 1.0)

    def test_closed_ball_volume_values(self, segment4):
        # closed balls grow by the boundary: B(0,1)={0,1}, B(1,1)={0,1,2},
        # B(2,2) and B(3,3) are the whole space
        space, mu = segment4
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        K = ker.matrix
        assert K[0, 1] == 2.0**-0.5
        assert K[1, 0] == 3.0**-0.5
        assert K[2, 0] == 4.0**-0.5
        assert K[3, 0] == 4.0**-0.5
        assert not ker.symmetric

    def test_diagonal_conventions(self, segment4):
        space, _ = segment4
        mu = PointMeasure(np.array([4.0, 1.0, 0.0, 1.0]))
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        assert ker.matrix[0, 0] == 0.5
        assert ker.matrix[1, 1] == 1.0
        assert ker.matrix[2, 2] == np.inf

    def test_frac_rho(self, segment4):
        space, mu = segment4
        ker = build_kernel(space, mu, "frac_rho", alpha=0.5, n_dim=1.0)
        K = ker.matrix
        assert K[0, 2] == 2.0**-0.5
        assert K[0, 1] == 1.0
        assert np.all(np.isinf(np.diag(K)))
        assert ker.symmetric

    def test_frac_rho_bad_exponents(self, segment4):
        space, mu = segment4
        with pytest.raises(BadParams, match="alpha"):
            build_kernel(space, mu, "frac_rho", alpha=1.0, n_dim=1.0)
        with pytest.raises(BadParams, match="alpha"):
            build_kernel(space, mu, "frac_rho", alpha=-0.5, n_dim=1.0)

    def test_frac_rho_diag_override(self, segment4):
        space, mu = segment4
        ker = build_kernel(space, mu, "frac_rho", alpha=0.5, n_dim=1.0,
                           diag=1.0)
        assert np.all(np.diag(ker.matrix) == 1.0)
        off = ker.matrix[~np.eye(4, dtype=bool)]
        base = build_kernel(space, mu, "frac_rho", alpha=0.5, n_dim=1.0)
        assert np.array_equal(off, base.matrix[~np.eye(4, dtype=bool)])
        with pytest.raises(BadParams):
            build_kernel(space, mu, "frac_rho", alpha=0.5, n_dim=1.0,
                         diag=-1.0)

    def test_gamma_domain(self, segment4):
        space, mu = segment4
        with pytest.raises(BadParams, match="gamma"):
            build_kernel(space, mu, "ball_volume", gamma=0.0)
        with pytest.raises(BadParams, match="gamma"):
            build_kernel(space, mu, "ball_volume", gamma=1.5)

    def test_gamma_one_is_flat_off_diagonal(self, segment4):
        space, mu = segment4
        ker = build_kernel(space, mu, "ball_volume", gamma=1.0)
        off = ~np.eye(4, dtype=bool)
        assert np.all(ker.matrix[off] == 1.0)

    def test_empty_ball_mass(self, segment4):
        space, _ = segment4
        mu = PointMeasure(np.array([0.0, 1.0, 1.0, 1.0]))
        # B(0, 1) = {0} carries no mass
        with pytest.raises(CheckFailed) as err:
            build_kernel(space, mu, "ball_volume", gamma=0.5)
        assert err.value.check == "empty_ball_mass"
        assert err.value.witness == {"x": 0, "y": 1, "radius": 1.0}

    def test_matrix_kind(self, segment4):
        space, _ = segment4
        vals = np.arange(16, dtype=float).reshape(4, 4) + 1.0
        ker = build_kernel(space, None, "matrix", values=vals)
        assert np.array_equal(ker.matrix, vals)
        with pytest.raises(BadParams):
            build_kernel(space, None, "matrix", values=vals[:2])
        bad = vals.copy()
        bad[0, 1] = np.inf
        with pytest.raises(BadParams):
            build_kernel(space, None, "matrix", values=bad)

    def test_unknown_kind(self, segment4):
        space, mu = segment4
        with pytest.raises(BadParams):
            build_kernel(space, mu, "nope")


class TestGrowthConstant:
    def test_closed_segment_exceeds_sqrt2(self):
        # at scale factor 2 the triple x=0, y=1, x'=3 compares closed balls
        # of mass 2 and 5, so k1 is at least sqrt(5/2) > sqrt(2)
        space, mu = generate_space("integer_segment_counting", n=6)
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        K = ker.matrix
        assert K[0, 1] / K[3, 1] == pytest.approx((5.0 / 2.0) ** 0.5, rel=1e-15)
        k1 = kernel_growth_constant(ker, space, k2=2.0)
        assert k1 >= (5.0 / 2.0) ** 0.5
        assert k1 == pytest.approx(brute_growth_constant(K, space.dist, 2.0), rel=1e-12)

    @pytest.mark.parametrize("kind,params", [
        ("ball_volume", {"gamma": 0.5}),
        ("ball_volume_closed", {"gamma": 0.25}),
        ("frac_rho", {"alpha": 0.5, "n_dim": 1.0}),
    ])
    def test_matches_brute_force(self, kind, params):
        space, mu = generate_space("integer_segment_counting", n=7)
        ker = build_kernel(space, mu, kind, **params)
        for k2 in (1.0, 2.0, 10.0, 1e6):
            got = kernel_growth_constant(ker, space, k2)
            want = brute_growth_constant(ker.matrix, space.dist, k2)
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_kernel_constant_one(self, segment4):
        space, _ = segment4
        ker = build_kernel(space, None, "matrix", values=np.zeros((4, 4)))
        assert kernel_growth_constant(ker, space, 2.0) == 1.0

    def test_mixed_zero_positive_unbounded(self):
        space, _ = generate_space("integer_segment_counting", n=3)
        vals = np.array([[0.0, 1.0, 1.0],
                         [1.0, 0.0, 0.0],
                         [1.0, 0.0, 0.0]])
        ker = build_kernel(space, None, "matrix", values=vals)
        with pytest.raises(CheckFailed) as err:
            kernel_growth_constant(ker, space, 10.0)
        assert err.value.check == "unbounded"

    def test_scale_factor_formula(self):
        assert growth_scale_factor(1.0, 1.0 / 96.0) == 20.0 * 96.0**2
        assert growth_scale_factor(2.0, 0.5) == 20.0 * 16.0 / 0.25


class TestPhi:
    def test_top_envelope_on_line(self, segment16):
        # closed-ball kernel, gamma 1/2: the largest value over well-separated
        # pairs is at distance 1 from an endpoint, closed ball mass 2
        space, mu = segment16
        sys = build_system(space)
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        phi = phi_table(ker, sys)
        assert phi.values[sys.top] == 2.0**-0.5
        assert phi.defined[sys.top]

    def test_threshold_formula(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        ker = build_kernel(space, mu, "ball_volume", gamma=0.5)
        phi = phi_table(ker, sys)
        assert phi.threshold == pair_threshold(1.0, sys.delta)
        assert phi.threshold == sys.delta**2 / 5.0

    def test_finest_generation_undefined(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        ker = build_kernel(space, mu, "ball_volume", gamma=0.5)
        phi = phi_table(ker, sys)
        for cube in range(len(sys.cubes))[sys.generation(sys.k_max)]:
            assert not phi.defined[cube]
            assert phi.values[cube] == 0.0

    def test_tree_envelopes(self, tree27):
        # closed-ball kernel: pair values are 3^-1/2, 9^-1/2, 27^-1/2 at the
        # three tree scales; the top ball separates only the two coarse scales
        space, mu = tree27
        sys = build_system(space)
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        phi = phi_table(ker, sys)
        assert phi.values[sys.top] == 9.0**-0.5
        branch = sys.containing_cube(0, 0)
        assert phi.values[branch] == 3.0**-0.5


class TestEstimates:
    @pytest.mark.parametrize("fixture", ["segment16", "snowflake8", "tree27"])
    @pytest.mark.parametrize("kind,params", [
        ("ball_volume", {"gamma": 0.25}),
        ("ball_volume", {"gamma": 0.5}),
        ("ball_volume", {"gamma": 0.75}),
        ("ball_volume_closed", {"gamma": 0.5}),
        ("frac_rho", {"alpha": 0.5, "n_dim": 1.0}),
    ])
    def test_estimates_hold(self, fixture, kind, params, request):
        space, mu = request.getfixturevalue(fixture)
        sys = build_system(space)
        ker = build_kernel(space, mu, kind, **params)
        phi = phi_table(ker, sys)
        reports = check_kernel_estimates(ker, sys, phi)
        assert all(r.ok for r in reports)
        assert phi.C_K == phi.k1 * phi.k1
        names = [r.name for r in reports]
        assert names == ["bounded_on_separated_pairs", "bounded_along_ancestry",
                         "vacuous_cubes_collapse"]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_estimates_on_random_spaces(self, seed):
        space, mu = generate_space("euclidean_random_points", seed=seed, n=14, dim=2)
        sys = build_system(space, seed=seed)
        ker = build_kernel(space, mu, "ball_volume", gamma=0.5)
        assert all(r.ok for r in check_kernel_estimates(ker, sys))

    def test_bound_constant_consistency(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        ker = build_kernel(space, mu, "ball_volume", gamma=0.5)
        C_K, k1, k2 = kernel_bound_constant(ker, space, sys.delta)
        assert k2 == growth_scale_factor(space.a0, sys.delta)
        assert C_K == k1 * k1
        assert k1 >= 1.0


def loop_estimates(sys, phi):
    """The three estimates as per-cube loops, each cube's ancestors walked
    up ``parent``; (name, status, witness, details) per report."""
    k, center, C_K = sys.cubes.k, sys.cubes.center, phi.C_K
    v, low, defined = phi.values.tolist(), phi.low.tolist(), phi.defined
    out = []
    worst, case, fail = 0.0, None, None
    for i in np.flatnonzero(defined):
        ratio = (math.inf if low[i] == 0.0 and v[i] > 0 else
                 v[i] / low[i] if low[i] > 0 else 0.0)
        if ratio > worst:
            worst, case = ratio, {"k": k[i], "center": center[i],
                                  "phi": v[i], "min_pair_value": low[i]}
        if not v[i] <= guard(C_K * low[i]):
            fail = {"k": k[i], "center": center[i], "phi": v[i],
                    "min_pair_value": low[i], "C_K": C_K}
            break
    out.append(("bounded_on_separated_pairs", "fail", fail, {}) if fail else
               ("bounded_on_separated_pairs", "pass", None,
                {"worst_ratio": worst, "C_K": C_K, "worst_case": case}))
    worst, fail = 0.0, None
    for i in np.flatnonzero(defined):
        a = sys.parent[i]
        while a >= 0 and fail is None:
            if defined[a]:
                ratio = (v[a] / v[i] if v[i] > 0 else
                         math.inf if v[a] > 0 else 0.0)
                worst = max(worst, ratio)
                if not v[a] <= guard(C_K * v[i]):
                    fail = {"ancestor": (k[a], center[a]),
                            "descendant": (k[i], center[i]),
                            "phi_ancestor": v[a], "phi_descendant": v[i],
                            "C_K": C_K}
            a = sys.parent[a]
    out.append(("bounded_along_ancestry", "fail", fail, {}) if fail else
               ("bounded_along_ancestry", "pass", None,
                {"worst_ratio": worst, "C_K": C_K}))
    vacuous = [i for i in range(len(sys.cubes))
               if not defined[i] and k[i] < sys.k_max]
    fail = next(({"k": k[i], "center": center[i],
                  "children": len(sys.children(i))} for i in vacuous
                 if len(sys.children(i)) != 1 or not np.array_equal(
                     sys.incidence[sys.children(i)[0]], sys.incidence[i])),
                None)
    out.append(("vacuous_cubes_collapse",
                "vacuous" if not vacuous else "fail" if fail else "pass",
                fail, {}))
    return out


class TestEstimatesMatchTheLoops:
    @pytest.mark.parametrize("fixture", ["segment16", "snowflake8", "tree27"])
    @pytest.mark.parametrize("kind,params", [
        ("ball_volume", {"gamma": 0.5}),
        ("ball_volume_closed", {"gamma": 0.25}),
        ("frac_rho", {"alpha": 0.5, "n_dim": 1.0})])
    @pytest.mark.parametrize("tamper", [None, "low_C_K", "tiny_C_K",
                                        "undefined"])
    def test_reports(self, fixture, kind, params, tamper, request):
        # an understated C_K fails the first two estimates; clearing
        # ``defined`` on a cube with several children fails the third
        space, mu = request.getfixturevalue(fixture)
        sys = build_system(space)
        ker = build_kernel(space, mu, kind, **params)
        phi = phi_table(ker, sys)
        if tamper == "low_C_K":
            phi = dataclasses.replace(phi, C_K=1.0)
        elif tamper == "tiny_C_K":
            phi = dataclasses.replace(phi, C_K=1e-3)
        elif tamper == "undefined":
            kids = np.bincount(sys.parent[sys.parent >= 0],
                               minlength=len(sys.cubes))
            defined = phi.defined.copy()
            defined[np.flatnonzero(kids > 1)] = False
            phi = dataclasses.replace(phi, defined=defined)
        got = [(r.name, r.status, r.witness, r.details)
               for r in check_kernel_estimates(ker, sys, phi)]
        assert got == loop_estimates(sys, phi)
