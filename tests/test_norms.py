import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica.dyadic import build_adjacent_systems, generalize
from dyadica.errors import (
    BadExponents,
    BadParams,
    Infinite,
    LowerBoundViolated,
    NonPositiveOperator,
)
from dyadica.kernel import build_kernel
from dyadica.norms import (
    Exponents,
    cube_seeds,
    indicator,
    lp_norm,
    operator_norm_strong,
    operator_norm_weak,
    standard_cubes,
    verdict_theorem_b,
    verdict_weak_type,
    weak_quasinorm,
)
from dyadica.norms import testing_constants as compute_testing
from dyadica.operators import MatrixOperator, build_dyadic_operator
from dyadica.space import PointMeasure, generate_space

from conftest import random_masses


def weak_verdict(kernel, fam, sigma, omega, p, q, budget):
    """Theorem B's verdict, then the weak-type verdict on the same instance."""
    strong = verdict_theorem_b(kernel, fam, sigma, omega, p, q, budget=budget)
    ops = [build_dyadic_operator(kernel, generalize(s, sigma, omega))
           for s in fam]
    return verdict_weak_type(strong, ops, budget=budget)


def one_point_setup(k=1.0, s=4.0, w=9.0):
    space, _ = generate_space("integer_segment_counting", n=1)
    kernel = build_kernel(space, None, "matrix", values=[[k]])
    return space, kernel, PointMeasure(np.array([s])), PointMeasure(np.array([w]))


class TestExponents:
    def test_conjugates(self):
        ex = Exponents(1.5, 3.0)
        assert ex.p_prime == 3.0
        assert ex.q_prime == 1.5
        assert abs(1 / ex.p + 1 / ex.p_prime - 1.0) <= 1e-15

    def test_infinite_q(self):
        ex = Exponents(2.0, math.inf)
        assert ex.q_prime == 1.0
        with pytest.raises(BadExponents):
            ex.dual()

    def test_dual_swaps(self):
        ex = Exponents(2.0, 4.0)
        d = ex.dual()
        assert (d.p, d.q) == (ex.q_prime, ex.p_prime)

    @pytest.mark.parametrize("p,q", [(1.0, 2.0), (0.5, 2.0), (3.0, 2.0),
                                     (math.inf, math.inf)])
    def test_rejects(self, p, q):
        with pytest.raises(BadExponents):
            Exponents(p, q)


class TestLpNorm:
    def test_constant_counting(self):
        m = PointMeasure(np.ones(16))
        assert lp_norm(np.ones(16), m, 2.0) == 4.0

    def test_zero(self):
        m = PointMeasure(np.ones(3))
        assert lp_norm(np.zeros(3), m, 1.5) == 0.0

    def test_three_four_five(self):
        m = PointMeasure(np.ones(2))
        assert lp_norm(np.array([3.0, 4.0]), m, 2.0) == 5.0

    def test_sup_ignores_null_points(self):
        m = PointMeasure(np.array([1.0, 0.0]))
        assert lp_norm(np.array([1.0, 100.0]), m, math.inf) == 1.0
        assert lp_norm(np.ones(2), PointMeasure(np.zeros(2)), math.inf) == 0.0

    def test_infinite_value_at_null_point_ignored(self):
        m = PointMeasure(np.array([0.0, 1.0]))
        assert lp_norm(np.array([math.inf, 2.0]), m, 2.0) == 2.0

    def test_doubling_scales(self):
        rng = np.random.default_rng(3)
        m = PointMeasure(random_masses(rng, 12))
        f = rng.random(12)
        for p in (1.5, 2.0, 4.0):
            a, b = lp_norm(2.0 * f, m, p), 2.0 * lp_norm(f, m, p)
            assert abs(a - b) <= 1e-12 * b


def weak_quasinorm_loop(g, omega, q):
    """One PointMeasure.of call per level: the reference weak_quasinorm."""
    a = np.abs(np.asarray(g, dtype=float))
    levels = np.unique(a[(omega.masses > 0) & (a > 0)])
    best = 0.0
    for v in levels:
        w = omega.of(np.flatnonzero(a >= v))
        best = max(best, float(v * w ** (1.0 / q)))
    return best


class TestWeakQuasinorm:
    def test_two_levels(self):
        omega = PointMeasure(np.ones(2))
        assert weak_quasinorm(np.array([3.0, 1.0]), omega, 1.0) == 3.0

    def test_zero_and_constant(self):
        omega = PointMeasure(np.array([2.0, 2.0]))
        assert weak_quasinorm(np.zeros(2), omega, 2.0) == 0.0
        want = 5.0 * 4.0 ** 0.5
        assert weak_quasinorm(np.full(2, 5.0), omega, 2.0) == want

    def test_infinite_value_with_mass(self):
        omega = PointMeasure(np.ones(2))
        assert weak_quasinorm(np.array([math.inf, 1.0]), omega, 2.0) == math.inf

    def test_levels_at_null_points_do_not_matter(self):
        omega = PointMeasure(np.array([1.0, 0.0]))
        # the value 7 sits on a null point; only the level 2 contributes
        assert weak_quasinorm(np.array([2.0, 7.0]), omega, 1.0) == 2.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
                    min_size=1, max_size=10),
           st.integers(1, 4))
    def test_chebyshev(self, vals, qi):
        g = np.asarray(vals)
        omega = PointMeasure(np.ones(g.size))
        q = float(qi)
        weak = weak_quasinorm(g, omega, q)
        strong = lp_norm(g, omega, q)
        assert weak <= strong * (1.0 + 1e-12)

    def test_matches_level_loop(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 16, 27, 64):
            for _ in range(10):
                # non-integer masses so the summation order shows; rounded
                # values so levels tie; a share of null points and zeros
                masses = rng.random(n) * (rng.random(n) < 0.75)
                omega = PointMeasure(masses)
                g = np.round(rng.normal(size=n) * 4.0, 1)
                for q in (1.0, 1.5, 3.0):
                    assert weak_quasinorm(g, omega, q) == weak_quasinorm_loop(
                        g, omega, q)

    def test_screen_matches_level_loop_adversarial(self):
        rng = np.random.default_rng(80)
        for n in (1, 2, 7, 8, 9, 27, 256, 1024):
            # masses over sixteen decades with a null share
            masses = 10.0 ** rng.uniform(-8.0, 8.0, n) * (rng.random(n) < 0.8)
            omega = PointMeasure(masses)
            order = rng.permutation(n)
            w = np.cumsum(masses[order])
            for q in (0.5, 1.0, 1.5, 2.0, 3.0, 7.0):
                spread = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
                ties = np.round(rng.normal(size=n) * 3.0)
                # v * w(v)^(1/q) equal in exact arithmetic at every level, so
                # the screen keeps many levels and only the re-sum decides
                flat = np.empty(n)
                flat[order] = (w + (w == 0.0)) ** (-1.0 / q)
                flat *= 1.0 + rng.uniform(-1e-15, 1e-15, n)
                with_inf = rng.random(n)
                with_inf[rng.integers(n)] = math.inf
                for g in (spread, ties, flat, with_inf):
                    assert weak_quasinorm(g, omega, q) == weak_quasinorm_loop(
                        g, omega, q)


class TestStrongNorm:
    def test_one_point_closed_form(self):
        space, kernel, sigma, omega = one_point_setup()
        op = MatrixOperator(kernel.matrix, sigma, omega)
        est = operator_norm_strong(op.apply, sigma, omega, 2.0, 2.0,
                                   budget=4, apply_adjoint=op.apply_adjoint,
                                   matrix=kernel.matrix)
        assert abs(est.lower - 6.0) <= 1e-9
        assert abs(est.details["spectral"] - 6.0) <= 1e-9
        assert est.lower <= est.estimate

    def test_one_point_sigma_scaling(self):
        # scaling sigma by s moves the norm by s^{1/p'}: closed form K s^{1/p'} w^{1/q}
        _, kernel, _, omega = one_point_setup()
        for s in (1.0, 4.0, 16.0):
            sigma = PointMeasure(np.array([4.0 * s]))
            op = MatrixOperator(kernel.matrix, sigma, omega)
            est = operator_norm_strong(op.apply, sigma, omega, 2.0, 2.0,
                                       budget=2)
            assert abs(est.lower - 6.0 * s ** 0.5) <= 1e-9 * 6.0 * s ** 0.5

    def test_zero_kernel(self, two_point):
        space, mu = two_point
        kernel = build_kernel(space, None, "matrix", values=np.zeros((2, 2)))
        op = MatrixOperator(kernel.matrix, mu, mu)
        est = operator_norm_strong(op.apply, mu, mu, 2.0, 3.0, budget=2)
        assert est.lower == 0.0

    def test_diagonal_closed_form(self):
        space, _ = generate_space("integer_segment_counting", n=4)
        diag = np.array([2.0, 5.0, 1.0, 3.0])
        kernel = build_kernel(space, None, "matrix", values=np.diag(diag))
        rng = np.random.default_rng(11)
        sigma = PointMeasure(random_masses(rng, 4))
        omega = PointMeasure(random_masses(rng, 4))
        want = float(np.max(diag * np.sqrt(sigma.masses * omega.masses)))
        op = MatrixOperator(kernel.matrix, sigma, omega)
        est = operator_norm_strong(op.apply, sigma, omega, 2.0, 2.0, budget=4,
                                   apply_adjoint=op.apply_adjoint,
                                   matrix=kernel.matrix)
        assert abs(est.lower - want) <= 1e-9 * want
        assert abs(est.details["spectral"] - want) <= 1e-9 * want

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (1.5, 3.0)])
    def test_two_point_grid_oracle(self, two_point, p, q):
        space, _ = two_point
        kernel = build_kernel(space, None, "matrix",
                              values=[[2.0, 1.0], [1.0, 3.0]])
        sigma = PointMeasure(np.array([4.0, 1.0]))
        omega = PointMeasure(np.array([1.0, 9.0]))
        op = MatrixOperator(kernel.matrix, sigma, omega)

        def objective(f):
            num = lp_norm(op.apply(f), omega, q)
            return num / lp_norm(f, sigma, p)

        ts = np.linspace(0.0, 1.0, 4001)
        grid = max(objective(np.array([t, 1.0 - t])) for t in ts)
        est = operator_norm_strong(op.apply, sigma, omega, p, q, budget=6,
                                   apply_adjoint=op.apply_adjoint,
                                   matrix=kernel.matrix if p == q == 2 else None)
        assert est.lower >= grid - 1e-9
        assert abs(est.lower - grid) <= 1e-4 * grid

    def test_fixed_point_matches_multistart(self, segment4):
        space, mu = segment4
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        rng = np.random.default_rng(5)
        sigma = PointMeasure(random_masses(rng, 4))
        omega = PointMeasure(random_masses(rng, 4))
        op = MatrixOperator(kernel.matrix, sigma, omega)
        est = operator_norm_strong(op.apply, sigma, omega, 2.0, 2.0, budget=6,
                                   apply_adjoint=op.apply_adjoint,
                                   matrix=kernel.matrix)
        fp = est.details["fixed_point"]
        assert fp is not None
        assert abs(fp - est.lower) <= 1e-6 * est.lower
        assert abs(est.details["spectral"] - est.lower) <= 1e-6 * est.lower

    def test_witness_replays(self, segment4):
        space, mu = segment4
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        op = MatrixOperator(kernel.matrix, mu, mu)
        est = operator_norm_strong(op.apply, mu, mu, 1.5, 2.0, budget=3)
        got = lp_norm(op.apply(est.witness), mu, 2.0) / lp_norm(est.witness, mu, 1.5)
        assert abs(got - est.lower) <= 1e-9 * est.lower

    def test_witness_replay_mismatch_is_typed(self, two_point):
        # an operator that grows with every call cannot replay its witness
        _, mu = two_point
        calls = [0]

        def drifting(f):
            calls[0] += 1
            return np.asarray(f) * calls[0]

        with pytest.raises(LowerBoundViolated, match="replay"):
            operator_norm_strong(drifting, mu, mu, 2.0, 2.0, budget=1)

    def test_infinite_diagonal_raises(self):
        space, _ = generate_space("integer_segment_counting", n=1)
        kernel = build_kernel(space, PointMeasure(np.zeros(1)), "ball_volume_closed",
                              gamma=0.5)
        m = PointMeasure(np.ones(1))
        op = MatrixOperator(kernel.matrix, m, m)
        with pytest.raises(Infinite):
            operator_norm_strong(op.apply, m, m, 2.0, 2.0, budget=2)

    def test_non_monotone_rejected(self, two_point):
        space, mu = two_point
        with pytest.raises(NonPositiveOperator):
            operator_norm_strong(lambda f: -np.asarray(f), mu, mu, 2.0, 2.0,
                                 budget=2)


class TestWeakNorm:
    def test_one_point(self):
        space, kernel, sigma, omega = one_point_setup()
        op = MatrixOperator(kernel.matrix, sigma, omega)
        est = operator_norm_weak(op.apply, sigma, omega, 2.0, 2.0, budget=4)
        assert abs(est.lower - 6.0) <= 1e-9

    def test_zero_operator(self, two_point):
        space, mu = two_point
        kernel = build_kernel(space, None, "matrix", values=np.zeros((2, 2)))
        op = MatrixOperator(kernel.matrix, mu, mu)
        est = operator_norm_weak(op.apply, mu, mu, 2.0, 2.0, budget=2)
        assert est.lower == 0.0

    def test_two_point_diagonal_grid(self, two_point):
        space, _ = two_point
        diag = np.array([3.0, 2.0])
        kernel = build_kernel(space, None, "matrix", values=np.diag(diag))
        sigma = PointMeasure(np.array([1.0, 4.0]))
        omega = PointMeasure(np.array([2.0, 1.0]))
        op = MatrixOperator(kernel.matrix, sigma, omega)
        p = q = 2.0

        def objective(f):
            g = diag * f * sigma.masses
            lo, hi = sorted(g)
            top = np.argmax(g)
            weak = max(hi * omega.masses[top] ** 0.5,
                       lo * omega.total ** 0.5 if lo > 0 else 0.0)
            return weak / lp_norm(f, sigma, p)

        ts = np.linspace(0.0, 1.0, 4001)
        grid = max(objective(np.array([t, 1.0 - t])) for t in ts[1:])
        est = operator_norm_weak(op.apply, sigma, omega, p, q, budget=6)
        assert est.lower >= grid - 1e-9
        assert abs(est.lower - grid) <= 1e-3 * grid

    def test_weak_below_strong(self, segment4):
        space, mu = segment4
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        op = MatrixOperator(kernel.matrix, mu, mu)
        weak = operator_norm_weak(op.apply, mu, mu, 2.0, 2.0, budget=4)
        strong = operator_norm_strong(op.apply, mu, mu, 2.0, 2.0, budget=4,
                                      apply_adjoint=op.apply_adjoint)
        assert weak.lower <= strong.lower * (1.0 + 1e-9)


class TestTestingConstants:
    def test_one_point_equals_norm(self):
        space, kernel, sigma, omega = one_point_setup()
        fam = build_adjacent_systems(space)
        op = MatrixOperator(kernel.matrix, sigma, omega)
        tc = compute_testing(op, fam, 2.0, 2.0)
        assert abs(tc.strong - 6.0) <= 1e-12
        # dual side: omega(Q)^{-1/q'} ||chi T*(chi dw)||_{p'} = 9^{-1/2}*9*2 = 6
        assert abs(tc.dual - 6.0) <= 1e-12
        assert tc.argmax_strong is not None

    def test_null_sigma_all_skipped(self, segment4):
        space, mu = segment4
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        fam = build_adjacent_systems(space)
        zero = PointMeasure(np.zeros(4))
        op = MatrixOperator(kernel.matrix, zero, mu)
        tc = compute_testing(op, fam, 2.0, 2.0)
        assert tc.strong == 0.0 and tc.dual == 0.0
        assert tc.convention_hits == len(standard_cubes(fam))

    def test_segment_finite_with_argmax(self, segment16):
        space, mu = segment16
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        fam = build_adjacent_systems(space)
        op = MatrixOperator(kernel.matrix, mu, mu)
        tc = compute_testing(op, fam, 2.0, 2.0)
        assert 0.0 < tc.strong < math.inf
        assert 0.0 < tc.dual < math.inf
        assert tc.argmax_strong is not None and tc.argmax_dual is not None
        assert tc.infinite_cubes == ()

    def test_testing_below_seeded_norm(self, segment16):
        space, mu = segment16
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        fam = build_adjacent_systems(space)
        rng = np.random.default_rng(7)
        sigma = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        omega = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        op = MatrixOperator(kernel.matrix, sigma, omega)
        tc = compute_testing(op, fam, 2.0, 3.0)
        est = operator_norm_strong(op.apply, sigma, omega, 2.0, 3.0, budget=2,
                                   seeds=cube_seeds(fam, 16))
        assert tc.strong <= est.lower + 1e-9


class TestTheoremB:
    def test_one_point_ratio(self):
        space, kernel, sigma, omega = one_point_setup()
        fam = build_adjacent_systems(space)
        v = verdict_theorem_b(kernel, fam, sigma, omega, 2.0, 2.0, budget=3)
        assert abs(v.n_lb - 6.0) <= 1e-9
        assert abs(v.testing_sum - 12.0) <= 1e-9
        assert 0.5 - 1e-9 <= v.ratio <= 1.0 + 1e-9

    def test_zero_kernel_convention(self, two_point):
        space, mu = two_point
        kernel = build_kernel(space, None, "matrix", values=np.zeros((2, 2)))
        fam = build_adjacent_systems(space)
        v = verdict_theorem_b(kernel, fam, mu, mu, 2.0, 2.0, budget=2)
        assert v.ratio == 1.0
        assert v.n_lb == 0.0

    def test_segment_instance(self, segment16):
        space, mu = segment16
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        fam = build_adjacent_systems(space)
        rng = np.random.default_rng(23)
        sigma = PointMeasure(random_masses(rng, 16))
        omega = PointMeasure(random_masses(rng, 16))
        v = verdict_theorem_b(kernel, fam, sigma, omega, 2.0, 2.0, budget=4)
        assert math.isfinite(v.ratio)
        assert v.testing.strong <= v.norm.lower + 1e-9
        assert v.testing.dual <= v.adjoint_norm.lower + 1e-9
        assert v.n_lb <= v.norm.estimate * (1.0 + 1e-9)

    def test_exponent_gate(self, two_point):
        space, mu = two_point
        kernel = build_kernel(space, None, "matrix", values=np.zeros((2, 2)))
        fam = build_adjacent_systems(space)
        with pytest.raises(BadExponents):
            verdict_theorem_b(kernel, fam, mu, mu, 2.0, math.inf, budget=2)


class TestWeakType:
    def test_one_point(self):
        space, kernel, sigma, omega = one_point_setup()
        fam = build_adjacent_systems(space)
        v = weak_verdict(kernel, fam, sigma, omega, 2.0, 2.0, budget=3)
        assert abs(v.weak_norm.lower - 6.0) <= 1e-9
        assert abs(v.testing.dual - 6.0) <= 1e-9
        assert abs(v.ratio - 1.0) <= 1e-9
        assert all(math.isfinite(entry["ratio"]) for entry in v.per_system)

    def test_zero_kernel(self, two_point):
        space, mu = two_point
        kernel = build_kernel(space, None, "matrix", values=np.zeros((2, 2)))
        fam = build_adjacent_systems(space)
        v = weak_verdict(kernel, fam, mu, mu, 2.0, 2.0, budget=2)
        assert v.ratio == 1.0
        assert all(entry["ratio"] == 1.0 for entry in v.per_system)

    def test_segment_instance(self, segment16):
        space, mu = segment16
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        fam = build_adjacent_systems(space)
        rng = np.random.default_rng(29)
        sigma = PointMeasure(random_masses(rng, 16))
        omega = PointMeasure(random_masses(rng, 16))
        v = weak_verdict(kernel, fam, sigma, omega, 1.5, 2.0, budget=3)
        assert math.isfinite(v.ratio)
        assert v.testing.dual <= v.adjoint_norm.lower + 1e-9
        assert len(v.per_system) == len(fam)
        for entry in v.per_system:
            assert math.isfinite(entry["ratio"])
            assert entry["weak_lb"] >= 0.0

    def test_rejects_operators_of_another_instance(self, segment16):
        space, mu = segment16
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        fam = build_adjacent_systems(space)
        rng = np.random.default_rng(31)
        sigma = PointMeasure(random_masses(rng, 16))
        omega = PointMeasure(random_masses(rng, 16))
        strong = verdict_theorem_b(kernel, fam, sigma, omega, 2.0, 2.0,
                                   budget=2)
        other_pair = [
            build_dyadic_operator(kernel, generalize(s, omega, sigma))
            for s in fam]
        with pytest.raises(BadParams, match="measure pair"):
            verdict_weak_type(strong, other_pair, budget=2)
        twin = build_kernel(space, mu, "ball_volume", gamma=0.5)
        other_kernel = [
            build_dyadic_operator(twin, generalize(s, sigma, omega))
            for s in fam]
        with pytest.raises(BadParams, match="kernel"):
            verdict_weak_type(strong, other_kernel, budget=2)
        same = [build_dyadic_operator(kernel, generalize(s, sigma, omega))
                for s in fam]
        assert len(verdict_weak_type(strong, same, budget=2).per_system) \
            == len(fam)


class TestHelpers:
    def test_indicator(self):
        chi = indicator(4, (1, 3))
        assert chi.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_seed_size_validated(self, two_point):
        space, mu = two_point
        kernel = build_kernel(space, None, "matrix", values=np.zeros((2, 2)))
        op = MatrixOperator(kernel.matrix, mu, mu)
        with pytest.raises(BadParams):
            operator_norm_strong(op.apply, mu, mu, 2.0, 2.0, budget=1,
                                 seeds=[np.ones(3)])
