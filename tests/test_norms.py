import copy
import dataclasses
from collections import Counter
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica.dyadic import build_adjacent_systems
from dyadica.errors import BadParams, CheckFailed
from dyadica.kernel import build_kernel
from dyadica.norms import (
    Exponents,
    indicator,
    lp_norm,
    operator_norm_strong,
    operator_norm_weak,
    standard_cubes,
    verdict_theorem_b,
    verdict_weak_type,
    weak_quasinorm,
)
from dyadica.maximal import (apply_M, apply_M_dyadic, maximal_params,
                             verdict_theorem_a)
from dyadica import norms
from dyadica.norms import (
    NORM_SALT,
    NormEstimate,
    _block_values,
    _Chain,
    _norm_search,
    _run_chains,
    block_rows,
    cube_testing,
)
from dyadica.norms import testing_constants as compute_testing
from dyadica.operators import (
    MatrixOperator,
    build_dyadic_operator,
    split_diagonal,
    weighted_apply,
)
from dyadica.harness import _Run
from dyadica.reporting import Scenario
from dyadica.space import PointMeasure, generate_space

from conftest import random_masses
from test_maximal import apply_M_rows


def weak_verdict(kernel, fam, sigma, omega, p, q, budget):
    """Theorem B's verdict, then the weak-type verdict on the same instance."""
    strong = verdict_theorem_b(kernel, fam, sigma, omega, p, q, budget=budget)
    ops = [build_dyadic_operator(kernel, s, sigma, omega)
           for s in fam]
    return verdict_weak_type(strong, ops, budget=budget)


def run_fixed_point(values, apply, apply_adjoint, f0, p, q):
    """Run one chain alone, value its iterates with values as the search
    does, and return the best (iterate, value), the number of iterates
    and whether the chain stopped on a repeat."""
    [(fs, gs, settled)] = _run_chains([_Chain(apply, apply_adjoint, f0, p, q)])
    best, bw = -math.inf, None
    for f, v in zip(fs, values([(apply, fs, gs)])[0]):
        if v is not None and v > best:
            best, bw = v, f
    return bw, best, len(fs), settled


def norm_search(problems, sigma, omega, p, q, weak, pool_only=False):
    """The lockstep search of problems that share one (sigma, omega, p, q)."""
    return _norm_search([(sigma, omega, p, q, *pr) for pr in problems],
                        weak=weak, pool_only=pool_only)


def count_steps(monkeypatch):
    """Record the rows of every evaluator call of the norm searches, and
    each entry into the random ascent.  A call with no job raises: the
    calls are the search's steps."""
    steps, ascents = [], []
    real_values, real_ascent = norms._block_values, norms._lockstep_ascent

    def block_values(*args):
        values = real_values(*args)

        def counted(jobs):
            if not jobs:
                raise AssertionError("evaluator called with no job")
            steps.append([row for job in jobs for row in job[1]])
            return values(jobs)
        return counted

    def ascent(*args):
        ascents.append(args)
        return (yield from real_ascent(*args))

    monkeypatch.setattr(norms, "_block_values", block_values)
    monkeypatch.setattr(norms, "_lockstep_ascent", ascent)
    return steps, ascents


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
        with pytest.raises(BadParams, match="q < inf"):
            ex.dual()

    def test_dual_swaps(self):
        ex = Exponents(2.0, 4.0)
        d = ex.dual()
        assert (d.p, d.q) == (ex.q_prime, ex.p_prime)

    @pytest.mark.parametrize("p,q", [(1.0, 2.0), (0.5, 2.0), (3.0, 2.0),
                                     (math.inf, math.inf)])
    def test_rejects(self, p, q):
        with pytest.raises(BadParams):
            Exponents(p, q)

    @pytest.mark.parametrize("p,q", [(np.int64(2), np.int64(2)),
                                     (np.float32(1.5), np.float32(3.0)),
                                     (2, np.float64(4.0))])
    def test_numpy_scalars_are_stored_as_floats(self, p, q):
        ex = Exponents(p, q)
        assert (type(ex.p), type(ex.q)) == (float, float)
        assert (ex.p, ex.q) == (float(p), float(q))

    @pytest.mark.parametrize("p,q", [(True, 2.0), (2.0, True),
                                     (np.bool_(True), 2.0), (2.0, np.bool_(True)),
                                     ("2", 2.0)])
    def test_refuses_booleans_and_non_numbers(self, p, q):
        with pytest.raises(BadParams, match="exponents must be numbers"):
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


def lp_norm_where(f, measure, p):
    """The previous form: the product under errstate, then np.where."""
    a = np.abs(np.asarray(f, dtype=float))
    masses = measure.masses
    with np.errstate(invalid="ignore"):
        terms = np.power(a, p) * masses
    terms = np.where(masses == 0.0, 0.0, terms)
    return float(np.sum(terms) ** (1.0 / p))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lp_norm_matches_previous_form(p):
    rng = np.random.default_rng(int(p * 10))
    # four draws per size: compacting the terms to the charged points (a
    # change of summation order) then shows at every p
    for n in (1, 2, 7, 16, 27, 256) * 4:
        for zero_fraction in (0.0, 0.3, 1.0):
            spread = 10.0 ** rng.uniform(-4.0, 4.0, n)
            for m in (PointMeasure(random_masses(rng, n, zero_fraction)
                                   * spread), PointMeasure(np.zeros(n))):
                f = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
                f[rng.random(n) < 0.2] = 0.0
                null_inf = f.copy()
                null_inf[~m.charged] = math.inf  # silenced by null masses
                charged_inf = null_inf.copy()
                charged_inf[rng.integers(n)] = -math.inf
                for g in (f, null_inf, charged_inf):
                    assert lp_norm(g, m, p) == lp_norm_where(g, m, p)


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

    def test_fixed_point_reaches_the_spectral_norm(self, segment4):
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

    def test_fixed_point_applies_once_per_iterate(self, segment4):
        # each iterate's value reads the image the iteration needs anyway,
        # the iteration stops at the first iterate that repeats an earlier
        # one bit for bit, and the result equals the sequential loop's,
        # which applies twice and runs all 30 iterations; both count the
        # iterates before the repeat and say that one came
        space, mu = segment4
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        op = MatrixOperator(kernel.matrix, mu, mu)
        applied, adjoint = [], []

        def apply(f):
            applied.append(f)
            return op.apply(f)

        def apply_adjoint(u):
            adjoint.append(u)
            return op.apply_adjoint(u)

        values = _block_values(mu, mu, 1.5, 3.0, False)
        got = run_fixed_point(values, apply, apply_adjoint, np.ones(4), 1.5,
                              3.0)
        assert len(applied) == len(adjoint) == \
            len({f.tobytes() for f in applied}) < 30
        want = fixed_point_seq(objective_seq(op.apply, mu, mu, 1.5, 3.0, False),
                               op.apply, op.apply_adjoint, np.ones(4), 1.5, 3.0)
        assert got[1] == want[1] and np.array_equal(got[0], want[0])
        assert got[2:] == want[2:] == (len(applied), True)

    def test_fixed_point_raises_the_first_error_in_iteration_order(self):
        # the iterates are valued after the loop, so an error of the loop
        # (the adjoint's) raises before the first iterate's value error (a
        # null function mapped to positive mass); with the adjoint fine,
        # the value errors come in iteration order, the first iterate's
        sigma = PointMeasure(np.array([0.0, 0.0, 1.0, 1.0]))
        omega = PointMeasure(np.ones(4))

        def apply(f):
            return np.ones(np.shape(f))

        def adjoint(u):
            raise ValueError("adjoint")

        values = _block_values(sigma, omega, 2.0, 2.0, False)
        null = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="adjoint"):
            run_fixed_point(values, apply, adjoint, null, 2.0, 2.0)
        with pytest.raises(CheckFailed) as got:
            run_fixed_point(values, apply, np.asarray, null, 2.0, 2.0)
        assert got.value.check == "finite_image"
        assert got.value.witness == {"f": null.tolist()}

    def test_adjoint_search_stops_at_the_fixed_point(self, segment16,
                                                    monkeypatch):
        # the pool, the fixed point and the witness replay are the search's
        # three evaluator steps: no restarts, and the ascent never starts
        steps, ascents = count_steps(monkeypatch)
        space, mu = segment16
        rng = np.random.default_rng(3)
        sigma = PointMeasure(random_masses(rng, 16))
        omega = PointMeasure(random_masses(rng, 16, zero_fraction=0.25))
        op = MatrixOperator(build_kernel(space, mu, "ball_volume",
                                         gamma=0.5).matrix, sigma, omega)
        est = operator_norm_strong(op.apply, sigma, omega, 1.5, 3.0, budget=8,
                                   apply_adjoint=op.apply_adjoint)
        assert (len(steps), ascents) == (3, [])
        assert est.method == "fixed-point" or est.method.startswith("pool:")
        assert est.details["fixed_point_iters"] == len(steps[1])

    def test_only_the_fixed_point_searches_skip_the_ascent(self, segment16,
                                                          monkeypatch):
        # a strong search without an adjoint, a weak search and the
        # theorem-A search take the pool, the restarts, the ascent's 60
        # iterations in blocks of up to _LOOKAHEAD per start, and the
        # replay; the search with an adjoint takes three steps
        steps, ascents = count_steps(monkeypatch)
        space, mu = segment16
        rng = np.random.default_rng(4)
        sigma = PointMeasure(random_masses(rng, 16))
        omega = PointMeasure(random_masses(rng, 16, zero_fraction=0.25))
        op = MatrixOperator(build_kernel(space, mu, "ball_volume",
                                         gamma=0.5).matrix, sigma, omega)
        fam = build_adjacent_systems(space, num_systems=1)
        searches = {
            "adjoint": lambda: operator_norm_strong(
                op.apply, sigma, omega, 2.0, 2.0, 2,
                apply_adjoint=op.apply_adjoint),
            "strong": lambda: operator_norm_strong(op.apply, sigma, omega,
                                                   2.0, 2.0, 2),
            "weak": lambda: operator_norm_weak(op.apply, sigma, omega, 2.0,
                                               2.0, 2),
            "theorem-a": lambda: verdict_theorem_a(fam, mu, sigma, omega, 0.5,
                                                   2.0, 2.0, budget=2),
        }
        counts = {}
        for name, search in searches.items():
            steps.clear()
            ascents.clear()
            search()
            counts[name] = (len(steps), len(ascents))
        assert counts == {"adjoint": (3, 0), "strong": (29, 1),
                          "weak": (28, 1), "theorem-a": (32, 1)}

    @pytest.mark.parametrize("search", [operator_norm_strong,
                                        operator_norm_weak])
    def test_null_measure_is_vacuous(self, search):
        # every pool row and restart is null, so the ascent has no start
        null = PointMeasure(np.zeros(3))
        est = search(lambda f: np.zeros(np.shape(f)), null, null, 2.0, 2.0)
        assert (est.lower, est.witness, est.method) == (0.0, None, "vacuous")

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

        with pytest.raises(CheckFailed, match="replay") as err:
            operator_norm_strong(drifting, mu, mu, 2.0, 2.0, budget=1)
        assert err.value.check == "witness_replay"

    def test_infinite_diagonal_raises(self):
        space, _ = generate_space("integer_segment_counting", n=1)
        kernel = build_kernel(space, PointMeasure(np.zeros(1)), "ball_volume_closed",
                              gamma=0.5)
        m = PointMeasure(np.ones(1))
        op = MatrixOperator(kernel.matrix, m, m)
        with pytest.raises(CheckFailed) as err:
            operator_norm_strong(op.apply, m, m, 2.0, 2.0, budget=2)
        assert err.value.check == "finite_image"

    def test_non_monotone_rejected(self, two_point):
        space, mu = two_point
        with pytest.raises(CheckFailed) as err:
            operator_norm_strong(lambda f: -np.asarray(f), mu, mu, 2.0, 2.0,
                                 budget=2)
        assert err.value.check == "monotone"
        assert set(err.value.witness) == {"f1", "f2"}


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
        assert tc.infinite_strong == tc.infinite_dual == ()

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
                                   seeds=standard_cubes(fam))
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

    @pytest.mark.parametrize("p,q,seed", [(2.0, 2.0, 2), (1.5, 3.0, 0),
                                          (1.5, 1.5, 2)])
    def test_bounds_are_the_pool_or_the_fixed_point(self, p, q, seed):
        # the 27-point tree with the frac_rho kernel, where the fixed point
        # runs all 30 iterations without repeating: each of the two bounds
        # is the larger of its pool value and its fixed-point value
        doc = {"space": {"kind": "ultrametric_tree", "depth": 3,
                         "branching": 3, "ratio": 1.0 / 96.0},
               "measures": {"sigma": {"random": {"seed": 5}},
                            "omega": {"random": {"seed": 6,
                                                 "zero_fraction": 0.25}}},
               "kernel": {"type": "frac_rho", "alpha": 0.5, "n": 1,
                          "diag": 1.0},
               "exponents": {"p": p, "q": q}, "dyadic": {"x0": 0},
               "seed": seed, "budget": 1, "checks": ["theorem-b"]}
        v = _Run(Scenario.from_dict(doc)).strong
        op, d = v.operator, v.exponents.dual()
        for est, (apply, s, pair) in zip(
                (v.norm, v.adjoint_norm),
                ((op.apply, seed, (op.sigma, op.omega, p, q)),
                 (op.apply_adjoint, seed + 1, (op.omega, op.sigma, d.p, d.q)))):
            pool = norm_search([(apply, 1, v.seeds, s)], *pair, weak=False,
                               pool_only=True)[0]
            assert est.lower == max(pool.lower, est.details["fixed_point"])
            assert (est.details["fixed_point_iters"],
                    est.details["fixed_point_settled"]) == (30, False)
        assert v.n_lb == max(v.norm.lower, v.adjoint_norm.lower)

    def test_the_adjoint_spot_check_raises_before_the_primal_pool(
            self, monkeypatch):
        # the primal and adjoint searches run in one lockstep, so the
        # adjoint's spot check (its first step) raises before the primal's
        # pool (its second): here an adjoint that refuses the adjoint
        # search's first spot-check row, and an infinite image of the
        # primal pool's random:0 row, which raises once the adjoint is fine
        space, mu, sigma, omega, kernel, fam = oracle_instance("segment", 16, 0)
        random0 = norms._rng(0, 0).random(16)  # the primal's seed is 0
        spot = norms._rng(1, 0xC0).random(16) + 0.1  # the adjoint's is 1
        real_apply, real_adjoint = MatrixOperator.apply, MatrixOperator.apply_adjoint

        def apply(op, f):
            g = np.array(real_apply(op, f), dtype=float)
            g[(np.reshape(f, g.shape) == random0).all(axis=-1)] = math.inf
            return g

        def adjoint(op, h):
            if (np.reshape(h, (-1, 16)) == spot).all(axis=1).any():
                raise ValueError("adjoint spot check")
            return real_adjoint(op, h)

        monkeypatch.setattr(MatrixOperator, "apply", apply)
        monkeypatch.setattr(MatrixOperator, "apply_adjoint", adjoint)
        with pytest.raises(ValueError, match="adjoint spot check"):
            verdict_theorem_b(kernel, fam, sigma, omega, 1.5, 3.0, budget=1)
        monkeypatch.setattr(MatrixOperator, "apply_adjoint", real_adjoint)
        with pytest.raises(CheckFailed) as err:
            verdict_theorem_b(kernel, fam, sigma, omega, 1.5, 3.0, budget=1)
        assert err.value.check == "finite_image"
        assert err.value.witness == {"f": random0.tolist()}

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
        with pytest.raises(BadParams, match="q < inf"):
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
            build_dyadic_operator(kernel, s, omega, sigma)
            for s in fam]
        with pytest.raises(BadParams, match="measure pair"):
            verdict_weak_type(strong, other_pair, budget=2)
        twin = build_kernel(space, mu, "ball_volume", gamma=0.5)
        other_kernel = [
            build_dyadic_operator(twin, s, sigma, omega)
            for s in fam]
        with pytest.raises(BadParams, match="kernel"):
            verdict_weak_type(strong, other_kernel, budget=2)
        same = [build_dyadic_operator(kernel, s, sigma, omega)
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


# ---------------------------------------------------------------------------
# bit identity with the sequential search: the norm search, the testing
# sweep and the weak quasinorm as they were before block evaluation, each
# function evaluated on its own, kept here as oracles
# ---------------------------------------------------------------------------

def weighted_apply_seq(off, diag, f, measure):
    g = np.asarray(f, dtype=float) * measure.masses
    if not g.any():
        return np.zeros(g.size)
    return off @ g + np.multiply(diag, g, out=np.zeros(g.size), where=g != 0.0)


def lp_norm_seq(f, measure, p):
    a = np.abs(np.asarray(f, dtype=float))
    if math.isinf(p):
        sel = a[measure.charged]
        return float(sel.max()) if sel.size else 0.0
    terms = np.zeros(a.size)
    np.multiply(np.power(a, p), measure.masses, out=terms,
                where=measure.charged)
    return float(terms.sum() ** (1.0 / p))


def weak_quasinorm_seq(g, omega, q):
    a = np.abs(np.asarray(g, dtype=float))
    masses = omega.masses
    sel = omega.charged & (a > 0)
    if not sel.any():
        return 0.0
    inv_q = 1.0 / q
    a_sel = a[sel]
    order = a_sel.argsort()[::-1]
    vals = a_sel[order]
    ends = np.ones(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=ends[:-1])
    levels = vals[ends]
    powers = masses[sel][order].cumsum()[ends] ** inv_q
    approx = levels * powers
    top = float(approx.max())
    if math.isfinite(top):
        margin = 64.0 * a.size * np.finfo(float).eps * max(1.0, abs(inv_q))
        keep = (approx >= top - (top * margin + np.finfo(float).tiny)) | (
            powers < 2.0 * np.finfo(float).tiny)
        levels = levels[keep]
    best = 0.0
    for v in levels.tolist():
        w = float(masses[a >= v].sum())
        best = max(best, v * w ** inv_q)
    return best


def objective_seq(apply, sigma, omega, p, q, weak):
    def value(f):
        den = lp_norm_seq(f, sigma, p)
        g = np.asarray(apply(f), dtype=float)
        num = weak_quasinorm_seq(g, omega, q) if weak else lp_norm_seq(
            g, omega, q)
        if den == 0.0:
            if num > 0.0:
                raise CheckFailed("finite_image", "operator maps a null "
                                  "function to positive mass", f=f.tolist())
            return None
        if math.isinf(num):
            raise CheckFailed("finite_image", "infinite image norm at "
                              "positive input norm", f=f.tolist())
        return num / den

    return value


def fixed_point_seq(value, apply, apply_adjoint, f0, p, q):
    """The power iteration with one value(f) call per iterate, which applies
    the operator to f once more than the iteration itself.  It runs all 30
    iterations and returns the best (iterate, value), the number of
    iterates before the first one that repeats an earlier one bit for bit,
    and whether one did."""
    f, keys = f0.copy(), []
    best, bw = -math.inf, None
    for _ in range(30):
        keys.append(f.tobytes())
        v = value(f)
        if v is not None and v > best:
            best, bw = v, f.copy()
        g = np.asarray(apply(f), dtype=float)
        if not np.isfinite(g).all() or float(g.max()) <= 0.0:
            break
        u = np.power(g, q - 1.0)
        u = u / float(u.max())
        h = np.asarray(apply_adjoint(u), dtype=float)
        if not np.isfinite(h).all() or float(h.max()) <= 0.0:
            break
        f = np.power(h, 1.0 / (p - 1.0))
        f = f / float(f.max())
    repeats = [i for i, k in enumerate(keys) if k in keys[:i]]
    return bw, best, (repeats + [len(keys)])[0], bool(repeats)


def seq_rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([NORM_SALT, seed, tag]))


def ascend_seq(value, f0, v0, rng, trace):
    f, best = f0.copy(), v0
    step, stall = 0.5, 0
    for it in range(60):
        if it % 3 == 2:
            pos = f[f > 0]
            base = float(pos.mean()) if pos.size else 1.0
            prop = f + step * base * rng.random(f.size)
        else:
            prop = f * np.exp(step * rng.standard_normal(f.size))
        m = float(prop.max())
        if m > 0 and math.isfinite(m):
            prop = prop / m
        trace.append((it, prop))
        v = value(prop)
        if v is not None and v > best:
            f, best = prop, v
            stall = 0
        else:
            stall += 1
            if stall >= 5:
                step *= 0.5
                stall = 0
            if step < 1e-4:
                break
    return f, best


def norm_search_seq(apply, sigma, omega, p, q, budget, seeds, apply_adjoint,
                    matrix, seed, weak, trace=None):
    """The sequential search; trace[i] collects (iteration, proposal) of
    ascent start i.  A strong search with an adjoint and q < inf stops
    after its fixed point, with no restarts and no ascent."""
    n = sigma.masses.size
    rng = seq_rng(seed, 0xC0)
    for _ in range(3):
        f2 = rng.random(n) + 0.1
        f1 = f2 * rng.random(n)
        g1, g2 = np.asarray(apply(f1)), np.asarray(apply(f2))
        ok = np.where(np.isfinite(g2), g1 <= g2 * (1.0 + 1e-12) + 1e-300, True)
        if not np.all(ok):
            raise CheckFailed("monotone", "operator is not order preserving")
    value = objective_seq(apply, sigma, omega, p, q, weak)
    pool = [("ones", np.ones(n))]
    for x in range(n):
        e = np.zeros(n)
        e[x] = 1.0
        pool.append((f"point:{x}", e))
    pool += [(f"seed:{i}", np.abs(np.asarray(s, dtype=float)))
             for i, s in enumerate(seeds)]
    pool += [(f"random:{b}", seq_rng(seed, b).random(n)) for b in range(budget)]
    best, witness, method = -math.inf, None, "none"
    for name, f in pool:
        v = value(f)
        if v is not None and v > best:
            best, witness, method = v, f, f"pool:{name}"
    details = {}
    fixed = apply_adjoint is not None and not weak and not math.isinf(q)
    if fixed:
        start = witness if witness is not None and np.max(witness) > 0 \
            else np.ones(n)
        bw, bv, iters, settled = fixed_point_seq(value, apply, apply_adjoint,
                                                 start, p, q)
        details["fixed_point"] = bv if bv > -math.inf else None
        details["fixed_point_iters"] = iters
        details["fixed_point_settled"] = settled
        if bw is not None and bv > best:
            best, witness, method = bv, bw, "fixed-point"
    starts = [] if fixed or witness is None else [("best", witness, best)]
    for b in range(0 if fixed else max(1, budget)):
        f0 = seq_rng(seed, 0x100 + b).random(n)
        v0 = value(f0)
        if v0 is not None:
            starts.append((f"restart:{b}", f0, v0))
    trace = [] if trace is None else trace
    for i, (tag, f0, v0) in enumerate(starts):
        trace.append([])
        f1, v1 = ascend_seq(value, f0, v0, seq_rng(seed, 0x200 + i), trace[i])
        if v1 > best:
            best, witness, method = v1, f1, f"ascent:{tag}"
    if best == -math.inf:
        return NormEstimate(0.0, 0.0, None, "vacuous", details)
    assert value(witness) == best
    estimate = best
    if not weak and p == 2.0 and q == 2.0 and matrix is not None:
        b_mat = (np.sqrt(omega.masses)[:, None] * matrix
                 * np.sqrt(sigma.masses)[None, :])
        details["spectral"] = float(np.linalg.norm(b_mat, 2))
        estimate = max(best, details["spectral"])
    return NormEstimate(best, estimate, witness, method, details)


def cube_testing_seq(cubes, action, normalizer, inside, r_out, r_norm):
    n = normalizer.masses.size
    best, argmax, hits, infinite = 0.0, None, 0, []
    for cube, row in enumerate(cubes):
        members = np.flatnonzero(row)
        mass = normalizer.of(members)
        if mass == 0.0:
            hits += 1
            continue
        chi = indicator(n, members)
        img = np.where(chi > 0.0, np.asarray(action(chi), dtype=float), 0.0)
        val = lp_norm_seq(img, inside, r_out) / mass ** (1.0 / r_norm)
        if math.isinf(val):
            infinite.append(cube)
            best = math.inf
            continue
        if val > best:
            best, argmax = val, cube
    return best, argmax, hits, infinite


def assert_same_estimate(got, want):
    assert (got.lower, got.estimate, got.method, got.details) == (
        want.lower, want.estimate, want.method, want.details)
    assert got.witness.tobytes() == want.witness.tobytes()


def real_masses(rng, n, zero_fraction=0.0):
    """Masses spread over four decades, so that a change of summation
    order would show in the last digits."""
    m = rng.random(n) * 10.0 ** rng.uniform(-2.0, 2.0, n)
    m[rng.random(n) < zero_fraction] = 0.0
    return m


ORACLE_SPACES = {
    "segment": lambda n: ("integer_segment_counting", {"n": n}),
    "cloud": lambda n: ("euclidean_random_points", {"n": n, "dim": 2}),
    "tree": lambda n: ("ultrametric_tree", {8: {"depth": 3, "branching": 2},
                                            16: {"depth": 2, "branching": 4},
                                            27: {"depth": 3, "branching": 3},
                                            64: {"depth": 3, "branching": 4}
                                            }[n] | {"ratio": 1.0 / 96.0}),
}


def oracle_instance(kind, n, seed):
    name, params = ORACLE_SPACES[kind](n)
    space, mu = generate_space(name, seed=seed, **params)
    rng = np.random.default_rng(1000 + n + seed)
    sigma = PointMeasure(real_masses(rng, n))
    omega = PointMeasure(real_masses(rng, n, 0.25))
    kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
    fam = build_adjacent_systems(space)
    return space, mu, sigma, omega, kernel, fam


class TestBlockSearchMatchesSequential:
    @pytest.mark.parametrize("kind", ["segment", "cloud", "tree"])
    @pytest.mark.parametrize("n", [8, 16, 27, 64])
    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (1.5, 3.0), (1.5, 1.5),
                                     (3.0, 3.0)])
    def test_matrix_operator(self, kind, n, p, q):
        space, mu, sigma, omega, kernel, fam = oracle_instance(kind, n, 0)
        op = MatrixOperator(kernel.matrix, sigma, omega)
        off, diag = split_diagonal(kernel.matrix)
        off_t, diag_t = split_diagonal(kernel.matrix.T)

        def seq(f):
            return weighted_apply_seq(off, diag, f, sigma)

        def seq_adj(h):
            return weighted_apply_seq(off_t, diag_t, h, omega)

        seeds = standard_cubes(fam)
        got = operator_norm_strong(op.apply, sigma, omega, p, q, 2, seeds,
                                   apply_adjoint=op.apply_adjoint,
                                   matrix=op.matrix, seed=3)
        want = norm_search_seq(seq, sigma, omega, p, q, 2, seeds, seq_adj,
                               op.matrix, 3, weak=False)
        assert_same_estimate(got, want)
        got = operator_norm_weak(op.apply, sigma, omega, p, q, 2, seeds, seed=4)
        want = norm_search_seq(seq, sigma, omega, p, q, 2, seeds, None, None,
                               4, weak=True)
        assert_same_estimate(got, want)
        got = operator_norm_strong(op.apply, sigma, omega, p, math.inf, 2,
                                   seeds, seed=5)
        want = norm_search_seq(seq, sigma, omega, p, math.inf, 2, seeds, None,
                               None, 5, weak=False)
        assert_same_estimate(got, want)
        for args in ((op.apply, sigma, omega, q, p), (op.apply_adjoint, omega,
                                                      sigma, 1.5, 2.0)):
            cubes = standard_cubes(fam)
            assert cube_testing(cubes, *args) == cube_testing_seq(cubes, *args)

    @pytest.mark.parametrize("kind", ["segment", "cloud", "tree"])
    @pytest.mark.parametrize("n", [8, 16, 27, 64])
    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (1.5, 3.0), (1.5, 1.5),
                                     (3.0, 3.0)])
    def test_apply_M(self, kind, n, p, q):
        space, mu, sigma, omega, kernel, fam = oracle_instance(kind, n, 1)
        params = maximal_params(space, mu, 0.5)
        seeds = standard_cubes(fam)

        def block(f):
            return apply_M(params, f)

        def seq(f):
            return apply_M_rows(params, f)

        for weak, q_run, seed in ((False, q, 6), (True, q, 7),
                                  (False, math.inf, 8)):
            search = operator_norm_weak if weak else operator_norm_strong
            got = search(block, sigma, omega, p, q_run, 2, seeds, seed=seed)
            want = norm_search_seq(seq, sigma, omega, p, q_run, 2, seeds,
                                   None, None, seed, weak=weak)
            assert_same_estimate(got, want)
        cubes = standard_cubes(fam)
        for args in ((block, sigma, omega, q, p),
                     (lambda f: apply_M_dyadic(fam[0], params, f), sigma,
                      omega, q, p)):
            assert cube_testing(cubes, *args) == cube_testing_seq(cubes, *args)

    def test_error_order_in_lockstep_ascent(self):
        # restart:1 (start 2) fails at iteration 10 and restart:2 (start 3)
        # at iteration 3: the lockstep values every start's proposal of an
        # iteration in one block, so start 3's failure is met first
        space, mu, sigma, omega, kernel, fam = oracle_instance("segment", 16, 0)
        op = MatrixOperator(kernel.matrix, sigma, omega)
        off, diag = split_diagonal(kernel.matrix)
        trace = []
        norm_search_seq(lambda f: weighted_apply_seq(off, diag, f, sigma),
                        sigma, omega, 1.5, 3.0, 3, (), None, None, 9, False,
                        trace)
        assert len(trace) == 4 and len(trace[2]) > 10 and len(trace[3]) > 3
        bad = {trace[2][10][1].tobytes(), trace[3][3][1].tobytes()}

        def poisoned(apply):
            def run(f):
                g = np.array(apply(f), dtype=float)
                rows, fs = g.reshape(-1, g.shape[-1]), np.reshape(f, (-1, 16))
                for row, x in zip(rows, fs):
                    if x.tobytes() in bad:
                        row[:] = math.inf
                return g
            return run

        with pytest.raises(CheckFailed) as got:
            operator_norm_strong(poisoned(op.apply), sigma, omega, 1.5, 3.0,
                                 3, (), seed=9)
        assert got.value.check == "finite_image"
        assert got.value.witness["f"] == trace[3][3][1].tolist()

    def test_raising_apply_keeps_the_first_failing_row(self):
        # the pool's seed:1 has a non-finite density, which op.apply
        # refuses, and point:3 an infinite image: apply's error on their
        # block propagates as raised, with no row-by-row retry; without
        # seed:1, the first failing row in pool order, point:3, raises
        space, mu, sigma, omega, kernel, fam = oracle_instance("segment", 8, 0)
        op = MatrixOperator(kernel.matrix, sigma, omega)
        seeds = [np.ones(8), np.full(8, math.inf)]
        with pytest.raises(BadParams, match="finite"):
            operator_norm_strong(inf_at(op.apply, 3), sigma, omega, 2.0, 2.0,
                                 1, seeds)
        with pytest.raises(CheckFailed) as got:
            operator_norm_strong(inf_at(op.apply, 3), sigma, omega, 2.0, 2.0,
                                 1, seeds[:1])
        assert got.value.check == "finite_image"
        assert got.value.witness == {"f": np.eye(8)[3].tolist()}

    def test_cube_masses_match_per_cube_sums(self):
        # cube_testing sums the cubes of one size in one row reduction over
        # their members in ascending point order: each mass is the float of
        # the cube's own sum (sizes past 8 and 128 take numpy's unrolled
        # and recursive pairwise sums), so every ratio is the sweep's
        rng = np.random.default_rng(31)
        for n in (1, 3, 8, 16, 40, 130, 300):
            normalizer = PointMeasure(real_masses(rng, n, 0.25))
            inside = PointMeasure(real_masses(rng, n))
            cubes = np.array([rng.permutation(n) < size
                              for size in rng.integers(0, n + 1, 8)
                              for _ in range(8)])
            for r_out, r_norm in ((2.0, 2.0), (3.0, 1.5)):
                args = (np.asarray, normalizer, inside, r_out, r_norm)
                assert cube_testing(cubes, *args) == cube_testing_seq(
                    cubes, *args)

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_weak_quasinorm_block(self, q):
        rng = np.random.default_rng(int(q * 7))
        for n in (1, 2, 8, 16, 27):
            omega = PointMeasure(real_masses(rng, n, 0.25))
            rows = [rng.random(n), np.round(rng.normal(size=n) * 3.0),
                    np.zeros(n), rng.random(n) * 10.0 ** rng.uniform(-3, 3, n)]
            with_inf = rng.random(n)
            with_inf[rng.integers(n)] = math.inf
            rows.append(with_inf)
            block = np.array(rows)
            got = weak_quasinorm(block, omega, q)
            assert got.tolist() == [weak_quasinorm_seq(g, omega, q)
                                    for g in block]
            assert got.tolist() == [weak_quasinorm(g, omega, q) for g in block]


class TestBlockContract:
    @staticmethod
    def rows_equal(block_out, row_outs):
        assert block_out.shape == (len(row_outs), row_outs[0].size)
        assert block_out.tobytes() == np.array(row_outs).tobytes()

    def test_weighted_apply_rows(self):
        # an infinite diagonal (the closed ball-volume kernel of a measure
        # with null points) against zero and nonzero densities, zero rows,
        # and more rows than one block holds
        space, _ = generate_space("integer_segment_counting", n=16)
        rng = np.random.default_rng(12)
        mu = PointMeasure(real_masses(rng, 16, 0.3))
        kernel = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        off, diag = split_diagonal(kernel.matrix)
        assert np.isinf(diag).any()
        m = PointMeasure(real_masses(rng, 16))
        rows = rng.random((block_rows(16) + 5, 16))
        rows[::7] = 0.0
        rows[1::5, np.isinf(diag)] = 0.0
        got = weighted_apply(off, diag, rows, m)
        self.rows_equal(got, [weighted_apply(off, diag, f, m) for f in rows])
        finite = np.isfinite(got).all(axis=1)
        self.rows_equal(got[finite], [weighted_apply_seq(off, diag, f, m)
                                      for f in rows[finite]])
        assert not got[::7].any()

    @pytest.mark.parametrize("n", [8, 27, 64])
    def test_apply_M_rows(self, n):
        # 64 points: one row per block, so every block is chunked
        space, mu = generate_space("euclidean_random_points", n=n, dim=2)
        rng = np.random.default_rng(n)
        params = maximal_params(space, PointMeasure(real_masses(rng, n, 0.2)),
                                0.5)
        inside = PointMeasure(real_masses(rng, n))
        rows = rng.random((2 * block_rows(n) + 3, n))
        rows[::4] = 0.0
        got = apply_M(params, rows, inside=inside)
        self.rows_equal(got, [apply_M(params, f, inside=inside) for f in rows])
        self.rows_equal(got, [apply_M_rows(params, f, inside) for f in rows])
        fam = build_adjacent_systems(space)
        got = apply_M_dyadic(fam[0], params, rows)
        self.rows_equal(got, [apply_M_dyadic(fam[0], params, f)
                              for f in rows])

    def test_lp_norm_rows(self):
        rng = np.random.default_rng(3)
        m = PointMeasure(real_masses(rng, 16, 0.25))
        rows = rng.random((5, 16))
        rows[0] = 0.0
        rows[1, ~m.charged] = math.inf
        for p in (1.5, 2.0, 3.0, math.inf):
            assert lp_norm(rows, m, p).tolist() == [lp_norm_seq(f, m, p)
                                                    for f in rows]

    @pytest.mark.parametrize("weak", [False, True])
    def test_apply_of_another_shape_is_refused(self, two_point, weak):
        _, mu = two_point
        search = operator_norm_weak if weak else operator_norm_strong
        with pytest.raises(BadParams, match="apply") as err:
            search(lambda f: np.asarray(f)[..., :1], mu, mu, 2.0, 2.0,
                   budget=1)
        assert err.value.witness["field"] == "apply"


# ---------------------------------------------------------------------------
# one lockstep for many problems: each problem's result is its one-problem
# search's, bit for bit, and the first error by step, then problem, raises
# ---------------------------------------------------------------------------

def lockstep_instance(kind, L, p, q, seed=0):
    """An oracle instance at n=16 with L forced systems, its theorem-B
    verdict and one dyadic operator per system."""
    space, mu, sigma, omega, kernel, _ = oracle_instance(kind, 16, seed)
    fam = build_adjacent_systems(space, num_systems=L)
    strong = verdict_theorem_b(kernel, fam, sigma, omega, p, q, budget=2)
    ops = [build_dyadic_operator(kernel, s, sigma, omega)
           for s in fam]
    return sigma, omega, fam, strong, ops


def with_apply(op, **methods):
    """A copy of op whose apply/apply_adjoint are replaced."""
    out = copy.copy(op)
    for name, fn in methods.items():
        setattr(out, name, fn)
    return out


def inf_at(apply, x):
    """apply, but an infinite image for the point mass at x."""
    def run(f):
        g = np.array(apply(f), dtype=float)
        rows, fs = g.reshape(-1, g.shape[-1]), np.reshape(f, (-1, g.shape[-1]))
        rows[(fs == np.eye(g.shape[-1])[x]).all(axis=1)] = math.inf
        return g
    return run


def inf_in_ascent(apply):
    """apply, but infinite on any normalized proposal of the ascent: a row
    whose maximum is exactly 1 and which is not a 0/1 function."""
    def run(f):
        g = np.array(apply(f), dtype=float)
        rows, fs = g.reshape(-1, g.shape[-1]), np.reshape(f, (-1, g.shape[-1]))
        rows[(fs.max(axis=1) == 1.0) & ~np.isin(fs, (0.0, 1.0)).all(axis=1)] \
            = math.inf
        return g
    return run


def raising(message):
    def run(f):
        raise ValueError(message)
    return run


def one_problem(weak, sigma, omega, p, q, apply, budget, seeds, seed,
                apply_adjoint=None):
    """The estimate of the one-problem search."""
    if weak:
        return operator_norm_weak(apply, sigma, omega, p, q, budget, seeds,
                                  seed=seed)
    return operator_norm_strong(apply, sigma, omega, p, q, budget, seeds,
                                apply_adjoint=apply_adjoint, seed=seed)


class TestLockstepSearch:
    @pytest.mark.parametrize("kind", ["segment", "cloud", "tree"])
    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("p,q", [(1.5, 3.0), (2.0, 2.0)])
    def test_each_problem_matches_its_one_problem_search(self, kind, L, p, q):
        sigma, omega, fam, strong, ops = lockstep_instance(kind, L, p, q)
        rng = np.random.default_rng([L, int(2 * p), len(kind)])
        budgets = rng.integers(1, 5, size=1 + L).tolist()
        seeds = rng.integers(0, 1000, size=1 + L).tolist()
        weak = [(strong.operator.apply, budgets[0], strong.seeds, seeds[0])]
        weak += [(o.apply, b, o.system.incidence, s)
                 for o, b, s in zip(ops, budgets[1:], seeds[1:])]
        for got, pr in zip(norm_search(weak, sigma, omega, p, q, weak=True),
                           weak):
            assert_same_estimate(got, one_problem(True, sigma, omega, p, q,
                                                  *pr))
        # the adjoints with their fixed points, on the dual exponents
        d = Exponents(p, q).dual()
        dual = [(o.apply_adjoint, b, o.system.incidence, s, o.apply)
                for o, b, s in zip(ops, budgets[1:], seeds[1:])]
        for got, pr in zip(norm_search(dual, omega, sigma, d.p, d.q,
                                       weak=False), dual):
            assert_same_estimate(got, one_problem(False, omega, sigma, d.p,
                                                  d.q, *pr))

    @pytest.mark.parametrize("weak", [False, True])
    def test_the_first_failing_step_raises(self, weak):
        # a raising apply fails its spot check (step 0), an infinite point
        # image its pool (step 1), an infinite proposal its ascent: the
        # batch raises the error of the earliest step whatever the problem
        # order, within a step the first problem's, and the problems that
        # pass are searched as if alone
        sigma, omega, fam, strong, ops = lockstep_instance("segment", 1,
                                                           1.5, 3.0)
        apply, seeds = strong.operator.apply, strong.seeds
        ok = [(apply, 2, seeds, 0), (ops[0].apply, 4, standard_cubes(fam), 4)]
        ascent = (inf_in_ascent(apply), 3, seeds, 2)

        def pool(x):
            return inf_at(apply, x), 2, seeds, 1

        def search(*problems):
            return norm_search([ok[0], *problems, ok[1]], sigma, omega,
                               1.5, 3.0, weak=weak)

        with pytest.raises(ValueError, match="no apply"):
            search(ascent, pool(3), (raising("no apply"), 1, seeds, 3))
        for problems, f in (((ascent, pool(3), pool(5)), np.eye(16)[3]),
                            ((pool(5), pool(3)), np.eye(16)[5])):
            with pytest.raises(CheckFailed) as err:
                search(*problems)
            assert err.value.check == "finite_image"
            assert err.value.witness["f"] == f.tolist()
        with pytest.raises(CheckFailed) as err:
            search(ascent)
        f = np.array(err.value.witness["f"])
        assert f.max() == 1.0 and not np.isin(f, (0.0, 1.0)).all()
        for got, pr in zip(norm_search(ok, sigma, omega, 1.5, 3.0,
                                       weak=weak), ok, strict=True):
            assert_same_estimate(got, one_problem(weak, sigma, omega, 1.5,
                                                  3.0, *pr))

    def test_a_fixed_point_valuation_raises_in_step_order(self):
        # at the step after the pools, one problem's restart and the other
        # problem's second fixed-point iterate have infinite images; the
        # iterates go through that step's one evaluator call, so the first
        # problem's error raises, whichever of the two it is
        sigma, omega, fam, strong, ops = lockstep_instance("segment", 1,
                                                           2.0, 2.0)
        op, seeds = strong.operator, strong.seeds
        restart = norms._rng(0, 0x100).random(16)

        def inf_on_restart(f):
            g = np.array(op.apply(f), dtype=float)
            g[(np.reshape(f, g.shape) == restart).all(axis=-1)] = math.inf
            return g

        restarts = (inf_on_restart, 0, seeds, 0)
        fixed = (inf_in_ascent(op.apply), 0, seeds, 1, op.apply_adjoint)
        for problems in ([restarts, fixed], [fixed, restarts]):
            with pytest.raises(CheckFailed) as err:
                norm_search(problems, sigma, omega, 2.0, 2.0, weak=False)
            assert err.value.check == "finite_image"
            f = np.array(err.value.witness["f"])
            assert np.array_equal(f, restart) == (problems[0] is restarts)
            if problems[0] is fixed:
                assert f.max() == 1.0 and not np.isin(f, (0.0, 1.0)).all()

    def test_every_valuation_goes_through_the_norm_search(self, monkeypatch):
        # the search steps only yield the rows they need valued, the fixed
        # point's iterates included: every evaluator call is made by
        # _norm_search, on the theorem-B, weak-type and theorem-A searches
        callers, real = [], norms._block_values

        def block_values(*args):
            values = real(*args)

            def traced(*a, **kw):
                callers.append(inspect.currentframe().f_back.f_code.co_name)
                return values(*a, **kw)
            return traced

        monkeypatch.setattr(norms, "_block_values", block_values)
        space, mu, sigma, omega, kernel, fam = oracle_instance("segment", 16, 0)
        for p, q in ((2.0, 2.0), (1.5, 3.0)):
            weak_verdict(kernel, fam, sigma, omega, p, q, budget=2)
            verdict_theorem_a(fam, mu, sigma, omega, 0.5, p, q, budget=2)
        assert len(callers) > 100 and set(callers) == {"_norm_search"}

    def test_blocks_hold_at_most_block_rows(self, monkeypatch):
        # apply's (rows x n x n) work takes block_rows(n) = _BLOCK_ELEMS //
        # n^2 rows a call and the norms' (rows x n) work _BLOCK_ELEMS // n:
        # at n = 27, 44 and 1213 rows, so the two pools' 170 rows take
        # several applies and one call of each norm; with _BLOCK_ELEMS cut
        # to 4 n^2 the caps are 4 and 108 rows, the norms split too, and
        # every estimate is the same
        space, mu, sigma, omega, kernel, fam = oracle_instance("tree", 27, 0)
        op = MatrixOperator(kernel.matrix, sigma, omega)
        seeds, sizes = standard_cubes(fam), {}

        def sized(name, fn):
            def run(f, *args):
                sizes.setdefault(name, []).append(len(np.reshape(f, (-1, 27))))
                return fn(f, *args)
            return run

        for name in ("weak_quasinorm", "lp_norm"):
            monkeypatch.setattr(norms, name, sized(name, getattr(norms, name)))
        apply = sized("apply", op.apply)

        def search():
            sizes.clear()
            got = norm_search([(apply, 1, seeds, 0), (apply, 2, seeds[:44], 1)],
                              sigma, omega, 1.5, 3.0, weak=True)
            return got, {name: max(rows) for name, rows in sizes.items()}

        pools = (1 + 27 + len(seeds) + 1) + (1 + 27 + 44 + 2)
        want, peak = search()
        assert (block_rows(27), pools, 2 ** 15 // 27) == (44, 170, 1213)
        assert peak == {"apply": 44, "weak_quasinorm": 170, "lp_norm": 170}
        monkeypatch.setattr(norms, "_BLOCK_ELEMS", 4 * 27 * 27)
        got, peak = search()
        assert peak == {"apply": 4, "weak_quasinorm": 108, "lp_norm": 108}
        for est, want_est in zip(got, want, strict=True):
            assert_same_estimate(est, want_est)

    def test_an_infinite_weak_image_block_raises_after_bounded_work(self):
        # at n = 256 one weak_quasinorm call takes 2^15 // 256 = 128 rows;
        # an infinite value keeps its level alone, and finite values whose
        # screened products overflow keep every level, built 128 levels at
        # a time: each finite_image raise comes within a few MB (every level
        # of every row at once took 78 MB), the infinite block's with one
        # memo entry per row
        import tracemalloc

        n, rng = 256, np.random.default_rng(31)
        sigma, F = PointMeasure(np.ones(n)), rng.random((2 ** 15 // n, n))
        ramp = 1.0 - np.arange(n) / (4.0 * n)
        infinite = np.array([rng.permutation(ramp) for _ in F])
        infinite[:, 0] = math.inf
        for image, memo_cap in ((infinite, len(F)), (1e308 * infinite[:, 1:2]
                                                     * ramp, n)):
            omega = PointMeasure(2.0 + rng.random(n))
            values = _block_values(sigma, omega, 1.5, 3.0, weak=True)
            tracemalloc.start()
            try:
                with pytest.raises(CheckFailed) as err, \
                        np.errstate(over="ignore"):
                    values([(None, F, image)])  # the images as given
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert err.value.check == "finite_image"
            assert peak < 8e6 and len(omega.level_set_masses) <= memo_cap
        # a block mixing rows with and without an infinite value: each row
        # is the level loop's value
        omega = PointMeasure(real_masses(rng, 27, 0.25))
        block = rng.random((6, 27))
        block[::2, np.argmax(omega.masses)] = math.inf
        assert weak_quasinorm(block, omega, 1.5).tolist() == [
            weak_quasinorm_loop(g, omega, 1.5) for g in block]


class TestChainRunner:
    """Theorem B's primal and adjoint power iterations run as two chains
    of one runner; every chain takes the iterates it takes alone."""

    @pytest.mark.parametrize("kind", ["segment", "cloud", "tree"])
    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (1.5, 3.0), (1.5, 1.5),
                                     (3.0, 3.0), (1.25, 4.0), (1.7, 2.3)])
    def test_each_verdict_estimate_is_its_one_problem_search(self, kind, p,
                                                             q):
        # at (1.25, 4) the primal's power q - 1 and the adjoint's 1/(q'-1)
        # are an ulp apart, at (1.7, 2.3) 1/(p-1) and p'-1: a shared call
        # leaves each row its own chain's power
        space, mu, sigma, omega, kernel, fam = oracle_instance(kind, 16, 0)
        v = verdict_theorem_b(kernel, fam, sigma, omega, p, q, budget=2,
                              seed=3)
        op, d = v.operator, v.exponents.dual()
        apart = {(1.25, 4.0): q - 1.0 != 1.0 / (d.p - 1.0),
                 (1.7, 2.3): 1.0 / (p - 1.0) != d.q - 1.0}
        assert apart.get((p, q), True)
        assert_same_estimate(v.norm, operator_norm_strong(
            op.apply, sigma, omega, p, q, 2, v.seeds,
            apply_adjoint=op.apply_adjoint, matrix=op.matrix, seed=3))
        assert_same_estimate(v.adjoint_norm, operator_norm_strong(
            op.apply_adjoint, omega, sigma, d.p, d.q, 2, v.seeds,
            apply_adjoint=op.apply, matrix=op.matrix.T, seed=4))
        assert {"fixed_point", "fixed_point_iters",
                "fixed_point_settled"} <= v.norm.details.keys()

    def test_the_chains_share_every_call_after_the_first(self, monkeypatch):
        # the 16-point segment at (1.5, 3): one runner call holds both
        # chains, whose half-steps (2 per iterate, less one at the 30-iterate
        # cap) go through at most 31 calls of each operator (one chain at a
        # time would take 60 each), and the searches still take 3 evaluator
        # steps, each one call per measure pair
        space, mu, sigma, omega, kernel, fam = oracle_instance("segment", 16, 0)
        steps, _ = count_steps(monkeypatch)
        calls, rows, ran, real_run = Counter(), Counter(), [], norms._run_chains

        def counted(name, real):
            def run(op, f):
                if ran and ran[-1] is None:  # inside the runner
                    calls[name] += 1
                    rows[name] += len(np.reshape(f, (-1, 16)))
                return real(op, f)
            return run

        def run_chains(chains):
            ran.append(None)
            out = real_run(chains)
            ran[-1] = len(chains)
            return out

        for name in ("apply", "apply_adjoint"):
            monkeypatch.setattr(MatrixOperator, name,
                                counted(name, getattr(MatrixOperator, name)))
        monkeypatch.setattr(norms, "_run_chains", run_chains)
        v = verdict_theorem_b(kernel, fam, sigma, omega, 1.5, 3.0, budget=8)
        ests = (v.norm, v.adjoint_norm)
        assert ran == [2] and len(steps) == 3 * 2
        assert max(calls.values()) <= 31
        assert sum(rows.values()) == sum(
            2 * e.details["fixed_point_iters"] - 1
            + e.details["fixed_point_settled"] for e in ests)
        assert sum(calls.values()) <= 1 + max(
            2 * e.details["fixed_point_iters"] for e in ests)

    def test_a_chain_that_stops_and_one_that_settles_run_as_alone(
            self, segment4):
        # two chains on one operator pair: from 1 the iteration settles,
        # from a point mass the image of its second iterate is infinite;
        # run together, in either order, each takes the iterates, images
        # and stop of its run alone, in fewer operator calls
        space, mu = segment4
        op = MatrixOperator(build_kernel(space, mu, "ball_volume",
                                         gamma=0.5).matrix, mu, mu)
        [(fs, _, settled)] = _run_chains([_Chain(op.apply, op.apply_adjoint,
                                                 np.ones(4), 1.5, 3.0)])
        finite, point, applied = {f.tobytes() for f in fs}, np.eye(4)[0], []
        finite.add(point.tobytes())

        def apply(f):  # infinite off the settling chain's iterates
            applied.append(f)
            g = op.apply(f)
            g[[x.tobytes() not in finite for x in f]] = math.inf
            return g

        chains = [_Chain(apply, op.apply_adjoint, f0, 1.5, 3.0)
                  for f0 in (np.ones(4), point)]
        alone = [_run_chains([c])[0] for c in chains]
        calls = len(applied)
        assert settled and alone[0][2]
        assert (len(alone[1][0]), alone[1][2]) == (2, False)
        assert not np.isfinite(alone[1][1][-1]).all()
        for order in (chains, chains[::-1]):
            applied.clear()
            got = _run_chains(order)
            if order is not chains:
                got = got[::-1]
            for (fs, gs, stop), (want_fs, want_gs, want_stop) in zip(
                    got, alone, strict=True):
                assert fs.tobytes() == want_fs.tobytes()
                assert gs.tobytes() == want_gs.tobytes()
                assert stop == want_stop
            assert len(applied) < calls


class TestWeakTypeLockstep:
    @pytest.fixture
    def instance(self):
        return lockstep_instance("segment", 2, 1.5, 3.0)

    @staticmethod
    def verdict(strong, ops, direct=None):
        if direct is not None:
            strong = dataclasses.replace(strong, operator=direct)
        return verdict_weak_type(strong, ops, budget=2)

    def test_direct_search_error_comes_first(self, instance):
        sigma, omega, fam, strong, ops = instance
        direct = with_apply(strong.operator,
                            apply=inf_at(strong.operator.apply, 3))
        bad = [with_apply(ops[0], apply=inf_at(ops[0].apply, 5),
                          apply_adjoint=raising("adjoint 0")), ops[1]]
        with pytest.raises(CheckFailed) as err:
            self.verdict(strong, bad, direct)
        assert err.value.witness["f"] == np.eye(16)[3].tolist()

    def test_system_errors_come_in_system_order(self, instance):
        sigma, omega, fam, strong, ops = instance
        # every weak search runs before any system's adjoint: system 1's
        # weak search fails before system 0's dual testing
        bad = [with_apply(ops[0], apply_adjoint=raising("adjoint 0")),
               with_apply(ops[1], apply=inf_at(ops[1].apply, 5))]
        with pytest.raises(CheckFailed) as err:
            self.verdict(strong, bad)
        assert err.value.witness["f"] == np.eye(16)[5].tolist()
        # the adjoints then fail in system order
        bad = [with_apply(ops[0], apply_adjoint=raising("adjoint 0")),
               with_apply(ops[1], apply_adjoint=raising("adjoint 1"))]
        with pytest.raises(ValueError, match="adjoint 0"):
            self.verdict(strong, bad)

    @pytest.mark.parametrize("t", [0, 1])
    def test_structural_check_fires_against_the_pool_bound(
            self, instance, monkeypatch, t):
        # system t's adjoint at half strength inside the norm search only:
        # its pool bound (the whole-space cube here) falls below its dual
        # testing constant
        sigma, omega, fam, strong, ops = instance
        real, halve = norms._norm_search, {t}

        def halved(problems, *args, pool_only=False, **kw):
            if pool_only:  # apply follows (sigma, omega, p, q)
                problems = [pr[:4] + (lambda f, a=pr[4]: 0.5 * a(f),) + pr[5:]
                            if i in halve else pr
                            for i, pr in enumerate(problems)]
            return real(problems, *args, pool_only=pool_only, **kw)

        monkeypatch.setattr(norms, "_norm_search", halved)
        fired = rf"dyadic dual \(system {t}\)"
        with pytest.raises(CheckFailed, match=fired) as err:
            self.verdict(strong, ops)
        assert err.value.check == "testing_below_norm"
        # with both pool bounds halved, the checks fire in system order
        halve.add(1 - t)
        with pytest.raises(CheckFailed, match=r"dyadic dual \(system 0\)"):
            self.verdict(strong, ops)
        # the weak searches run before any structural check, so the other
        # system's failing weak search is raised instead, for either t
        bad = list(ops)
        bad[1 - t] = with_apply(ops[1 - t], apply=inf_at(ops[1 - t].apply, 5))
        with pytest.raises(CheckFailed) as err:
            self.verdict(strong, bad)
        assert err.value.check == "finite_image"
        assert err.value.witness["f"] == np.eye(16)[5].tolist()

    def test_one_evaluator_call_per_step_and_no_fixed_point(
            self, segment16, monkeypatch):
        # 16 points, budget 2, one system: the direct and the dyadic weak
        # searches fit one block of block_rows(16) = 128 rows per step, so
        # their pools, restarts, 60 ascent iterations (in blocks of up to
        # _LOOKAHEAD per start) and witness replays are 30 weak_quasinorm
        # calls together; the dyadic adjoint's pool bound runs no fixed
        # point
        space, mu = segment16
        rng = np.random.default_rng(41)
        sigma = PointMeasure(random_masses(rng, 16))
        omega = PointMeasure(random_masses(rng, 16, zero_fraction=0.25))
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        fam = build_adjacent_systems(space, num_systems=1)
        strong = verdict_theorem_b(kernel, fam, sigma, omega, 1.5, 3.0,
                                   budget=2)
        ops = [build_dyadic_operator(kernel, s, sigma, omega)
               for s in fam]
        assert 2 * (1 + 16 + len(standard_cubes(fam)) + 2) <= block_rows(16)
        calls = {"weak_quasinorm": 0, "_run_chains": 0}
        for name in calls:
            def counted(*args, _real=getattr(norms, name), _name=name, **kw):
                calls[_name] += 1
                return _real(*args, **kw)
            monkeypatch.setattr(norms, name, counted)
        v = verdict_weak_type(strong, ops, budget=2)
        assert calls == {"weak_quasinorm": 30, "_run_chains": 0}
        assert len(v.per_system) == 1


class TestLookahead:
    """The ascent values each start's next proposals ahead, each made as if
    the ones before it were refused.  Whatever _LOOKAHEAD is, every search
    returns the estimate of the one-at-a-time ascent (_LOOKAHEAD = 1)."""

    @staticmethod
    def instance(segment16):
        space, mu = segment16
        rng = np.random.default_rng(4)
        sigma = PointMeasure(random_masses(rng, 16))
        omega = PointMeasure(random_masses(rng, 16, zero_fraction=0.25))
        kernel = build_kernel(space, mu, "ball_volume", gamma=0.5)
        return space, mu, sigma, omega, kernel

    def searches(self, segment16, p, q):
        space, mu, sigma, omega, kernel = self.instance(segment16)
        op = MatrixOperator(kernel.matrix, sigma, omega)
        fam = build_adjacent_systems(space, num_systems=2)
        ops = [build_dyadic_operator(kernel, s, sigma, omega) for s in fam]
        lockstep = [(op.apply, 2, standard_cubes(fam), 3)] + [
            (o.apply, 1 + t, o.system.incidence, 10 + t)
            for t, o in enumerate(ops)]
        return {
            "strong": lambda: [operator_norm_strong(op.apply, sigma, omega,
                                                    p, q, 2, seed=1)],
            "strong-8": lambda: [operator_norm_strong(op.apply, sigma, omega,
                                                      p, q, 8, seed=1)],
            "weak": lambda: [operator_norm_weak(op.apply, sigma, omega, p, q,
                                                2, seed=2)],
            "theorem-a": lambda: [verdict_theorem_a(
                fam, mu, sigma, omega, 0.5, p, q, budget=2).norm],
            "lockstep": lambda: norm_search(lockstep, sigma, omega, p, q,
                                            weak=True),
        }

    @pytest.mark.parametrize("p,q,want", [
        (1.5, 3.0, {"strong": 29, "strong-8": 63, "weak": 28,
                    "theorem-a": 32, "lockstep": 28}),
        (2.0, 2.0, {"strong": 30, "strong-8": 63, "weak": 29,
                    "theorem-a": 32, "lockstep": 28})])
    def test_every_lookahead_gives_the_one_at_a_time_estimates(
            self, segment16, monkeypatch, p, q, want):
        # a strong search without an adjoint at budgets 2 and 8, a weak
        # search, the theorem-A search and three weak problems in lockstep:
        # the same lower bound, estimate, witness bytes, method and details
        # at every lookahead.  One at a time each takes the pool, the
        # restarts, 60 ascent steps and the replay; at the committed
        # lookahead the three starts of budget 2 take 3 proposals a step,
        # and the nine of budget 8 (more than _LOOKAHEAD_ROWS // 2) one
        steps, ascents = count_steps(monkeypatch)
        searches = self.searches(segment16, p, q)
        got, counts = {}, {}
        for look in (1, 2, 3, 4, 7, norms._LOOKAHEAD):
            monkeypatch.setattr(norms, "_LOOKAHEAD", look)
            for name, search in searches.items():
                steps.clear()
                got[look, name] = search()
                counts[look, name] = len(steps)
        for (look, name), estimates in got.items():
            assert len(estimates) == len(got[1, name])
            for est, want_est in zip(estimates, got[1, name]):
                assert_same_estimate(est, want_est)
        assert {counts[1, name] for name in searches} == {63}
        assert {name: counts[norms._LOOKAHEAD, name]
                for name in searches} == want
        assert any(e.method.startswith("ascent:") for e in got[1, "lockstep"])

    def test_a_fault_in_a_proposal_valued_ahead_raises(self, segment16,
                                                       monkeypatch):
        # a block also values a start's proposals after its first gain,
        # which the one-at-a-time ascent never builds: an apply that fails
        # only on such a row leaves the one-at-a-time search its bound and
        # makes the search at the committed lookahead raise on that row
        space, mu, sigma, omega, kernel = self.instance(segment16)
        op = MatrixOperator(kernel.matrix, sigma, omega)

        def search(apply):
            return operator_norm_strong(apply, sigma, omega, 1.5, 3.0, 2,
                                        seed=1)

        steps, _ = count_steps(monkeypatch)
        search(op.apply)
        ahead = [row for block in steps for row in block]
        monkeypatch.setattr(norms, "_LOOKAHEAD", 1)
        steps.clear()
        alone = search(op.apply)
        built = {row.tobytes() for block in steps for row in block}
        bad = next(row for row in ahead if row.tobytes() not in built)

        def poisoned(f):
            g = np.array(op.apply(f), dtype=float)
            for row, x in zip(g.reshape(-1, 16), np.reshape(f, (-1, 16))):
                if x.tobytes() == bad.tobytes():
                    row[:] = math.inf
            return g

        assert_same_estimate(search(poisoned), alone)
        monkeypatch.undo()
        with pytest.raises(CheckFailed) as got:
            search(poisoned)
        assert got.value.check == "finite_image"
        assert got.value.witness["f"] == bad.tolist()


class TestLevelSetMemo:
    @staticmethod
    def shared_block(rng, n):
        """Rows whose level sets repeat: one profile with ties, scaled and
        raised, and a second profile, each with its scaled copies."""
        base = np.round(rng.random(n) * 4.0, 1)
        other = rng.permutation(base)
        return np.vstack([base, 2.5 * base, base ** 2, other, 3.0 * other])

    def test_repeated_calls_read_one_measures_sums(self):
        # each row equals the level loop on every call, the memo holds each
        # set once with its point-id sum, and later calls add no entry
        rng = np.random.default_rng(29)
        n = 16
        omega = PointMeasure(real_masses(rng, n, 0.25))
        block = self.shared_block(rng, n)
        for rep in range(3):
            for q in (1.5, 3.0):
                got = weak_quasinorm(block, omega, q)
                assert got.tolist() == [weak_quasinorm_loop(g, omega, q)
                                        for g in block]
                assert [weak_quasinorm(g, omega, q) for g in block] == \
                    got.tolist()
            if rep == 0:
                kept = dict(omega.level_set_masses)
        assert omega.level_set_masses == kept
        assert 0 < len(kept) < sum(np.unique(g).size for g in block)
        for key, mass in kept.items():
            mask = np.unpackbits(np.frombuffer(key, np.uint8))[:n]
            assert mass == omega.of(np.flatnonzero(mask))

    def test_each_measure_sums_its_own_masses(self):
        # a second measure with other masses and the same level sets gets
        # its own sums, as does each measure of a loop that frees the last
        # one (so a new measure may take over the freed one's address)
        rng = np.random.default_rng(30)
        n = 16
        block = self.shared_block(rng, n)
        first = PointMeasure(real_masses(rng, n, 0.25))
        weak_quasinorm(block, first, 2.0)
        second = PointMeasure(real_masses(rng, n, 0.25))
        assert weak_quasinorm(block, second, 2.0).tolist() == [
            weak_quasinorm_loop(g, second, 2.0) for g in block]
        assert second.level_set_masses is not first.level_set_masses
        shared = first.level_set_masses.keys() & second.level_set_masses.keys()
        assert shared and all(first.level_set_masses[k]
                              != second.level_set_masses[k] for k in shared)
        for _ in range(5):
            omega = PointMeasure(real_masses(rng, n, 0.25))
            assert weak_quasinorm(block, omega, 3.0).tolist() == [
                weak_quasinorm_loop(g, omega, 3.0) for g in block]
