import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica.dyadic import build_adjacent_systems, build_system, generalize
from dyadica.errors import BadParams, CheckFailed
from dyadica.kernel import build_kernel
from dyadica.operators import (
    MatrixOperator,
    apply_direct,
    apply_dyadic_partition,
    build_dyadic_operator,
    check_direct_below_family,
    check_dyadic_below_direct,
    check_family_domination,
    check_forms_agree,
    check_point_cube_testing,
    check_self_adjoint,
    check_shifted_sandwich,
    cube_sums,
    pairing,
    _vec_close,
)
from dyadica.policy import TOLERANCES, close, guard, require
from dyadica.space import PointMeasure, generate_space

from conftest import coarse_copy, members, random_masses, with_C_K


def line_operator(space, mu, gamma=0.5, sigma=None, omega=None):
    sys = build_system(space)
    ker = build_kernel(space, mu, "ball_volume_closed", gamma=gamma)
    return build_dyadic_operator(ker, sys, mu if sigma is None else sigma,
                                 mu if omega is None else omega)


class TestDirect:
    def test_point_mass_image(self, segment4):
        # closed-ball kernel at gamma 1/2 against a unit mass at 0:
        # the image is K(x, 0) = (1, 3^-1/2, 1/2, 1/2)
        space, mu = segment4
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        f = np.array([1.0, 0.0, 0.0, 0.0])
        got = apply_direct(ker, f, mu)
        want = np.array([1.0, 3.0**-0.5, 0.5, 0.5])
        assert np.allclose(got, want, rtol=1e-15)

    def test_adjoint_transposes(self):
        space, mu = generate_space("integer_segment_counting", n=2)
        ker = build_kernel(space, None, "matrix",
                           values=np.array([[1.0, 2.0], [3.0, 1.0]]))
        e0 = np.array([1.0, 0.0])
        assert apply_direct(ker, e0, mu)[1] == 3.0
        assert MatrixOperator(ker.matrix, mu, mu).apply_adjoint(e0)[1] == 2.0

    def test_weights_scale_terms(self, segment4):
        space, mu = segment4
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        sigma = PointMeasure(np.array([2.0, 0.0, 1.0, 5.0]))
        f = np.ones(4)
        got = apply_direct(ker, f, sigma)
        K = ker.matrix
        x = 1
        want = K[x, 0] * 2.0 + K[x, 2] * 1.0 + K[x, 3] * 5.0
        assert got[x] == pytest.approx(want, rel=1e-15)

    def test_infinite_diagonal_conventions(self, segment4):
        space, mu = segment4
        ker = build_kernel(space, mu, "frac_rho", alpha=0.5, n_dim=1.0)
        sigma = PointMeasure(np.array([1.0, 1.0, 0.0, 1.0]))
        out = apply_direct(ker, np.ones(4), sigma)
        assert np.isinf(out[0]) and np.isinf(out[1]) and np.isinf(out[3])
        assert np.isfinite(out[2])  # zero sigma mass silences the diagonal

    def test_rejects_bad_density(self, segment4):
        space, mu = segment4
        ker = build_kernel(space, mu, "ball_volume", gamma=0.5)
        with pytest.raises(BadParams):
            apply_direct(ker, np.ones(3), mu)
        with pytest.raises(BadParams):
            apply_direct(ker, np.array([1.0, np.inf, 0.0, 0.0]), mu)


def copy_and_fill_apply(matrix, f, measure):
    """The per-call copy-and-fill form of weighted_apply; test-side oracle."""
    g = np.asarray(f, dtype=float) * measure.masses
    off = matrix.copy()
    np.fill_diagonal(off, 0.0)
    out = off @ g
    with np.errstate(invalid="ignore"):
        dterm = matrix.diagonal() * g
    return out + np.where(g == 0.0, 0.0, dterm)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSplitApply:
    def test_matches_copy_and_fill_bit_for_bit(self):
        # finite and +inf diagonals, sigma-null points, -0.0 and all-zero
        # densities, in both directions
        rng = np.random.default_rng(17)
        space, mu = generate_space("euclidean_random_points", seed=3, n=16)
        sigma = PointMeasure(random_masses(rng, 16, zero_fraction=0.3)
                             * rng.random(16))
        omega = PointMeasure(rng.random(16))
        kernels = [build_kernel(space, mu, "ball_volume_closed", gamma=0.5),
                   build_kernel(space, omega, "ball_volume", gamma=0.25),
                   build_kernel(space, None, "frac_rho", alpha=0.5,
                                n_dim=1.0)]
        densities = [rng.random(16), np.zeros(16), -np.zeros(16),
                     np.where(rng.random(16) < 0.5, 0.0, rng.random(16)),
                     np.where(sigma.masses > 0.0, 0.0, 1.0),
                     np.where(sigma.masses > 0.0, -0.0, 2.0)]
        for kernel in kernels:
            op = MatrixOperator(kernel.matrix, sigma, omega)
            for f in densities:
                assert same_bits(op.apply(f), copy_and_fill_apply(
                    kernel.matrix, f, sigma))
                assert same_bits(apply_direct(kernel, f, sigma),
                                 copy_and_fill_apply(kernel.matrix, f, sigma))
                assert same_bits(op.apply_adjoint(f), copy_and_fill_apply(
                    kernel.matrix.T, f, omega))

    def test_zero_density_has_the_zero_image(self, segment16):
        space, mu = segment16
        op = line_operator(space, mu)
        for f in (np.zeros(16), -np.zeros(16)):
            for img in (op.apply(f), op.apply_adjoint(f)):
                assert same_bits(img, np.zeros(16))

    def test_split_built_once_per_operator(self, segment16, monkeypatch):
        import dyadica.operators as operators

        space, mu = segment16
        splits = []
        real = operators.split_diagonal

        def counted(matrix):
            splits.append(matrix)
            return real(matrix)

        monkeypatch.setattr(operators, "split_diagonal", counted)
        op = line_operator(space, mu)
        f = np.random.default_rng(2).random(16)
        for _ in range(3):
            op.apply(f)
            op.apply_adjoint(f)
        # one split of the matrix and one of its transpose
        assert len(splits) == 2
        for off, diag in op._splits:
            assert off.flags.c_contiguous
            assert not off.flags.writeable and not diag.flags.writeable
            assert np.all(off.diagonal() == 0.0)
        for (off, diag), matrix in zip(op._splits, (op.matrix, op.matrix.T)):
            assert np.array_equal(off + np.diag(diag), matrix)


class TestDyadicForms:
    def test_line_closed_form(self, segment16):
        # every off-diagonal pair shares the whole-space cube, so
        # T_D(f dmu)(x) = 2^-1/2 (sum g - g(x)) + g(x)
        space, mu = segment16
        op = line_operator(space, mu)
        f = np.ones(16)
        got = op.apply(f)
        want = np.full(16, 2.0**-0.5 * 15.0 + 1.0)
        assert np.allclose(got, want, rtol=1e-14)

    def test_line_point_mass(self, segment16):
        space, mu = segment16
        op = line_operator(space, mu)
        f = np.zeros(16)
        f[0] = 1.0
        got = op.apply(f)
        assert got[0] == 1.0
        assert np.allclose(got[1:], 2.0**-0.5, rtol=1e-15)

    def test_line_shifted_doubles_off_diagonal(self, segment16):
        # the 3-shifted shells pick up both whole-space generations
        space, mu = segment16
        op = line_operator(space, mu)
        f = np.zeros(16)
        f[0] = 1.0
        got = apply_dyadic_partition(op, f, m=3)
        assert got[0] == 1.0
        assert np.allclose(got[1:], 2.0 * 2.0**-0.5, rtol=1e-14)

    def test_matrix_is_symmetric(self, tree27):
        space, mu = tree27
        op = line_operator(space, mu)
        assert np.array_equal(op.matrix, op.matrix.T)

    def test_tree_entry_values(self, tree27):
        # siblings share the 3-point subtree cube whose envelope is 3^-1/2;
        # points in different branches only share the root, envelope 1/3
        space, mu = tree27
        op = line_operator(space, mu)
        assert op.matrix[0, 1] == 3.0**-0.5
        assert op.matrix[0, 3] == 3.0**-0.5
        assert op.matrix[0, 10] == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("fixture", ["segment16", "snowflake8", "tree27"])
    def test_forms_agree_on_basis(self, fixture, request):
        space, mu = request.getfixturevalue(fixture)
        rng = np.random.default_rng(7)
        sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.3))
        op = line_operator(space, mu, sigma=sigma, omega=sigma)
        rep = check_forms_agree(op)
        assert rep.status == "pass"

    def test_forms_agree_with_infinite_diagonal(self, segment4):
        space, mu = segment4
        sys = build_system(space)
        ker = build_kernel(space, mu, "frac_rho", alpha=0.5, n_dim=1.0)
        op = build_dyadic_operator(ker, sys, mu, mu)
        rep = check_forms_agree(op)
        assert rep.status == "pass"

    def test_tampered_matrix_mismatch(self, segment16):
        space, mu = segment16
        op = line_operator(space, mu)
        op.matrix[0, 1] *= 2.0
        op.matrix[1, 0] *= 2.0
        with pytest.raises(CheckFailed, match="forms_agree"):
            require(check_forms_agree(op))

    def test_bad_m(self, segment16):
        space, mu = segment16
        op = line_operator(space, mu)
        with pytest.raises(BadParams, match="m >= 1"):
            apply_dyadic_partition(op, np.ones(16), m=0)


def reference_matrix(kernel, sys, sigma, omega, phi):
    """The dyadic matrix entry by entry through smallest_common_cube."""
    n = sys.space.n
    M = np.empty((n, n))
    for x in range(n):
        joint = sigma.masses[x] > 0 and omega.masses[x] > 0
        M[x, x] = kernel.matrix[x, x] if joint else 0.0
        for y in range(n):
            if y != x:
                M[x, y] = phi.values[sys.smallest_common_cube(x, y)]
    return M


class TestBuildMatrix:
    @pytest.mark.parametrize("fixture,k_max", [("segment16", None),
                                               ("tree27", None),
                                               ("tree27", 1)])
    def test_matches_pairwise_reference(self, fixture, k_max, request):
        space, mu = request.getfixturevalue(fixture)
        sys = build_system(space)
        if k_max is not None:
            sys = coarse_copy(sys, k_max)
        rng = np.random.default_rng(29)
        sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.3))
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        op = build_dyadic_operator(ker, sys, sigma, mu)
        assert (op.matrix == reference_matrix(ker, sys, sigma, mu,
                                              op.phi)).all()

    def test_undefined_envelope_names_first_pair(self, tree27):
        # the root is the smallest common cube of points in different
        # branches; the first such pair in row-major order is (0, 9)
        space, mu = tree27
        sys = build_system(space)
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        phi = build_dyadic_operator(ker, sys, mu, mu).phi
        cleared = dataclasses.replace(phi, defined=phi.defined.copy())
        cleared.defined[sys.top] = False
        first = next((x, y) for x in range(space.n)
                     for y in range(x + 1, space.n)
                     if sys.smallest_common_cube(x, y) == sys.top)
        assert first == (0, 9)
        with pytest.raises(CheckFailed) as info:
            build_dyadic_operator(ker, sys, mu, mu, phi=cleared)
        assert info.value.check == "envelope_defined"
        assert info.value.witness == {"x": 0, "y": 9,
                                      "k": sys.cubes.k[sys.top],
                                      "center": sys.cubes.center[sys.top]}


class TestJointAtomDiagonal:
    @pytest.mark.parametrize("kind,params", [
        ("integer_segment_counting", dict(n=16)),
        ("euclidean_random_points", dict(n=18)),
        ("snowflake_power", dict(n=8, power=2.0)),
        ("ultrametric_tree", dict(depth=3, branching=3, ratio=1.0 / 96.0))])
    def test_operator_holds_each_fact_once(self, kind, params):
        # the joint atoms are generalize's, the pair and system are the
        # ones passed in, and C_K is read off the envelope
        space, mu = generate_space(kind, **params)
        sys = build_system(space)
        rng = np.random.default_rng(space.n)
        sigma, omega = (PointMeasure(random_masses(rng, space.n, 0.4))
                        for _ in range(2))
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        assert (ker.matrix.diagonal() > 0).all()
        op = build_dyadic_operator(ker, sys, sigma, omega)
        assert op.joint_atoms == generalize(sys, sigma, omega)
        assert op.sigma is sigma and op.omega is omega and op.system is sys
        assert tuple(np.flatnonzero(op.matrix.diagonal() > 0).tolist()) == \
            op.joint_atoms
        moved = dataclasses.replace(
            op, phi=dataclasses.replace(op.phi, C_K=7.0 * op.phi.C_K))
        assert op.C_K == op.phi.C_K and moved.C_K == 7.0 * op.phi.C_K

    def test_counting_measures_keep_kernel_diagonal(self, segment4):
        space, mu = segment4
        op = line_operator(space, mu)
        assert np.array_equal(op.matrix.diagonal(), op.kernel.matrix.diagonal())

    def test_uncharged_points_zero_the_diagonal(self, segment16):
        space, mu = segment16
        sigma = PointMeasure(np.where(np.arange(16) % 2 == 0, 1.0, 0.0))
        omega = PointMeasure(np.where(np.arange(16) % 3 == 0, 1.0, 0.0))
        op = line_operator(space, mu, sigma=sigma, omega=omega)
        joint = {x for x in range(16) if x % 6 == 0}
        assert set(op.joint_atoms) == joint
        for x in range(16):
            if x in joint:
                assert op.matrix[x, x] == op.kernel.matrix[x, x] > 0
            else:
                assert op.matrix[x, x] == 0.0

    def test_diagonal_positive_only_at_joint_atoms(self, tree27):
        space, mu = tree27
        rng = np.random.default_rng(21)
        for _ in range(5):
            sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.4))
            omega = PointMeasure(random_masses(rng, space.n, zero_fraction=0.4))
            op = line_operator(space, mu, sigma=sigma, omega=omega)
            diag = op.matrix.diagonal()
            joint = (sigma.masses > 0) & (omega.masses > 0)
            assert np.array_equal(diag > 0, joint)

    def test_forms_agree_with_gated_diagonal(self, segment16):
        space, mu = segment16
        rng = np.random.default_rng(23)
        sigma = PointMeasure(random_masses(rng, 16, zero_fraction=0.3))
        omega = PointMeasure(random_masses(rng, 16, zero_fraction=0.3))
        op = line_operator(space, mu, sigma=sigma, omega=omega)
        assert check_forms_agree(op).status == "pass"


def reference_sum(sys, vals, cube):
    """A cube total by the ordered recursion over children."""
    parts = ([vals[x] for x in members(sys, cube)]
             if sys.cubes.k[cube] == sys.k_max
             else [reference_sum(sys, vals, c) for c in sys.children(cube)])
    s = 0.0
    for v in parts:
        s += float(v)
    return s


def reference_partition(op, f, m):
    """The telescoping form one point and one chain at a time."""
    sys = op.system
    g = f * op.sigma.masses
    out = np.empty(op.n)
    for x in range(op.n):
        chain = sys.label[:, x]
        sums = [reference_sum(sys, g, c) for c in chain]
        total = 0.0
        for i, cube in enumerate(chain):
            far = sums[i + m] if i + m < len(chain) else g[x]
            total += float(op.phi.values[cube]) * (sums[i] - far)
        out[x] = total if g[x] == 0.0 else total + op.matrix[x, x] * g[x]
    return out


class TestCubeSums:
    @pytest.mark.parametrize("k_max", [None, 1])
    def test_matches_ordered_recursion(self, tree27, k_max):
        space, mu = tree27
        sys = build_system(space)
        if k_max is not None:
            sys = coarse_copy(sys, k_max)
        vals = np.random.default_rng(4).uniform(0, 1, space.n)
        sums = cube_sums(sys, vals)
        assert [sums[c] for c in range(len(sys.cubes))] == \
            [reference_sum(sys, vals, c) for c in range(len(sys.cubes))]
        sigma = PointMeasure(random_masses(np.random.default_rng(6), space.n,
                                           zero_fraction=0.3))
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        op = build_dyadic_operator(ker, sys, sigma, mu)
        for m in (1, 2, 3):
            assert np.array_equal(apply_dyadic_partition(op, vals, m=m),
                                  reference_partition(op, vals, m))

    def test_exact_monotonicity(self, tree27):
        space, _ = tree27
        sys = build_system(space)
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 1, space.n)
        sums = cube_sums(sys, vals)
        for cube in range(len(sys.cubes)):
            for child in sys.children(cube):
                assert sums[child] <= sums[cube]

    def test_leaf_values(self, segment16):
        space, _ = segment16
        sys = build_system(space)
        vals = np.arange(16, dtype=float)
        sums = cube_sums(sys, vals)
        for x in range(16):
            assert sums[sys.leaf(x)] == vals[x]
        assert sums[sys.top] == pytest.approx(vals.sum())

    def test_truncated_leaves_sum_members(self, segment16):
        space, _ = segment16
        sys = coarse_copy(build_system(space), 0)
        vals = np.arange(16, dtype=float)
        sums = cube_sums(sys, vals)
        for cube in range(len(sys.cubes))[sys.generation(sys.k_max)]:
            assert sums[cube] == pytest.approx(
                sum(vals[list(members(sys, cube))]))


class TestSelfAdjoint:
    @pytest.mark.parametrize("fixture", ["segment16", "tree27"])
    def test_random_weights(self, fixture, request):
        space, mu = request.getfixturevalue(fixture)
        rng = np.random.default_rng(11)
        sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.2))
        omega = PointMeasure(random_masses(rng, space.n, zero_fraction=0.2))
        op = line_operator(space, mu, sigma=sigma, omega=omega)
        rep = check_self_adjoint(op, seed=1, trials=25)
        assert rep.status == "pass"

    def test_pairing_conventions(self):
        u = np.array([np.inf, 2.0])
        v = np.array([0.0, 3.0])
        w = PointMeasure(np.array([5.0, 1.0]))
        assert pairing(u, v, w) == 6.0


class TestSandwich:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("fixture", ["segment16", "tree27"])
    def test_holds(self, m, fixture, request):
        space, mu = request.getfixturevalue(fixture)
        sys = build_system(space)
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = rng.uniform(0, 2, space.n)
            sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.3))
            op = build_dyadic_operator(ker, sys, sigma, sigma)
            rep = check_shifted_sandwich(op, f, m=m)
            assert rep.status == "pass"

    def test_deterministic_rebuild(self, tree27):
        space, mu = tree27
        a = line_operator(space, mu)
        b = line_operator(space, mu)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rejects_signed_density(self, segment16):
        space, mu = segment16
        op = line_operator(space, mu)
        with pytest.raises(BadParams):
            check_shifted_sandwich(op, -np.ones(16), m=2)

    def test_violation_detected(self, segment16):
        # zeroing the envelope one level below the top starves the base form
        # while the 2-shifted form still sees the top shell
        space, mu = segment16
        op = line_operator(space, mu)
        sys = op.system
        op.phi.values = op.phi.values.copy()
        top_center = sys.cubes.center[sys.top]
        op.phi.values[sys.containing_cube(sys.k_min + 1, top_center)] = 0.0
        f = np.zeros(16)
        f[top_center] = 1.0
        rep = check_shifted_sandwich(op, f, m=2)
        assert rep.status == "fail"
        assert rep.witness["side"] == "upper"
        with pytest.raises(CheckFailed, match="shifted_sandwich"):
            require(rep)


class TestTruncatedWindow:
    def test_forms_and_sandwich(self, tree27):
        # a coarse copy has multi-point finest cubes; within-leaf pairs
        # then share the leaf envelope and both forms must still match
        space, mu = tree27
        sys = coarse_copy(build_system(space), 1)
        assert sys.k_max == 1
        assert any(sys.incidence[sys.generation(sys.k_max)].sum(axis=1) > 1)
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        op = build_dyadic_operator(ker, sys, mu, mu)
        assert check_forms_agree(op).status == "pass"
        rng = np.random.default_rng(13)
        for m in (1, 2, 3):
            f = rng.uniform(0, 1, space.n)
            assert check_shifted_sandwich(op, f, m=m).status == "pass"
        assert check_self_adjoint(op, seed=2, trials=10).status == "pass"


class TestEquivalences:
    @pytest.mark.parametrize("fixture", ["segment16", "snowflake8", "tree27"])
    def test_dyadic_below_direct(self, fixture, request):
        space, mu = request.getfixturevalue(fixture)
        op = line_operator(space, mu)
        rep = check_dyadic_below_direct(op)
        assert rep.status == "pass"
        assert rep.details["worst_ratio"] <= op.C_K * (1 + 1e-12)

    @pytest.mark.parametrize("fixture", ["segment16", "tree27"])
    def test_direct_below_family(self, fixture, request):
        space, mu = request.getfixturevalue(fixture)
        fam = build_adjacent_systems(space)
        ker = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        ops = [build_dyadic_operator(ker, s, mu, mu) for s in fam]
        rep = check_direct_below_family(ops)
        assert rep.status == "pass"

    def test_family_domination_functional(self, tree27):
        space, mu = tree27
        fam = build_adjacent_systems(space)
        ker = build_kernel(space, mu, "ball_volume", gamma=0.5)
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = rng.uniform(0, 1, space.n)
            sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.2))
            omega = PointMeasure(random_masses(rng, space.n, zero_fraction=0.2))
            ops = [build_dyadic_operator(ker, s, sigma, omega)
                   for s in fam]
            rep = check_family_domination(ops, f)
            assert rep.status == "pass"

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_equivalences_random_spaces(self, seed):
        space, mu = generate_space("euclidean_random_points", seed=seed, n=12, dim=2)
        sys = build_system(space, seed=seed)
        ker = build_kernel(space, mu, "ball_volume", gamma=0.5)
        op = build_dyadic_operator(ker, sys, mu, mu)
        assert check_dyadic_below_direct(op).status == "pass"


def loop_dyadic_below_direct(op):
    """Entry-by-entry reference for check_dyadic_below_direct: (status,
    witness, worst ratio, worst entry)."""
    K, n = op.kernel.matrix, op.n
    worst, at = 0.0, None
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            v = op.matrix[x, y]
            for target, label in ((K[x, y], "direct"), (K[y, x], "adjoint")):
                ratio = v / target if target > 0 else (
                    np.inf if v > 0 else 0.0)
                if ratio > worst:
                    worst, at = ratio, {"x": x, "y": y, "against": label}
                if not v <= guard(op.C_K * target):
                    return "fail", {"x": x, "y": y, "against": label,
                                    "phi": float(v), "kernel": float(target),
                                    "C_K": op.C_K}, None, None
    return "pass", None, worst, at


def loop_direct_below_family(ops):
    """Entry-by-entry reference for check_direct_below_family."""
    K, C_K, n = ops[0].kernel.matrix, ops[0].C_K, ops[0].n
    total = sum(o.matrix for o in ops)
    worst = 0.0
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if total[x, y] > 0:
                worst = max(worst, K[x, y] / total[x, y] / (3.0 * C_K))
            if not K[x, y] <= guard(3.0 * C_K * total[x, y]):
                return "fail", {"x": x, "y": y, "kernel": float(K[x, y]),
                                "family_sum": float(total[x, y]),
                                "C_K": C_K}, None
    return "pass", None, worst


def loop_vec_close(a, b, rel):
    """Entry-by-entry reference for _vec_close."""
    worst, worst_i = 0.0, -1
    for i in range(a.shape[0]):
        ai, bi = float(a[i]), float(b[i])
        if np.isinf(ai) or np.isinf(bi):
            if ai == bi:
                continue
            return False, i, np.inf
        err = abs(ai - bi) / max(abs(ai), abs(bi), 1.0)
        if err > worst:
            worst, worst_i = err, i
        if err > rel:
            return False, i, err
    return True, worst_i, worst


def test_vec_close_matches_entry_loop():
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(300):
        a = rng.uniform(-3.0, 3.0, 9)
        b = a * (1.0 + rng.choice([0.0, 1e-15, 1e-13, 1e-6], 9))
        a[rng.random(9) < 0.1] = np.inf
        b[rng.random(9) < 0.1] = -np.inf if rng.random() < 0.5 else np.inf
        ok, i, err = _vec_close(a, b, 1e-12)
        want = loop_vec_close(a, b, 1e-12)
        assert (ok, err) == (want[0], want[2])
        if not ok or err > 0:
            assert i == want[1]
        outcomes.add((ok, np.isinf(err)))
    assert outcomes == {(True, False), (False, False), (False, True)}


class TestEquivalenceReference:
    @pytest.mark.parametrize("fixture", ["segment16", "snowflake8", "tree27"])
    @pytest.mark.parametrize("shrink", [None, 0.999, 1e-3])
    def test_matches_entry_loops(self, fixture, shrink, request):
        # shrink < 1 sets C_K below what the observed worst ratio needs, so
        # the first offending entry in loop order must be the witness
        space, mu = request.getfixturevalue(fixture)
        fam = build_adjacent_systems(space)
        ker = build_kernel(space, mu, "ball_volume", gamma=0.5)
        ops = [build_dyadic_operator(ker, s, mu, mu) for s in fam]
        below, family = ops, ops
        if shrink is not None:
            worst = loop_dyadic_below_direct(ops[0])[2]
            below = [with_C_K(o, shrink * worst) for o in ops]
            # random envelope scaling moves the family's tightest entry off
            # the first pair
            rng = np.random.default_rng(41)
            family = [dataclasses.replace(
                o, matrix=o.matrix * rng.uniform(1.0, 2.0, o.matrix.shape))
                for o in ops]
            margin = loop_direct_below_family(family)[2]
            family = [with_C_K(o, shrink * margin * o.C_K) for o in family]
        for op in below:
            status, witness, worst, at = loop_dyadic_below_direct(op)
            rep = check_dyadic_below_direct(op)
            assert (rep.status, rep.witness) == (status, witness)
            if status == "pass":
                assert rep.details["worst_ratio"] == worst
                assert rep.details["worst_at"] == at
        status, witness, worst = loop_direct_below_family(family)
        rep = check_direct_below_family(family)
        assert (rep.status, rep.witness) == (status, witness)
        if status == "pass":
            assert rep.details["worst_margin"] == worst
        if shrink is not None:  # the understated C_K reaches both checks
            assert rep.status == "fail"
            assert check_dyadic_below_direct(below[0]).status == "fail"


class TestPointCubeTesting:
    def test_vacuous_without_joint_atoms(self, segment4):
        space, mu = segment4
        sigma = PointMeasure(np.array([1.0, 1.0, 0.0, 0.0]))
        omega = PointMeasure(np.array([0.0, 0.0, 1.0, 1.0]))
        op = line_operator(space, mu, sigma=sigma, omega=omega)
        rep = check_point_cube_testing(op, 2.0, 2.0, 1.0, 1.0)
        assert rep.status == "vacuous"

    def test_one_point_equality(self):
        # K = 2, sigma = 4, omega = 9, p = q = 2: the strong testing constant
        # is K sigma omega^(1/2) / sigma^(1/2) = 12 and the point bound holds
        # with equality on both sides
        space, _ = generate_space("integer_segment_counting", n=1)
        sys = build_system(space)
        ker = build_kernel(space, None, "matrix", values=np.array([[2.0]]))
        sigma = PointMeasure(np.array([4.0]))
        omega = PointMeasure(np.array([9.0]))
        op = build_dyadic_operator(ker, sys, sigma, omega)
        rep = check_point_cube_testing(op, 2.0, 2.0, 12.0, 12.0)
        assert rep.status == "pass"
        assert rep.details["worst_ratio"] == pytest.approx(1.0)
        with pytest.raises(CheckFailed, match="point_cube_testing"):
            require(check_point_cube_testing(op, 2.0, 2.0, 11.9, 12.0))

    def test_infinite_diagonal_fails_finite_constants(self, segment4):
        space, mu = segment4
        sys = build_system(space)
        ker = build_kernel(space, mu, "frac_rho", alpha=0.5, n_dim=1.0)
        op = build_dyadic_operator(ker, sys, mu, mu)
        rep = check_point_cube_testing(op, 2.0, 2.0, 5.0, 5.0)
        assert rep.status == "fail"
        assert rep.witness["kxx_infinite"] is True
        with pytest.raises(CheckFailed, match="point_cube_testing"):
            require(rep)

    @pytest.mark.parametrize("p,q", [(1.0, 2.0), (3.0, 2.0),
                                     (np.inf, np.inf)])
    def test_exponents_are_checked(self, segment4, p, q):
        space, mu = segment4
        op = line_operator(space, mu)
        with pytest.raises(BadParams):
            check_point_cube_testing(op, p, q, 1.0, 1.0)


# ---------------------------------------------------------------------------
# trial blocks: every check that tests many functions takes one (K, n) block
# ---------------------------------------------------------------------------

def family_ops(space, mu, sigma=None, omega=None):
    fam = build_adjacent_systems(space)
    ker = build_kernel(space, mu, "ball_volume", gamma=0.5)
    sigma = sigma if sigma is not None else mu
    omega = omega if omega is not None else mu
    return [build_dyadic_operator(ker, s, sigma, omega)
            for s in fam]


def loop_forms_agree(op):
    """The per-basis loop: (first-fail witness, worst relative error)."""
    rel = TOLERANCES["dual_form_rel"]
    worst = 0.0
    for j in range(op.n):
        e = np.zeros(op.n)
        e[j] = 1.0
        a, b = op.apply(e), apply_dyadic_partition(op, e, m=1)
        ok, i, err = _vec_close(a, b, rel)
        if not ok:
            return {"basis": j, "x": i, "kernel_form": float(a[i]),
                    "telescoped": float(b[i])}, None
        worst = max(worst, err)
    return None, worst


def loop_self_adjoint(op, seed, trials):
    """The per-trial loop, g and h drawn alternately, scalar closeness."""
    rel = TOLERANCES["duality_rel"]
    rng = np.random.default_rng(np.random.SeedSequence([0xAD01, seed]))
    worst = 0.0
    for t in range(trials):
        g = rng.uniform(0.0, 1.0, op.n)
        h = rng.uniform(0.0, 1.0, op.n)
        lhs = float(pairing(op.apply(g), h, op.omega))
        rhs = float(pairing(g, op.apply_adjoint(h), op.sigma))
        if np.isinf(lhs) or np.isinf(rhs):
            if lhs == rhs:
                continue
        elif close(lhs, rhs, rel):
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
            continue
        return {"trial": t, "lhs": lhs, "rhs": rhs}, None
    return None, worst


def loop_rows(check, block):
    """Run a one-density check on each row: the first failing row's
    witness, named by its row, or every row's report."""
    reports = []
    for t, f in enumerate(block):
        rep = check(f)
        if rep.status == "fail":
            return dict(rep.witness, trial=t), reports
        reports.append(rep)
    return None, reports


class TestBlockLayers:
    @pytest.mark.parametrize("fixture", ["segment16", "tree27"])
    def test_rows_equal_their_own_results(self, fixture, request):
        space, mu = request.getfixturevalue(fixture)
        rng = np.random.default_rng(21)
        sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.3))
        op = line_operator(space, mu, sigma=sigma, omega=mu)
        F = rng.random((6, space.n))
        F[2] = 0.0
        F[4, ::3] = 0.0
        G = rng.random((2, 3, space.n))
        for layer in (lambda f: cube_sums(op.system, f),
                      lambda f: apply_dyadic_partition(op, f, m=1),
                      lambda f: apply_dyadic_partition(op, f, m=3)):
            block = layer(F)
            assert block.shape[0] == len(F)
            for t, f in enumerate(F):
                assert block[t].tobytes() == layer(f).tobytes()
        # pairing reduces the last axis of any leading shape
        u = op.apply(G.reshape(-1, space.n)).reshape(G.shape)
        got = pairing(u, G, sigma)
        assert got.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert got[idx] == pairing(u[idx], G[idx], sigma)


class TestOneCallPerForm:
    @pytest.mark.parametrize("trials", [1, 4, 13])
    def test_each_check_applies_each_form_once(self, tree27, trials,
                                               monkeypatch):
        import dyadica.operators as operators

        space, mu = tree27
        ops = family_ops(space, mu)
        calls = []

        def counted(name, real):
            def wrapper(*args, **kw):
                calls.append(name)
                return real(*args, **kw)
            return wrapper

        for owner, attr in ((MatrixOperator, "apply"),
                            (MatrixOperator, "apply_adjoint"),
                            (operators, "apply_dyadic_partition"),
                            (operators, "apply_direct")):
            monkeypatch.setattr(owner, attr,
                                counted(attr, getattr(owner, attr)))
        F = np.random.default_rng(trials).random((trials, space.n))

        def forms(check, *args):
            calls.clear()
            assert check(*args).status == "pass"
            return sorted(calls)

        assert forms(check_forms_agree, ops[0]) == \
            ["apply", "apply_dyadic_partition"]
        assert forms(check_self_adjoint, ops[0], 0, trials) == \
            ["apply", "apply_adjoint"]
        for m in (1, 2, 3):
            assert forms(check_shifted_sandwich, ops[0], F, m) == \
                ["apply_dyadic_partition"] * 2
        assert forms(check_family_domination, ops, F) == \
            ["apply"] * len(ops) + ["apply_direct"]


class TestBlockOracles:
    """Each block check against a per-row loop: the same details on an
    all-pass block, and the same first-fail witness when a row in the
    middle fails."""

    @pytest.mark.parametrize("fixture", ["segment16", "snowflake8", "tree27"])
    def test_forms_agree_pass(self, fixture, request):
        space, mu = request.getfixturevalue(fixture)
        sigma = PointMeasure(random_masses(np.random.default_rng(2), space.n,
                                           zero_fraction=0.3))
        op = line_operator(space, mu, sigma=sigma, omega=mu)
        rep = check_forms_agree(op)
        assert rep.details == {"worst_rel_err": loop_forms_agree(op)[1],
                               "rel": TOLERANCES["dual_form_rel"]}

    def test_forms_agree_first_fail(self, segment16):
        space, mu = segment16
        op = line_operator(space, mu)
        op.matrix[3, 7] *= 2.0
        op.matrix[12, 9] *= 2.0
        rep = check_forms_agree(op)
        assert rep.witness == loop_forms_agree(op)[0]
        assert (rep.witness["basis"], rep.witness["x"]) == (7, 3)

    @pytest.mark.parametrize("fixture", ["segment16", "tree27"])
    def test_self_adjoint_pass(self, fixture, request):
        space, mu = request.getfixturevalue(fixture)
        rng = np.random.default_rng(11)
        sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.2))
        omega = PointMeasure(random_masses(rng, space.n, zero_fraction=0.2))
        op = line_operator(space, mu, sigma=sigma, omega=omega)
        rep = check_self_adjoint(op, seed=3, trials=30)
        assert rep.details == {"trials": 30,
                               "worst_rel_err": loop_self_adjoint(op, 3, 30)[1]}

    def test_self_adjoint_first_fail(self, segment16):
        # the adjoint reads a transpose with one entry raised by eps, so a
        # trial fails when its weight on that entry is large enough; a
        # smaller eps moves the first failing trial later
        from dyadica.operators import split_diagonal

        space, mu = segment16
        trials = 40
        for eps in 10.0 ** -np.arange(6.0, 12.0, 0.25):
            op = line_operator(space, mu)
            skewed = op.matrix.copy()
            skewed[2, 11] *= 1.0 + eps
            op._splits = (split_diagonal(op.matrix),
                          split_diagonal(skewed.T))
            witness, _ = loop_self_adjoint(op, 0, trials)
            if witness is not None and 0 < witness["trial"] < trials - 1:
                break
        else:
            pytest.fail("no perturbation fails a middle trial first")
        rep = check_self_adjoint(op, seed=0, trials=trials)
        assert rep.witness == witness

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("fixture", ["segment16", "tree27"])
    def test_sandwich_pass(self, m, fixture, request):
        space, mu = request.getfixturevalue(fixture)
        rng = np.random.default_rng(5)
        sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.3))
        op = line_operator(space, mu, sigma=sigma, omega=sigma)
        F = rng.uniform(0, 2, (9, space.n))
        F[3] = 0.0
        F[F < 0.3] = 0.0
        rep = check_shifted_sandwich(op, F, m)
        witness, rows = loop_rows(lambda f: check_shifted_sandwich(op, f, m),
                                  F)
        assert witness is None and rep.status == "pass"
        assert rep.details == dict(
            rows[0].details,
            worst_ratio=max(r.details["worst_ratio"] for r in rows))

    def test_sandwich_pass_with_infinite_diagonal(self, segment4):
        # inf / inf at a charged point counts as ratio 1, with no warning
        space, mu = segment4
        ker = build_kernel(space, mu, "frac_rho", alpha=0.5, n_dim=1.0)
        op = build_dyadic_operator(ker, build_system(space), mu, mu)
        F = np.random.default_rng(1).random((5, 4))
        rep = check_shifted_sandwich(op, F, 2)
        witness, rows = loop_rows(lambda f: check_shifted_sandwich(op, f, 2),
                                  F)
        assert witness is None and rep.status == "pass"
        assert rep.details == dict(
            rows[0].details,
            worst_ratio=max(r.details["worst_ratio"] for r in rows))

    @pytest.mark.parametrize("tamper,side", [("starve", "upper"),
                                             ("negative", "lower"),
                                             ("both", "lower")])
    def test_sandwich_first_fail(self, segment16, tamper, side):
        # zeroing the envelope one level below the top starves the base
        # form (upper side); a negative top envelope enters only the
        # 2-shifted form below the top, which falls below the base (lower);
        # with a tiny C_K as well both sides fail, and the lower one counts
        space, mu = segment16
        op = line_operator(space, mu)
        sys = op.system
        op.phi.values = op.phi.values.copy()
        if tamper == "starve":
            op.phi.values[sys.containing_cube(sys.k_min + 1,
                                              sys.cubes.center[sys.top])] = 0.0
        else:
            op.phi.values[sys.top] = -1.0
        if tamper == "both":
            op = with_C_K(op, 1e-9)
        bad = np.zeros(16)
        bad[sys.cubes.center[sys.top]] = 1.0
        F = np.stack([np.zeros(16), np.zeros(16), bad, np.ones(16), bad])
        base = apply_dyadic_partition(op, bad, m=1)
        shifted = apply_dyadic_partition(op, bad, m=2)
        assert np.any(shifted < base) == (side == "lower")
        over_cap = np.any(shifted > guard(op.C_K * 2) * base)
        assert over_cap == (tamper != "negative")
        rep = check_shifted_sandwich(op, F, m=2)
        witness, _ = loop_rows(lambda f: check_shifted_sandwich(op, f, 2), F)
        assert rep.witness == witness
        assert (rep.witness["trial"], rep.witness["side"]) == (2, side)

    @pytest.mark.parametrize("fixture", ["segment16", "tree27"])
    def test_family_domination_pass(self, fixture, request):
        space, mu = request.getfixturevalue(fixture)
        rng = np.random.default_rng(9)
        sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.2))
        omega = PointMeasure(random_masses(rng, space.n, zero_fraction=0.2))
        ops = family_ops(space, mu, sigma, omega)
        F = rng.uniform(0, 1, (7, space.n))
        F[F < 0.2] = 0.0
        rep = check_family_domination(ops, F)
        witness, rows = loop_rows(lambda f: check_family_domination(ops, f), F)
        assert witness is None and rep.status == "pass"
        assert all(rep.details == r.details for r in rows)

    def test_family_domination_first_fail(self, tree27):
        # a constant far below C_K fails every nonzero density
        space, mu = tree27
        ops = family_ops(space, mu)
        ops[0] = with_C_K(ops[0], 1e-6)
        rng = np.random.default_rng(4)
        F = np.concatenate([np.zeros((3, space.n)), rng.random((3, space.n))])
        rep = check_family_domination(ops, F)
        witness, _ = loop_rows(lambda f: check_family_domination(ops, f), F)
        assert rep.witness == witness
        assert rep.witness["trial"] == 3
