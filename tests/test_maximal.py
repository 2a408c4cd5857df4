import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica.dyadic import build_adjacent_systems, build_system
from dyadica.errors import (
    BadExponents,
    BadParams,
    EquivalenceViolated,
    NotAbsolutelyContinuous,
)
from dyadica.maximal import (
    MaximalParams,
    apply_M,
    apply_M_dyadic,
    check_maximal_equivalence,
    dual_weight,
    maximal_params,
    measure_doubling_constant,
    verdict_theorem_a,
)
from dyadica.maximal import testing_constant_maximal as maximal_testing
from dyadica.norms import indicator, standard_cubes
from dyadica.policy import require
from dyadica.space import PointMeasure, generate_space

from conftest import random_masses


def counting(n):
    return PointMeasure(np.ones(n))


class TestDoublingConstant:
    def test_segment_counting_is_three(self, segment4):
        space, mu = segment4
        assert measure_doubling_constant(space, mu) == 3.0

    def test_segment16_counting(self, segment16):
        space, mu = segment16
        assert measure_doubling_constant(space, mu) == 3.0

    def test_zero_measure_vacuous(self, segment4):
        space, _ = segment4
        assert measure_doubling_constant(space, PointMeasure(np.zeros(4))) == 1.0

    def test_point_mass_not_doubling(self, segment4):
        space, _ = segment4
        mu = PointMeasure(np.array([1.0, 0.0, 0.0, 0.0]))
        assert measure_doubling_constant(space, mu) == math.inf

    def test_one_point(self):
        space, mu = generate_space("integer_segment_counting", n=1)
        assert measure_doubling_constant(space, mu) == 1.0

    def test_builder_records_it(self, segment4):
        space, mu = segment4
        params = maximal_params(space, mu, 0.25)
        assert params.doubling_constant == 3.0

    def test_at_least_one(self, tree27):
        space, mu = tree27
        assert measure_doubling_constant(space, mu) >= 1.0


class TestMaximalParams:
    def test_rejects_gamma(self, segment4):
        space, mu = segment4
        for g in (-0.1, 1.0, 1.5):
            with pytest.raises(BadParams):
                MaximalParams(space=space, mu=mu, gamma=g)

    def test_rejects_size_mismatch(self, segment4):
        space, _ = segment4
        with pytest.raises(BadParams):
            MaximalParams(space=space, mu=counting(5), gamma=0.0)

    def test_doubling_constant_is_measured_not_passed(self, segment4):
        space, mu = segment4
        with pytest.raises(TypeError):
            MaximalParams(space=space, mu=mu, gamma=0.0, doubling_constant=0.5)
        params = MaximalParams(space=space, mu=mu, gamma=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.doubling_constant = 0.5

    def test_doubling_constant_measured_once_per_params(self, segment16,
                                                        monkeypatch):
        import dyadica.maximal as maximal

        space, mu = segment16
        calls = []

        def counted(*args):
            calls.append(args)
            return measure_doubling_constant(*args)

        monkeypatch.setattr(maximal, "measure_doubling_constant", counted)
        params = MaximalParams(space=space, mu=mu, gamma=0.5)
        assert calls == []
        assert params.doubling_constant == 3.0
        assert params.doubling_constant == 3.0
        assert calls == [(space, mu)]
        built = maximal_params(space, mu, 0.5)
        assert len(calls) == 2
        assert built.doubling_constant == 3.0
        assert len(calls) == 2

    def test_ball_powers_built_once_and_read_only(self, segment16,
                                                  monkeypatch):
        space, mu = segment16
        prop = vars(MaximalParams)["ball_powers"]
        real, built = prop.func, []

        def build(params):
            built.append(params)
            return real(params)

        monkeypatch.setattr(prop, "func", build)
        params = MaximalParams(space=space, mu=mu, gamma=0.5)
        f = np.random.default_rng(0).random(16)
        first = apply_M(params, f)
        assert np.array_equal(apply_M(params, 2.0 * f), 2.0 * first)
        assert built == [params]
        for arr in params.ball_powers:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = arr[0, 0]
        other = MaximalParams(space=space, mu=mu, gamma=0.5)
        apply_M(other, f)
        assert built == [params, other]


class TestApplyM:
    def test_two_point_counting(self, two_point):
        space, mu = two_point
        params = MaximalParams(space=space, mu=mu, gamma=0.0)
        out = apply_M(params, np.array([1.0, 0.0]))
        assert np.array_equal(out, np.array([1.0, 0.5]))

    def test_constant(self, segment16):
        space, mu = segment16
        params = MaximalParams(space=space, mu=mu, gamma=0.0)
        out = apply_M(params, np.full(16, 7.0))
        assert np.allclose(out, 7.0, rtol=1e-12)

    def test_zero(self, segment16):
        space, mu = segment16
        params = MaximalParams(space=space, mu=mu, gamma=0.5)
        assert np.array_equal(apply_M(params, np.zeros(16)), np.zeros(16))

    def test_doubling_exact(self, segment16):
        space, _ = segment16
        rng = np.random.default_rng(3)
        mu = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        params = MaximalParams(space=space, mu=mu, gamma=0.25)
        f = rng.random(16)
        assert np.array_equal(apply_M(params, 2.0 * f), 2.0 * apply_M(params, f))

    def test_homogeneity(self, segment4):
        space, mu = segment4
        params = MaximalParams(space=space, mu=mu, gamma=0.5)
        f = np.array([0.3, 2.0, 0.0, 1.1])
        assert np.allclose(apply_M(params, 3.0 * f), 3.0 * apply_M(params, f),
                           rtol=1e-12)

    def test_monotone(self, segment16):
        space, mu = segment16
        params = MaximalParams(space=space, mu=mu, gamma=0.25)
        rng = np.random.default_rng(5)
        g = rng.random(16) + 0.2
        f = g * rng.random(16)
        assert np.all(apply_M(params, f) <= apply_M(params, g) * (1 + 1e-12))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
           st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4))
    def test_subadditive(self, fl, gl):
        space, mu = generate_space("integer_segment_counting", n=4)
        params = MaximalParams(space=space, mu=mu, gamma=0.25)
        f, g = np.array(fl), np.array(gl)
        lhs = apply_M(params, f + g)
        rhs = apply_M(params, f) + apply_M(params, g)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-300)

    def test_null_point_is_fine(self, segment4):
        space, _ = segment4
        mu = PointMeasure(np.array([1.0, 0.0, 1.0, 1.0]))
        params = MaximalParams(space=space, mu=mu, gamma=0.0)
        out = apply_M(params, np.ones(4))
        assert np.all(np.isfinite(out)) and np.all(out > 0)

    def test_inside_measure_matches_scaled_argument(self, segment16):
        space, _ = segment16
        rng = np.random.default_rng(11)
        sigma = PointMeasure(random_masses(rng, 16))
        mu = PointMeasure(random_masses(rng, 16, zero_fraction=0.3))
        dw = dual_weight(mu, sigma, 2.5)
        params = MaximalParams(space=space, mu=mu, gamma=0.25)
        fam = build_adjacent_systems(space)
        for cube in standard_cubes(fam)[::5]:
            chi = indicator(16, cube.members)
            via_arg = apply_M(params, chi * dw.v)
            via_inside = apply_M(params, chi, inside=dw.v_measure)
            assert np.array_equal(via_arg, via_inside)

    def test_rejects_size(self, segment4):
        space, mu = segment4
        params = MaximalParams(space=space, mu=mu, gamma=0.0)
        with pytest.raises(BadParams):
            apply_M(params, np.ones(5))


class TestApplyMDyadic:
    def test_point_mass_hits_leaf(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        params = MaximalParams(space=space, mu=mu, gamma=0.0)
        f = np.zeros(16)
        f[6] = 1.0
        out = apply_M_dyadic(sys, params, f)
        assert out[6] == 1.0
        assert np.all(out <= 1.0)

    def test_constant(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        params = MaximalParams(space=space, mu=mu, gamma=0.0)
        out = apply_M_dyadic(sys, params, np.full(16, 3.0))
        assert np.allclose(out, 3.0, rtol=1e-12)

    def test_null_cubes_skipped(self, segment4):
        space, _ = segment4
        sys = build_system(space)
        mu = PointMeasure(np.array([1.0, 0.0, 0.0, 0.0]))
        params = MaximalParams(space=space, mu=mu, gamma=0.5)
        out = apply_M_dyadic(sys, params, np.ones(4))
        assert np.all(np.isfinite(out))

    def test_doubling_exact(self, segment16):
        space, _ = segment16
        sys = build_system(space)
        rng = np.random.default_rng(7)
        mu = PointMeasure(random_masses(rng, 16))
        params = MaximalParams(space=space, mu=mu, gamma=0.75)
        f = rng.random(16)
        assert np.array_equal(apply_M_dyadic(sys, params, 2.0 * f),
                              2.0 * apply_M_dyadic(sys, params, f))

    def test_below_ball_form(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        params = MaximalParams(space=space, mu=mu, gamma=0.25)
        rng = np.random.default_rng(9)
        for _ in range(5):
            f = rng.random(16)
            md = apply_M_dyadic(sys, params, f)
            mb = apply_M(params, f)
            assert np.all(md <= mb * 50.0)


class TestEquivalence:
    def test_segment_family(self, segment16):
        space, mu = segment16
        fam = build_adjacent_systems(space)
        params = maximal_params(space, mu, 0.25)
        rep = check_maximal_equivalence(fam, params, trials=20)
        assert rep.status == "pass"
        d = rep.details
        assert d["dyadic_over_ball"] <= d["ratio_bound"] * (1 + 1e-12)
        assert 0.0 < d["ball_over_sum"] < math.inf
        assert d["systems"] == len(fam.systems)

    def test_one_point(self):
        space, mu = generate_space("integer_segment_counting", n=1)
        fam = build_adjacent_systems(space)
        params = maximal_params(space, mu, 0.0)
        rep = check_maximal_equivalence(fam, params, trials=5)
        assert rep.status == "pass"
        assert rep.details["dyadic_over_ball"] == 1.0
        assert rep.details["ball_over_sum"] <= 1.0

    def test_tree(self, tree27):
        space, mu = tree27
        fam = build_adjacent_systems(space)
        params = maximal_params(space, mu, 0.5)
        rep = check_maximal_equivalence(fam, params, trials=10)
        assert rep.status == "pass"

    def test_first_violation_is_recorded(self, segment16, monkeypatch):
        # a containment bound far below the truth makes direction one fail
        # on the very first trial (the constant function) in system 0
        import dyadica.maximal as maximal

        space, mu = segment16
        fam = build_adjacent_systems(space)
        params = maximal_params(space, mu, 0.25)
        monkeypatch.setattr(maximal, "_containment_ratio_bound",
                            lambda *args: 1e-6)
        rep = check_maximal_equivalence(fam, params, trials=4)
        assert rep.witness["violations"] >= 2
        f = np.ones(space.n)
        md = apply_M_dyadic(fam[0], params, f)
        cap = 1e-6 * apply_M(params, f)
        x = int(np.flatnonzero(md > cap * (1.0 + 1e-12))[0])
        assert rep.witness["first"] == {"trial": 0, "system": 0, "x": x,
                                        "lhs": float(md[x]),
                                        "rhs": float(cap[x])}

    def test_needs_doubling(self, segment4):
        space, _ = segment4
        mu = PointMeasure(np.array([1.0, 0.0, 0.0, 0.0]))
        fam = build_adjacent_systems(space)
        params = maximal_params(space, mu, 0.0)
        rep = check_maximal_equivalence(fam, params, trials=3)
        assert (rep.status, rep.witness) == \
            ("vacuous", {"reason": "reference measure is not doubling"})

    def test_failure_is_a_report_with_its_error(self, segment16,
                                                monkeypatch):
        import dyadica.maximal as maximal

        space, mu = segment16
        fam = build_adjacent_systems(space)
        params = maximal_params(space, mu, 0.25)
        monkeypatch.setattr(maximal, "_containment_ratio_bound",
                            lambda *args: 1e-6)
        rep = check_maximal_equivalence(fam, params, trials=2)
        assert (rep.name, rep.status) == ("ball_dyadic_equivalence", "fail")
        # the measured constants are kept on a failure too
        assert set(rep.details) == {"ratio_bound", "dyadic_over_ball",
                                    "ball_over_sum", "trials", "systems"}
        with pytest.raises(EquivalenceViolated) as info:
            require(rep)
        assert info.value.witness == rep.witness

    def test_relaxed_family_is_non_strict(self, segment16):
        space, mu = segment16
        fam = build_adjacent_systems(space, delta=0.25)
        assert not fam[0].strict_delta
        rep = check_maximal_equivalence(fam, maximal_params(space, mu, 0.25),
                                        trials=3)
        assert (rep.status, rep.strict_mode) == ("pass", False)


class TestSameSpace:
    # params on the 16-point segment, systems on a 16-point cloud: the
    # point counts agree, so only the identity of the space tells them apart
    @pytest.fixture
    def mixed(self, segment16):
        space, mu = segment16
        cloud, _ = generate_space("euclidean_random_points", seed=1, n=16)
        return build_adjacent_systems(cloud), maximal_params(space, mu, 0.25)

    def test_apply_M_dyadic(self, mixed):
        fam, params = mixed
        with pytest.raises(BadParams, match="different spaces"):
            apply_M_dyadic(fam[0], params, np.ones(16))

    def test_equivalence(self, mixed):
        fam, params = mixed
        with pytest.raises(BadParams, match="different spaces"):
            check_maximal_equivalence(fam, params, trials=3)

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_testing_constant(self, mixed, dyadic):
        fam, params = mixed
        with pytest.raises(BadParams, match="different spaces"):
            maximal_testing(fam, params, params.mu, params.mu, 2.0, 2.0,
                            dyadic=dyadic)


class TestDualWeight:
    def test_identity_weight(self, segment4):
        _, mu = segment4
        dw = dual_weight(mu, mu, 2.0)
        assert np.array_equal(dw.u, np.ones(4))
        assert np.array_equal(dw.v, np.ones(4))
        assert np.array_equal(dw.v_measure.masses, mu.masses)

    def test_double_sigma(self, segment4):
        _, mu = segment4
        sigma = PointMeasure(2.0 * mu.masses)
        dw = dual_weight(mu, sigma, 3.0)
        assert np.array_equal(dw.u, np.full(4, 0.5))
        assert abs(dw.v[0] - math.sqrt(0.5)) <= 1e-15

    def test_not_absolutely_continuous(self, segment4):
        _, mu = segment4
        sigma = PointMeasure(np.array([1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(NotAbsolutelyContinuous):
            dual_weight(mu, sigma, 2.0)

    def test_joint_null_point(self, two_point):
        _, _ = two_point
        mu = PointMeasure(np.array([1.0, 0.0]))
        sigma = PointMeasure(np.array([1.0, 0.0]))
        dw = dual_weight(mu, sigma, 2.0)
        assert np.array_equal(dw.u, np.array([1.0, 0.0]))
        assert np.array_equal(dw.v, np.array([1.0, 0.0]))

    def test_bad_exponent(self, segment4):
        _, mu = segment4
        for p in (1.0, math.inf):
            with pytest.raises(BadExponents):
                dual_weight(mu, mu, p)


class TestTestingConstant:
    def test_one_point_closed_form(self):
        space, mu = generate_space("integer_segment_counting", n=1)
        fam = build_adjacent_systems(space)
        t = maximal_testing(fam, MaximalParams(space, mu, 0.0), mu, mu, 2.0, 2.0)
        assert t.value == 1.0
        assert t.argmax is not None

    def test_zero_mu(self, segment4):
        space, _ = segment4
        fam = build_adjacent_systems(space)
        mu = PointMeasure(np.zeros(4))
        t = maximal_testing(fam, MaximalParams(space, mu, 0.25), counting(4),
                            counting(4), 2.0, 2.0)
        assert t.value == 0.0
        assert t.convention_hits == len(standard_cubes(fam))

    def test_segment_finite_with_argmax(self, segment16):
        space, mu = segment16
        fam = build_adjacent_systems(space)
        rng = np.random.default_rng(13)
        sigma = PointMeasure(random_masses(rng, 16))
        omega = PointMeasure(random_masses(rng, 16))
        t = maximal_testing(fam, MaximalParams(space, mu, 0.25), sigma, omega,
                            2.0, 3.0)
        assert 0.0 < t.value < math.inf
        assert t.argmax is not None

    def test_scaling_law_one_point(self):
        # value(s*mu, s*sigma) = s^(gamma - 1/p) * value(mu, sigma); the
        # ratio is scale free only at gamma = 1/p.
        space, _ = generate_space("integer_segment_counting", n=1)
        fam = build_adjacent_systems(space)
        omega = counting(1)
        for gamma, p in ((0.0, 2.0), (0.5, 2.0), (0.25, 4.0)):
            base = maximal_testing(
                fam, MaximalParams(space, counting(1), gamma), counting(1),
                omega, p, p).value
            for s in (2.0, 4.0):
                mu = PointMeasure(np.array([s]))
                sigma = PointMeasure(np.array([s]))
                scaled = maximal_testing(
                    fam, MaximalParams(space, mu, gamma), sigma, omega,
                    p, p).value
                expected = s ** (gamma - 1.0 / p) * base
                assert abs(scaled - expected) <= 1e-12 * max(1.0, expected)
        inv = maximal_testing(
            fam, MaximalParams(space, PointMeasure(np.array([8.0])), 0.5),
            PointMeasure(np.array([8.0])), omega, 2.0, 2.0).value
        assert abs(inv - 1.0) <= 1e-12

    def test_dyadic_form_one_point(self):
        space, mu = generate_space("integer_segment_counting", n=1)
        fam = build_adjacent_systems(space)
        t = maximal_testing(fam, MaximalParams(space, mu, 0.0), mu, mu, 2.0, 2.0,
                            dyadic=True)
        assert t.value == 1.0
        assert len(t.per_system) == len(fam.systems)

    def test_dyadic_form_skips_absolute_continuity(self, segment4):
        space, _ = segment4
        fam = build_adjacent_systems(space)
        mu = counting(4)
        sigma = PointMeasure(np.array([1.0, 0.0, 0.0, 0.0]))
        params = MaximalParams(space, mu, 0.0)
        with pytest.raises(NotAbsolutelyContinuous):
            maximal_testing(fam, params, sigma, counting(4), 2.0, 2.0)
        t = maximal_testing(fam, params, sigma, counting(4), 2.0, 2.0,
                            dyadic=True)
        assert np.isfinite(t.value)


class TestVerdict:
    def test_one_point_closed_form(self):
        space, mu = generate_space("integer_segment_counting", n=1)
        fam = build_adjacent_systems(space)
        v = verdict_theorem_a(fam, mu, mu, mu, 0.0, 2.0, 2.0, budget=2)
        assert v.branch == "testing"
        assert v.testing.value == 1.0
        assert abs(v.norm.lower - 1.0) <= 1e-12
        assert abs(v.ratio - 1.0) <= 1e-12
        assert v.dyadic_testing.value == 1.0

    def test_necessity_branch(self, segment16):
        space, mu = segment16
        fam = build_adjacent_systems(space)
        sigma_masses = np.ones(16)
        sigma_masses[5] = 0.0
        v = verdict_theorem_a(fam, mu, PointMeasure(sigma_masses),
                              counting(16), 0.25, 2.0, 2.0)
        assert v.branch == "necessity"
        assert v.violating_set == (5,)
        assert v.lhs > 0.0
        assert v.rhs == 0.0
        assert v.confirmed

    def test_segment_pipeline(self, segment16):
        space, _ = segment16
        fam = build_adjacent_systems(space)
        rng = np.random.default_rng(21)
        mu = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        sigma = PointMeasure(random_masses(rng, 16))
        omega = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        v = verdict_theorem_a(fam, mu, sigma, omega, 0.25, 2.0, 3.0,
                              budget=4)
        assert v.branch == "testing"
        assert v.testing.value <= v.norm.lower + 1e-9
        assert 1.0 - 1e-9 <= v.ratio < math.inf
        assert len(v.dyadic_testing.per_system) == len(fam.systems)
        assert v.params.doubling_constant >= 1.0

    def test_infinite_q(self, segment4):
        space, mu = segment4
        fam = build_adjacent_systems(space)
        v = verdict_theorem_a(fam, mu, mu, mu, 0.5, 2.0, math.inf,
                              budget=2)
        assert v.branch == "testing"
        assert v.testing.value <= v.norm.lower + 1e-9
        assert np.isfinite(v.ratio)

    def test_deterministic(self, segment4):
        space, mu = segment4
        fam = build_adjacent_systems(space)
        rng = np.random.default_rng(30)
        omega = PointMeasure(random_masses(rng, 4))
        a = verdict_theorem_a(fam, mu, mu, omega, 0.25, 1.5, 2.0,
                              budget=3, seed=7)
        b = verdict_theorem_a(fam, mu, mu, omega, 0.25, 1.5, 2.0,
                              budget=3, seed=7)
        assert a.norm.lower == b.norm.lower
        assert a.ratio == b.ratio


# ---------------------------------------------------------------------------
# brute-force references: the per-center, per-cube and per-radius loops the
# array forms replaced; the array forms must agree with them bit for bit
# ---------------------------------------------------------------------------

def apply_M_loop(params, f, inside=None):
    """One stable argsort and one prefix-sum pass per center."""
    mu, gamma = params.mu, params.gamma
    weights = (inside if inside is not None else mu).masses
    a = np.abs(np.asarray(f, dtype=float))
    n = params.space.n
    terms = a * weights
    out = np.zeros(n)
    for c in range(n):
        order = np.argsort(params.space.dist[c], kind="stable")
        dist_sorted = params.space.dist[c][order]
        csum_terms = np.cumsum(terms[order])
        csum_mu = np.cumsum(mu.masses[order])
        boundary = np.empty(n, dtype=bool)
        boundary[:-1] = dist_sorted[1:] != dist_sorted[:-1]
        boundary[-1] = True
        bidx = np.flatnonzero(boundary)
        mu_pref = csum_mu[bidx]
        s_pref = csum_terms[bidx]
        with np.errstate(divide="ignore", invalid="ignore"):
            cut = np.where(mu_pref > 0.0,
                           np.power(mu_pref, gamma - 1.0) * s_pref, -np.inf)
        suffmax = np.maximum.accumulate(cut[::-1])[::-1]
        group = np.searchsorted(bidx, np.arange(n), side="left")
        vals = suffmax[group]
        out[order] = np.maximum(out[order], np.where(vals > 0.0, vals, 0.0))
    return out


def apply_M_rows(params, f, inside=None):
    """The previous array form: np.where masks, a reversed running maximum
    read as a view, the clip at 0 before a take_along_axis gather."""
    weights = (inside if inside is not None else params.mu).masses
    a = np.abs(np.asarray(f, dtype=float))
    idx = params.space.index
    n = params.space.n
    rank = idx.flat_rank - n * np.arange(n)[:, None]
    s_pref = np.cumsum((a * weights)[idx.order], axis=1)
    ball, power = params.ball_powers
    with np.errstate(invalid="ignore"):
        cut = np.where(ball, power * s_pref, -np.inf)
    suffmax = np.maximum.accumulate(cut[:, ::-1], axis=1)[:, ::-1]
    vals = np.where(suffmax > 0.0, suffmax, 0.0)
    return np.take_along_axis(vals, rank, axis=1).max(axis=0)


def apply_M_dyadic_loop(system, params, f, inside=None):
    """One mass and one sum per cube."""
    mu, gamma = params.mu, params.gamma
    weights = (inside if inside is not None else mu).masses
    a = np.abs(np.asarray(f, dtype=float))
    out = np.zeros(a.size)
    for cube in system.cubes:
        m = mu.of(cube.members)
        if m == 0.0:
            continue
        idx = list(cube.members)
        val = m ** (gamma - 1.0) * float(np.sum(a[idx] * weights[idx]))
        if val > 0.0:
            out[idx] = np.maximum(out[idx], val)
    return out


def doubling_loop(space, mu):
    """Two masked sums per center and radius."""
    d = space.dist
    vals = np.unique(d[d > 0.0])
    if vals.size:
        radii = np.unique(np.concatenate([vals, vals / 2.0,
                                          [float(vals.max()) + 1.0]]))
    else:
        radii = np.array([1.0])
    best = 1.0
    for x in space.points():
        row = d[x]
        for r in radii:
            den = float(np.sum(mu.masses[row < r]))
            num = float(np.sum(mu.masses[row < 2.0 * r]))
            if den == 0.0:
                if num > 0.0:
                    return math.inf
                continue
            best = max(best, num / den)
    return best


EXACT_SPACES = {
    "segment": lambda: generate_space("integer_segment_counting", n=16),
    "tree": lambda: generate_space("ultrametric_tree", depth=3, branching=3,
                                   ratio=1.0 / 96.0),
    "cloud": lambda: generate_space("euclidean_random_points", seed=4, n=20),
    "one_point": lambda: generate_space("integer_segment_counting", n=1),
}


def exact_measures(n, seed):
    """Counting, then non-integer masses (so summation order shows), then
    the same with a third of the points null."""
    rng = np.random.default_rng(seed)
    yield PointMeasure(np.ones(n))
    m = rng.random(n) + 0.01
    yield PointMeasure(m)
    null = m.copy()
    null[rng.random(n) < 1 / 3] = 0.0
    yield PointMeasure(null)


@pytest.mark.parametrize("name", sorted(EXACT_SPACES))
class TestArrayFormsAreExact:
    def test_apply_M(self, name):
        space, _ = EXACT_SPACES[name]()
        rng = np.random.default_rng(1)
        for mu in exact_measures(space.n, 2):
            inside = PointMeasure(rng.random(space.n)
                                  * (rng.random(space.n) < 0.7))
            for gamma in (0.0, 0.25, 0.5):
                params = MaximalParams(space=space, mu=mu, gamma=gamma)
                for f in (np.ones(space.n), rng.random(space.n),
                          rng.normal(size=space.n) * (rng.random(space.n) < 0.5)):
                    for ins in (None, inside):
                        assert np.array_equal(apply_M(params, f, inside=ins),
                                              apply_M_loop(params, f, ins))

    def test_apply_M_dyadic(self, name):
        space, _ = EXACT_SPACES[name]()
        rng = np.random.default_rng(3)
        # the strict window, then relaxed ones with cubes of many sizes
        systems = [build_system(space),
                   build_system(space, seed=1, delta=0.25),
                   build_system(space, seed=2, delta=0.25, k_max=0)]
        for mu in exact_measures(space.n, 4):
            inside = PointMeasure(rng.random(space.n))
            for gamma in (0.0, 0.25, 0.5):
                params = MaximalParams(space=space, mu=mu, gamma=gamma)
                for system in systems:
                    for f in (np.ones(space.n), rng.random(space.n)):
                        for ins in (None, inside):
                            got = apply_M_dyadic(system, params, f, inside=ins)
                            want = apply_M_dyadic_loop(system, params, f, ins)
                            assert np.array_equal(got, want)

    def test_doubling_constant(self, name):
        # masses over several orders of magnitude put the supremum on balls
        # of many points, where the summation order shows in the last ulp
        space, _ = EXACT_SPACES[name]()
        rng = np.random.default_rng(5)
        spread = [PointMeasure(np.exp(3.0 * rng.normal(size=space.n)))
                  for _ in range(20)]
        for mu in [*exact_measures(space.n, 5), *spread]:
            assert (measure_doubling_constant(space, mu)
                    == doubling_loop(space, mu))


STOCK_SPACES = [
    ("integer_segment_counting", {"n": 16}),
    ("euclidean_random_points", {"n": 20, "dim": 3, "power": 0.5}),
    ("snowflake_power", {"n": 12, "power": 0.5}),
    ("ultrametric_tree", {"depth": 3, "branching": 3, "ratio": 0.3}),
]


@pytest.mark.parametrize("kind,params", STOCK_SPACES)
def test_apply_M_bytes_match_previous_form(kind, params):
    space, counting_mu = generate_space(kind, seed=7, **params)
    n = space.n
    rng = np.random.default_rng(11)
    # non-integer masses, so any change of summation order shows
    for mu in (counting_mu,
               PointMeasure(rng.random(n) * (rng.random(n) < 0.7))):
        inside = PointMeasure(rng.random(n) * (rng.random(n) < 0.7))
        for gamma in (0.0, 0.25, 0.5):
            mp = MaximalParams(space=space, mu=mu, gamma=gamma)
            for f in (np.ones(n), rng.random(n),
                      rng.normal(size=n) * (rng.random(n) < 0.5),
                      np.zeros(n)):
                for ins in (None, inside):
                    assert (apply_M(mp, f, inside=ins).tobytes()
                            == apply_M_rows(mp, f, ins).tobytes())


class TestDoublingEdgeCases:
    def test_zero_mass_inner_ball_is_infinite(self, segment16):
        # point 5 is null but its neighbours are not: the ball B(5, 1) is
        # empty of mass while B(5, 2) is not
        space, _ = segment16
        masses = np.ones(16)
        masses[5] = 0.0
        mu = PointMeasure(masses)
        assert doubling_loop(space, mu) == math.inf
        assert measure_doubling_constant(space, mu) == math.inf

    def test_zero_measure_on_every_space(self):
        for make in EXACT_SPACES.values():
            space, _ = make()
            mu = PointMeasure(np.zeros(space.n))
            assert measure_doubling_constant(space, mu) == 1.0
            assert doubling_loop(space, mu) == 1.0


class TestSizeGroups:
    def test_groups_partition_the_cubes(self, tree27):
        space, _ = tree27
        system = build_system(space)
        seen = []
        for ids, members in system.size_groups:
            for i, row in zip(ids, members):
                assert tuple(row) == system.cubes[i].members
            seen.extend(ids.tolist())
        assert sorted(seen) == list(range(len(system.cubes)))

    def test_groups_are_cached_and_read_only(self, tree27):
        space, _ = tree27
        system = build_system(space)
        assert system.size_groups is system.size_groups
        ids, members = system.size_groups[0]
        with pytest.raises(ValueError):
            ids[0] = 1
        with pytest.raises(ValueError):
            members[0, 0] = 1
