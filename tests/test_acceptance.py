"""End-to-end acceptance suite: one test per release criterion.

Every test exercises its criterion at the stated tolerance on spaces of at
most 64 points and prints a single PASS/FAIL line (visible under ``-s``);
the assertion carries the same verdict for plain runs. Randomness is fully
seeded, parameters stay in the strict range, and the whole module is meant
to finish in well under five minutes.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from dyadica import (
    PointMeasure,
    MatrixOperator,
    build_adjacent_systems,
    build_dyadic_operator,
    build_kernel,
    build_principal_cubes,
    build_space,
    check_dyadic_below_direct,
    check_direct_below_family,
    check_family_domination,
    check_forms_agree,
    check_kernel_estimates,
    check_mainlemma,
    check_max_principle_1,
    check_max_principle_2,
    check_self_adjoint,
    check_shifted_sandwich,
    check_system,
    check_universal_maximal,
    coverage_bound,
    dual_weight,
    generate_space,
    maximal_cubes,
    operator_norm_strong,
    random_measure,
    replay_coverage,
    rho_grid,
    verdict_theorem_a,
    verdict_theorem_b,
    verdict_weak_type,
    weak_quasinorm,
)
from dyadica.errors import CheckFailed
from dyadica.harness import sweep
from dyadica.kernel import growth_scale_factor, phi_table
from dyadica.operators import apply_dyadic_partition
from dyadica.policy import TOLERANCES

SALT = 0xACCE


@contextmanager
def _criterion(num: int, slug: str):
    box = SimpleNamespace(detail="")
    try:
        yield box
    except BaseException as exc:
        print(f"ACCEPTANCE {num:02d} {slug}: FAIL ({type(exc).__name__}: {exc})")
        raise
    tail = f" ({box.detail})" if box.detail else ""
    print(f"ACCEPTANCE {num:02d} {slug}: PASS{tail}")


def _rng(*channel: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([SALT, *channel]))


# ---------------------------------------------------------------------------
# shared instances
# ---------------------------------------------------------------------------

_SPACE_SPECS = (
    ("segment4", dict(kind="integer_segment_counting", n=4)),
    ("segment16", dict(kind="integer_segment_counting", n=16)),
    ("euclid12", dict(kind="euclidean_random_points", seed=7, n=12, dim=2)),
    ("snowflake8", dict(kind="snowflake_power", n=8, power=2.0)),
    ("tree27", dict(kind="ultrametric_tree", depth=3, branching=3, ratio=0.5)),
)


@functools.cache
def _space(name: str):
    spec = dict(dict(_SPACE_SPECS)[name])
    kind = spec.pop("kind")
    return generate_space(kind, **spec)


@functools.cache
def _family(name: str):
    space, _ = _space(name)
    return build_adjacent_systems(space, seed=0)


@functools.cache
def _measure_pairs() -> tuple:
    """Measure instances for the operator criteria.

    The counting pair on every space, plus one weighted pair whose omega
    has zero-mass points so the omega-restricted claims are not vacuous.
    """
    out = []
    for name, _ in _SPACE_SPECS:
        space, mu = _space(name)
        out.append((name, space, mu, mu, mu))
    space, mu = _space("segment16")
    sigma = random_measure(16, seed=5)
    omega = random_measure(16, seed=6, zero_fraction=0.25)
    out.append(("segment16w", space, mu, sigma, omega))
    return tuple(out)


def _fam_of(label: str):
    return _family(label[:-1] if label.endswith("w") else label)


@functools.cache
def _operator_sets() -> tuple:
    """One dyadic operator per system of every measure instance."""
    out = []
    for label, space, mu, sigma, omega in _measure_pairs():
        kernel = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
        fam = _fam_of(label)
        ops = tuple(build_dyadic_operator(kernel, s, sigma, omega)
                    for s in fam.systems)
        out.append((label, ops))
    return tuple(out)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_adjacent_certificates():
    with _criterion(1, "adjacent-systems-and-coverage") as box:
        worst = 0.0
        for i in range(100):
            kind = i % 3
            if kind == 0:
                space, _ = generate_space("integer_segment_counting",
                                          n=4 + (i % 13))
            elif kind == 1:
                space, _ = generate_space("euclidean_random_points", seed=i,
                                          n=6 + (i % 7), dim=2)
            else:
                space, _ = generate_space("snowflake_power", n=5 + (i % 6),
                                          power=1.5 if i % 2 else 2.0)
            fam = build_adjacent_systems(space, seed=i)
            for sys_ in fam.systems:
                assert all(r.status == "pass" for r in check_system(sys_))
            cert = fam.certificate
            bound = coverage_bound(space.a0, fam.systems[0].delta)
            assert cert.observed_C <= bound
            assert cert.r_large_ok and cert.r_small_ok
            assert replay_coverage(fam.systems, cert)
            worst = max(worst, cert.observed_C / bound)
        box.detail = f"100 spaces, worst observed/bound = {worst:.3f}"


def test_criterion_02_kernel_estimates():
    with _criterion(2, "kernel-envelope-estimates") as box:
        checked = 0
        for name, _ in _SPACE_SPECS:
            space, mu = _space(name)
            fam = _family(name)
            for gamma in (0.25, 0.5, 0.75):
                kernel = build_kernel(space, mu, "ball_volume_closed",
                                      gamma=gamma)
                for sys_ in fam.systems:
                    phi = phi_table(kernel, sys_)
                    reports = check_kernel_estimates(kernel, sys_, phi)
                    assert all(r.ok for r in reports), reports
                    assert phi.C_K == phi.k1 ** 2
                    assert phi.k2 == growth_scale_factor(space.a0, sys_.delta)
                    checked += 1
        box.detail = f"{checked} kernel/system pairs, gamma in {{1/4, 1/2, 3/4}}"


def test_criterion_03_operator_comparisons():
    with _criterion(3, "dyadic-direct-comparisons") as box:
        trials = 100
        for idx, (label, ops) in enumerate(_operator_sets()):
            for op in ops:
                assert check_dyadic_below_direct(op).status == "pass"
            assert check_direct_below_family(ops).status == "pass"
            rng = _rng(3, idx)
            n = ops[0].n
            for _ in range(trials):
                f = rng.random(n)
                f[rng.random(n) < 0.2] = 0.0
                for op in ops:
                    for m in (1, 2, 3):
                        rep = check_shifted_sandwich(op, f, m)
                        assert rep.status == "pass", rep.witness
                rep = check_family_domination(ops, f)
                assert rep.status == "pass", rep.witness
        box.detail = f"{len(_operator_sets())} instances x {trials} densities"


def test_criterion_04_self_adjointness():
    with _criterion(4, "dyadic-self-adjointness") as box:
        count = 0
        for _, ops in _operator_sets():
            for op in ops:
                rep = check_self_adjoint(op, seed=0, trials=100)
                assert rep.ok
                count += 1
        box.detail = f"{count} operators x 100 random pairs at 1e-10"


def test_criterion_05_maximum_principles():
    with _criterion(5, "maximum-principles") as box:
        trials = 100
        nonvac = 0
        for idx, (label, ops) in enumerate(_operator_sets()):
            rng = _rng(5, idx)
            n = ops[0].n
            for op in ops:
                for _ in range(trials):
                    f = rng.random(n)
                    f[rng.random(n) < 0.2] = 0.0
                    rho = float(rng.choice(rho_grid(op, f)))
                    r1 = check_max_principle_1(op, f, rho)
                    r2 = check_max_principle_2(op, f, rho)
                    assert r1.status in ("pass", "vacuous")
                    assert r2.status in ("pass", "vacuous")
                    nonvac += (r1.status == "pass") + (r2.status == "pass")
        box.detail = f"{trials} thresholds per operator, {nonvac} non-vacuous"


def _halves_gap(values: list[float]) -> float:
    a, b = max(values[: len(values) // 2]), max(values[len(values) // 2:])
    return abs(a - b) / max(a, b)


_SWEEP_MEASURES = {"sigma": {"random": {}}, "omega": {"random": {"seed": 1}}}


def test_criterion_06_strong_type_characterization():
    with _criterion(6, "strong-type-testing") as box:
        for label, space, mu, sigma, omega in _measure_pairs():
            kernel = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
            v = verdict_theorem_b(kernel, _fam_of(label), sigma, omega,
                                  2.0, 2.0, budget=4, seed=0)
            slack = TOLERANCES["testing_le_norm_abs"]
            assert max(v.testing.strong, v.testing.dual) <= v.n_lb + slack
            assert math.isfinite(v.ratio)
        template = {
            "space": {"kind": "integer_segment_counting", "n": 16},
            "kernel": {"type": "ball_volume", "gamma": 0.5,
                       "measure": "mu", "ball": "closed"},
            "measures": _SWEEP_MEASURES,
            "checks": ["theorem-b"],
            "budget": 4,
        }
        reports, summary = sweep(template, {}, seeds=list(range(50)))
        assert not summary["errors"] and not summary["any_fail"]
        ratios = [r.constants["ratio_strong"] for r in reports]
        assert all(math.isfinite(r) for r in ratios)
        gap = _halves_gap(ratios)
        assert gap <= TOLERANCES["sweep_stability_rel"]
        box.detail = f"50-seed sweep, max-ratio half gap = {gap:.4f}"


def test_criterion_07_weak_type_characterization():
    with _criterion(7, "weak-type-testing") as box:
        for label, space, mu, sigma, omega in _measure_pairs():
            kernel = build_kernel(space, mu, "ball_volume_closed", gamma=0.5)
            fam = _fam_of(label)
            strong = verdict_theorem_b(kernel, fam, sigma, omega, 2.0, 2.0,
                                       budget=4, seed=0)
            ops = [build_dyadic_operator(kernel, s, sigma, omega)
                   for s in fam.systems]
            v = verdict_weak_type(strong, ops, budget=4, seed=0)
            slack = TOLERANCES["testing_le_norm_abs"]
            assert v.testing.dual <= v.adjoint_norm.lower + slack
            assert math.isfinite(v.ratio)
        rng = _rng(7)
        for t in range(20):
            omega = random_measure(16, seed=200 + t, zero_fraction=0.2)
            g = rng.normal(size=16)
            q = (1.5, 2.0, 3.0)[t % 3]
            got = weak_quasinorm(g, omega, q)
            a = np.abs(g)
            levels = np.unique(a[(omega.masses > 0) & (a > 0)])
            best = 0.0
            for v in levels:
                mass = float(omega.masses[a >= v].sum())
                best = max(best, float(v * mass ** (1.0 / q)))
            assert got == best
            for rho in rng.uniform(0.0, float(a.max()) * 1.5, size=50):
                if rho <= 0:
                    continue
                mass = float(omega.masses[a > rho].sum())
                assert rho * mass ** (1.0 / q) <= got + 1e-12 * max(got, 1.0)
        template = {
            "space": {"kind": "integer_segment_counting", "n": 16},
            "kernel": {"type": "ball_volume", "gamma": 0.5,
                       "measure": "mu", "ball": "closed"},
            "measures": _SWEEP_MEASURES,
            "checks": ["weak-type"],
            "budget": 4,
        }
        reports, summary = sweep(template, {}, seeds=list(range(50)))
        assert not summary["errors"] and not summary["any_fail"]
        ratios = [r.constants["weak_ratio"] for r in reports]
        assert all(math.isfinite(r) for r in ratios)
        gap = _halves_gap(ratios)
        assert gap <= TOLERANCES["sweep_stability_rel"]
        box.detail = f"exact level sup x 20, sweep half gap = {gap:.4f}"


def test_criterion_08_stopping_time_bounds():
    with _criterion(8, "principal-cubes-and-maximal-bounds") as box:
        instances = [
            ("segment16", _space("segment16")[1]),
            ("snowflake8", random_measure(8, seed=11)),
            ("tree27", _space("tree27")[1]),
        ]
        for idx, (name, sigma) in enumerate(instances):
            system = _family(name).systems[0]
            n = system.space.n
            rng = _rng(8, idx)
            for _ in range(100):
                f = rng.random(n)
                f[rng.random(n) < 0.2] = 0.0
                pf = build_principal_cubes(system, sigma, f)
                rep = check_mainlemma(system, pf.cubes, sigma, f, p=2.0)
                assert rep.ok
                assert rep.details["max_ratio_of_two"] <= 1.0
            for p in (1.5, 2.0, 4.0):
                rep = check_universal_maximal(system, sigma, p,
                                              trials=100, seed=0)
                assert rep.ok
                assert rep.details["max_ratio_of_p_prime"] <= 1.0
        box.detail = "3 instances x 100 builds, p' bound at p in {3/2, 2, 4}"


def test_criterion_09_maximal_characterization():
    with _criterion(9, "fractional-maximal-testing") as box:
        slack = TOLERANCES["testing_le_norm_abs"]
        for label, space, mu, sigma, omega in _measure_pairs():
            fam = _fam_of(label)
            v = verdict_theorem_a(fam, mu, sigma, omega,
                                  gamma=0.5, p=2.0, q=2.0, budget=4, seed=0)
            assert v.branch == "testing"
            assert v.testing.value <= v.norm.lower + slack
            assert math.isfinite(v.ratio)
            for p in (1.5, 2.0, 4.0):
                dw = dual_weight(mu, sigma, p)
                lhs = dw.v ** p * sigma.masses
                rhs = dw.v * mu.masses
                assert np.allclose(lhs, rhs, rtol=TOLERANCES["dual_weight_rel"],
                                   atol=0.0)
        space, mu = _space("segment16")
        v = verdict_theorem_a(_family("segment16"), mu, mu, mu,
                              gamma=0.5, p=2.0, q=math.inf, budget=4, seed=0)
        assert v.branch == "testing" and math.isfinite(v.ratio)
        confirmed = 0
        for i in range(10):
            n = 6 + i
            space, mu = generate_space("integer_segment_counting", n=n)
            fam = build_adjacent_systems(space, seed=i)
            masses = mu.masses.copy()
            masses[i % n] = 0.0
            sigma = PointMeasure(masses)
            v = verdict_theorem_a(fam, mu, sigma, mu,
                                  gamma=(0.0, 0.25, 0.5)[i % 3],
                                  p=2.0, q=2.0, budget=4, seed=0)
            assert v.branch == "necessity"
            assert v.confirmed and v.lhs > 0.0 and v.rhs == 0.0
            confirmed += 1
        with pytest.raises(CheckFailed) as err:
            dual_weight(PointMeasure(np.ones(3)),
                        PointMeasure(np.array([1.0, 0.0, 1.0])), 2.0)
        assert err.value.check == "absolute_continuity"
        template = {
            "space": {"kind": "integer_segment_counting", "n": 16},
            "measures": _SWEEP_MEASURES,
            "checks": ["theorem-a"],
            "gamma": 0.5,
            "budget": 4,
        }
        reports, summary = sweep(template, {}, seeds=list(range(50)))
        assert not summary["errors"] and not summary["any_fail"]
        ratios = [r.constants["maximal_ratio"] for r in reports]
        assert all(math.isfinite(r) for r in ratios)
        gap = _halves_gap(ratios)
        assert gap <= TOLERANCES["sweep_stability_rel"]
        box.detail = (f"{confirmed} necessity instances, "
                      f"sweep half gap = {gap:.4f}")


def test_criterion_10_oracle_equivalences():
    with _criterion(10, "independent-oracles") as box:
        for _, ops in _operator_sets():
            for op in ops:
                rep = check_forms_agree(op)
                assert rep.status == "pass", rep.witness
        op = dict(_operator_sets())["segment16"][0]
        for j in range(op.n):
            e = np.zeros(op.n)
            e[j] = 1.0
            a = op.apply(e)
            b = apply_dyadic_partition(op, e, m=1)
            assert np.array_equal(np.isfinite(a), np.isfinite(b))
            fin = np.isfinite(a)
            scale = np.maximum(np.abs(a[fin]), np.abs(b[fin]))
            assert np.all(np.abs(a[fin] - b[fin])
                          <= TOLERANCES["dual_form_rel"] * np.maximum(scale, 1.0))

        system = _family("segment16").systems[0]
        cubes = list(range(len(system.cubes)))

        def members(c):
            return frozenset(np.flatnonzero(system.incidence[c]).tolist())

        rng = _rng(10)
        for _ in range(20):
            k = int(rng.integers(1, len(cubes) + 1))
            take = rng.choice(len(cubes), size=k, replace=False)
            sample = [cubes[i] for i in take]
            chosen = np.zeros(len(cubes), dtype=bool)
            chosen[take] = True
            got = {members(c) for c in maximal_cubes(system, chosen)}
            sets = {members(c) for c in sample}
            want = {s for s in sets if not any(s < t for t in sets)}
            assert got == want

        one = build_space([[0.0]])
        k1 = build_kernel(one, None, "matrix", values=[[1.0]])
        sigma1, omega1 = PointMeasure(np.array([4.0])), PointMeasure(np.array([9.0]))
        direct = MatrixOperator(k1.matrix, sigma1, omega1)
        est = operator_norm_strong(direct.apply, sigma1, omega1, 2.0, 2.0,
                                   budget=8, seeds=[np.ones(1)], seed=0)
        assert math.isclose(est.lower, 6.0, rel_tol=TOLERANCES["witness_replay_rel"])

        two = build_space([[0.0, 1.0], [1.0, 0.0]])
        K = np.array([[1.0, 0.5], [0.5, 2.0]])
        k2 = build_kernel(two, None, "matrix", values=K.tolist())
        sigma2 = PointMeasure(np.array([4.0, 1.0]))
        omega2 = PointMeasure(np.array([9.0, 2.0]))
        direct2 = MatrixOperator(k2.matrix, sigma2, omega2)
        A = np.diag(np.sqrt(omega2.masses)) @ K @ np.diag(np.sqrt(sigma2.masses))
        oracle = float(np.linalg.svd(A, compute_uv=False)[0])
        est2 = operator_norm_strong(direct2.apply, sigma2, omega2, 2.0, 2.0,
                                    budget=8, seeds=[np.ones(2)], seed=0)
        assert math.isclose(est2.lower, oracle,
                            rel_tol=TOLERANCES["witness_replay_rel"])
        box.detail = f"forms, hulls, closed-form norms ({est.lower:.9f} = 6)"
