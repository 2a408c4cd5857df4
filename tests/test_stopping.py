import math
from types import SimpleNamespace

import numpy as np
import pytest

from dyadica.dyadic import build_system, maximal_cubes
import dyadica.stopping as stopping
from dyadica.errors import BadParams, CheckFailed
from dyadica.kernel import build_kernel
from dyadica.maximal import MaximalParams, _trial_functions, apply_M_dyadic
from dyadica.norms import lp_norm
from dyadica.operators import build_dyadic_operator
from dyadica.policy import TOLERANCES, CheckReport, guard, require
from dyadica.stopping import (
    build_principal_cubes,
    check_mainlemma,
    check_max_principle_1,
    check_max_principle_2,
    check_universal_maximal,
    decompose_level_set,
    default_C_m,
    rho_grid,
)
from dyadica.space import PointMeasure, generate_space

from conftest import coarse_copy, members, random_masses, with_C_K


def line_operator(space, mu, gamma=0.5, sigma=None, omega=None):
    sys = build_system(space)
    ker = build_kernel(space, mu, "ball_volume_closed", gamma=gamma)
    return build_dyadic_operator(ker, sys, mu if sigma is None else sigma,
                                 mu if omega is None else omega)


class TestDecompose:
    def test_rho_above_max_empty(self, segment16):
        space, mu = segment16
        op = line_operator(space, mu)
        f = np.ones(16)
        rho = float(np.max(op.apply(f))) * 1.01
        dec = decompose_level_set(op, f, rho)
        assert dec.omega_set == ()
        assert dec.q_rho.tolist() == []

    def test_rho_below_min_gives_top(self, segment16):
        space, mu = segment16
        op = line_operator(space, mu)
        f = np.ones(16)
        img = op.apply(f)
        rho = float(np.min(img[mu.masses > 0])) * 0.5
        dec = decompose_level_set(op, f, rho)
        assert len(dec.q_rho) == 1
        assert members(op.system, dec.q_rho[0]) == members(op.system, op.system.top)

    def test_exact_measure_identity(self, segment16):
        space, _ = segment16
        rng = np.random.default_rng(2)
        sigma = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        omega = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        mu = PointMeasure(np.ones(16))
        op = line_operator(space, mu, sigma=sigma, omega=omega)
        f = rng.random(16)
        for rho in rho_grid(op, f)[::3]:
            dec = decompose_level_set(op, f, float(rho))
            total = sum(omega.of(members(op.system, q)) for q in dec.q_rho)
            assert omega.of(dec.omega_set) == total
            seen: set[int] = set()
            for q in dec.q_rho:
                assert not (seen & set(members(op.system, q)))
                seen |= set(members(op.system, q))

    def test_rejects_negative_f(self, segment4):
        space, mu = segment4
        op = line_operator(space, mu)
        with pytest.raises(BadParams):
            decompose_level_set(op, np.array([1.0, -1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(BadParams):
            decompose_level_set(op, np.ones(4), 0.0)

    def test_truncated_sigma_null_gap_is_caught(self, segment16):
        # an omega-positive point inside a coarse leaf can exceed the
        # threshold alone; no cube isolates it, so the omega-mass identity
        # must fail loudly
        space, mu = segment16
        sys = coarse_copy(build_system(space), -1)
        assert len(members(sys, sys.leaf(0))) > 1
        img = np.zeros(16)
        img[0] = 2.0
        fake = SimpleNamespace(apply=lambda f: img, system=sys,
                               omega=PointMeasure(np.ones(16)))
        with pytest.raises(CheckFailed) as err:
            decompose_level_set(fake, np.ones(16), 1.0)
        assert err.value.check == "cover_mass"


def oracle_decomposition(op, f, rho):
    """The level set and its cover by the set-based definition."""
    img = op.apply(f)
    level = {x for x in range(op.n) if img[x] > rho}
    om = op.omega.masses
    sys = op.system
    k, center = sys.cubes.k, sys.cubes.center
    candidates = [c for c in range(len(sys.cubes))
                  if all(x in level or om[x] == 0.0 for x in members(sys, c))]
    coarsest = {}
    for c in candidates:
        m = members(sys, c)
        if m not in coarsest or k[c] < k[coarsest[m]]:
            coarsest[m] = c
    kept = [c for c in coarsest.values()
            if not any(set(members(sys, c)) < set(members(sys, o))
                       for o in coarsest.values())]
    return (tuple(sorted(level)),
            sorted(kept, key=lambda c: (-len(members(sys, c)), k[c], center[c])))


class TestDecomposeOracle:
    @pytest.mark.parametrize("name", ["segment16", "tree27"])
    @pytest.mark.parametrize("depth", [None, 1, 2])
    def test_matches_set_definition(self, request, name, depth):
        # sigma- and omega-null points, on the full window and on coarse
        # copies cut depth generations below the top; there a level-set
        # point alone in a multi-point leaf escapes every cube, and the
        # decomposition raises cover_mass exactly when the set-based cover
        # misses omega mass of the level set
        space, mu = request.getfixturevalue(name)
        sys = build_system(space)
        if depth is not None:
            sys = coarse_copy(sys, sys.k_min + depth)
        rng = np.random.default_rng(31)
        sigma = PointMeasure(random_masses(rng, space.n, zero_fraction=0.3))
        omega = PointMeasure(random_masses(rng, space.n, zero_fraction=0.3))
        op = build_dyadic_operator(
            build_kernel(space, mu, "ball_volume_closed", gamma=0.5),
            sys, sigma, omega)
        raised = False
        for _ in range(3):
            f = rng.random(space.n)
            for rho in rho_grid(op, f):
                level, cover = oracle_decomposition(op, f, rho)
                covered = {x for c in cover for x in members(sys, c)}
                if any(omega.masses[x] > 0 for x in set(level) - covered):
                    with pytest.raises(CheckFailed) as info:
                        decompose_level_set(op, f, float(rho))
                    assert info.value.check == "cover_mass"
                    raised = True
                    continue
                dec = decompose_level_set(op, f, float(rho))
                assert dec.omega_set == level
                assert dec.q_rho.tolist() == cover
                assert np.array_equal(dec.image, op.apply(f))
        coarse = sys.incidence[sys.generation(sys.k_max)].sum(axis=1) > 1
        assert raised == coarse.any()


def oracle_cubes_holding(system, points):
    hit = np.zeros(len(system.cubes), dtype=bool)
    hit[system.label[:, points].ravel()] = True
    return hit


def oracle_decompose(op, f, rho, image=None):
    """The per-threshold decomposition the level sets replaced, with its
    three invariant checks in their order."""
    a = np.asarray(f, dtype=float)
    if np.any(a < 0):
        raise BadParams("need f >= 0")
    if not rho > 0:
        raise BadParams("need rho > 0", rho=rho)
    img = np.asarray(op.apply(a) if image is None else image, dtype=float)
    in_omega = img > rho
    om = op.omega.masses
    ruled_out = oracle_cubes_holding(op.system, ~in_omega & (om > 0.0))
    q = maximal_cubes(op.system, ~ruled_out)
    count = np.zeros(a.size, dtype=int)
    for cube in q:
        count[list(members(op.system, cube))] += 1
    if np.any(count > 1):
        raise CheckFailed("cover_disjoint", "maximal cubes overlap",
                          x=int(np.flatnonzero(count > 1)[0]))
    escaped = ~ruled_out & oracle_cubes_holding(op.system, count == 0)
    if escaped.any():
        c = int(np.flatnonzero(escaped)[0])
        raise CheckFailed("cover_maximal",
                          "candidate cube escapes the maximal cover",
                          k=int(op.system.cubes.k[c]),
                          center=int(op.system.cubes.center[c]))
    lhs = np.where(in_omega, om, 0.0)
    rhs = np.where(count > 0, om, 0.0)
    if not np.array_equal(lhs, rhs):
        x = int(np.flatnonzero(lhs != rhs)[0])
        raise CheckFailed(
            "cover_mass", "level set and its cube cover disagree in omega mass",
            rho=rho, x=x, in_level_set=bool(in_omega[x]))
    return stopping.LevelSetDecomposition(
        rho=rho, omega_set=tuple(int(i) for i in np.flatnonzero(in_omega)),
        q_rho=q, image=img)


def oracle_sweep(op, f, rho, C, localized, violates, image, whole=True):
    """The per-member principle sweep the level sets replaced; whole=False
    applies op on a whole-space cover cube too instead of reading the
    image (on it) or zero (off it)."""
    a = np.asarray(f, dtype=float)
    if not rho > 0:
        raise BadParams("need rho > 0", rho=rho)
    dec = oracle_decompose(op, a, rho / C, image)
    values, witness = [], None
    for cube in dec.q_rho:
        points = members(op.system, cube)
        if whole and len(points) == a.size:
            img = dec.image if localized else np.zeros(a.size)
        else:
            chi = np.zeros(a.size)
            chi[list(points)] = 1.0
            img = np.asarray(op.apply(a * chi if localized
                                      else a * (1.0 - chi)), dtype=float)
        for x in points:
            if localized and not dec.image[x] > rho:
                continue
            val = float(img[x])
            values.append(val)
            if witness is None and violates(val):
                witness = {"k": int(op.system.cubes.k[cube]),
                           "center": int(op.system.cubes.center[cube]), "x": x,
                           "value": val, "bound": rho / 2.0}
    return dec, values, witness


def oracle_principle_1(op, f, rho, C=None, image=None, whole=True):
    C = 2.0 * op.C_K if C is None else C
    bound = rho / 2.0
    dec, values, witness = oracle_sweep(
        op, f, rho, C, False, lambda val: val > guard(bound), image, whole)
    status = "vacuous" if not len(dec.q_rho) else ("fail" if witness else "pass")
    return CheckReport("max_principle_1", status, op.system.strict_delta,
                       witness, {"rho": rho, "C": C, "bound": bound,
                                 "worst": max([-math.inf, *values]),
                                 "cubes": len(dec.q_rho)})


def oracle_principle_2(op, f, rho, C_m=None, image=None, whole=True):
    C_m = default_C_m(op.C_K) if C_m is None else C_m
    bound = rho / 2.0
    floor = bound * (1.0 - TOLERANCES["exact_guard_rel"])
    _, values, witness = oracle_sweep(
        op, f, rho, C_m, True, lambda val: not val > floor, image, whole)
    status = "vacuous" if not values else ("fail" if witness else "pass")
    return CheckReport("max_principle_2", status, op.system.strict_delta,
                       witness, {"rho": rho, "C_m": C_m, "bound": bound,
                                 "worst": min(values) if values else None,
                                 "points": len(values)})


def every_report(check, *args, **kwargs):
    """The reports of an array of thresholds, before check_* reduces them
    to one outcome."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stopping, "_outcome", lambda reports: reports)
        return check(*args, **kwargs)


def oracle_outcome(reports):
    """What a consumer that stops at the first fail reads off reports drawn
    one at a time: the first fail, else the first pass, else the first."""
    reports = list(reports)
    for status in ("fail", "pass", "vacuous"):
        for r in reports:
            if r.status == status:
                return r


SPACES = {
    "segment": lambda n: generate_space("integer_segment_counting", n=n),
    "cloud": lambda n: generate_space("euclidean_random_points", n=n),
    "tree": lambda n: generate_space(
        "ultrametric_tree", ratio=1.0 / 96.0,
        **{16: dict(depth=2, branching=4), 27: dict(depth=3, branching=3),
           64: dict(depth=3, branching=4)}[n]),
}


class TestLevelSetsOracle:
    @pytest.mark.parametrize("kind", sorted(SPACES))
    @pytest.mark.parametrize("n", [16, 27, 64])
    @pytest.mark.parametrize("understated", [False, True])
    def test_every_threshold_matches_the_oracle(self, kind, n, understated):
        # sigma- and omega-null points; an understated C_K (C = C_m = 1)
        # brings proper cover cubes and failing reports at many thresholds
        space, mu = SPACES[kind](n)
        rng = np.random.default_rng(n)
        sigma = PointMeasure(random_masses(rng, n, zero_fraction=0.3))
        omega = PointMeasure(random_masses(rng, n, zero_fraction=0.3))
        op = line_operator(space, mu, sigma=sigma, omega=omega)
        C_m = None
        if understated:
            op, C_m = with_C_K(op, 0.5), 1.0
        statuses = set()
        for _ in range(2):
            f = rng.random(n)
            image = op.apply(f)
            grid = rho_grid(op, f, image)
            want1 = [oracle_principle_1(op, f, rho, image=image)
                     for rho in grid.tolist()]
            want2 = [oracle_principle_2(op, f, rho, C_m, image)
                     for rho in grid.tolist()]
            assert every_report(check_max_principle_1, op, f, grid,
                                image=image) == want1
            assert every_report(check_max_principle_2, op, f, grid, C_m,
                                image) == want2
            assert check_max_principle_1(op, f, grid, image=image) == \
                oracle_outcome(want1)
            assert check_max_principle_2(op, f, grid, C_m, image) == \
                oracle_outcome(want2)
            for rho, r1, r2 in zip(grid.tolist(), want1, want2):
                assert check_max_principle_1(op, f, rho, image=image) == r1
                assert check_max_principle_2(op, f, rho, C_m, image) == r2
                dec = decompose_level_set(op, f, rho, image)
                want = oracle_decompose(op, f, rho)
                assert (dec.rho, dec.omega_set) == (want.rho, want.omega_set)
                assert dec.q_rho.tolist() == want.q_rho.tolist()
                statuses |= {r1.status, r2.status}
        assert statuses >= ({"pass", "fail"} if understated else {"pass"})

    def test_nonpositive_rho_raises_what_the_oracle_raises(self, segment16):
        # alone a nonpositive rho raises what the oracle raises; in a grid
        # the first one raises before any threshold is checked, even after
        # a threshold whose report fails (an understated C_K)
        space, mu = segment16
        op = with_C_K(line_operator(space, mu), 0.5)
        f = np.random.default_rng(4).random(16)
        image = op.apply(f)
        fails = [rho for rho in rho_grid(op, f, image).tolist()
                 if oracle_principle_1(op, f, rho, image=image).status
                 == "fail"]
        assert fails
        grid = np.array(fails[:1] + [0.0, -1.0, 1.0])

        def outcome(run):
            with pytest.raises(BadParams) as info:
                run()
            return str(info.value), info.value.witness

        assert outcome(lambda: decompose_level_set(op, f, -1.0)) == \
            outcome(lambda: oracle_decompose(op, f, -1.0))
        for check, oracle in ((check_max_principle_1, oracle_principle_1),
                              (check_max_principle_2, oracle_principle_2)):
            assert outcome(lambda: check(op, f, -1.0, 1.0)) == \
                outcome(lambda: oracle(op, f, -1.0, 1.0))
            assert outcome(lambda: check(op, f, grid, 1.0, image)) == \
                ("need rho > 0 [rho=0.0]", {"rho": 0.0})

    @pytest.mark.parametrize("walk,message", [
        (lambda parent, chosen: chosen, "maximal cubes overlap"),
        (lambda parent, chosen: chosen & False,
         "candidate cube escapes the maximal cover")])
    def test_broken_walk_raises_what_the_oracle_raises(self, tree27, walk,
                                                       message, monkeypatch):
        # a walk that keeps nested candidates, or none of them, breaks the
        # first or the second invariant; both paths name the same point or
        # cube at the first broken threshold
        import dyadica.dyadic as dyadic

        space, mu = tree27
        op = line_operator(space, mu)
        f = np.random.default_rng(8).random(27)
        grid = rho_grid(op, f)
        for module in (dyadic, stopping):
            monkeypatch.setattr(module, "_maximal_mask", walk)
        raised = []
        for run in (lambda: check_max_principle_1(op, f, grid),
                    lambda: [oracle_principle_1(op, f, rho)
                             for rho in grid.tolist()]):
            with pytest.raises(CheckFailed) as info:
                run()
            raised.append((info.value.check, str(info.value),
                           info.value.witness))
        assert raised[0] == raised[1] and raised[0][1].startswith(message)

    @staticmethod
    def broken_cover():
        # a coarse copy whose leaves are 0..8, 9..17 and 18..26: point 0
        # is in no cube alone, so the cover breaks at thresholds in
        # [2.5, 3), where the level set holds 0 alone.  Below them whole
        # leaves are candidate cubes, and the fake image of f off or on a
        # proper cover cube, 100, fails principle 1 there and passes
        # principle 2.
        space, _ = generate_space("ultrametric_tree", depth=3, branching=3,
                                  ratio=1.0 / 96.0)
        sys = coarse_copy(build_system(space), 0)
        assert [members(sys, sys.leaf(x)) for x in (0, 9, 18)] == \
            [tuple(range(x, x + 9)) for x in (0, 9, 18)]
        f = np.random.default_rng(3).random(27)
        img = np.repeat([2.5, 2.0, 1.0], 9)
        img[0] = 3.0

        def apply(g):
            own = (np.atleast_2d(g) == f).all(axis=1)[:, None]
            return np.where(own, img, 100.0).reshape(np.shape(g))

        return SimpleNamespace(apply=apply, omega=PointMeasure(np.ones(27)),
                               C_K=0.5, system=sys), f, img

    def test_broken_cover_gives_the_rows_the_oracle_gives(self):
        # principle 1 fails below the broken thresholds and principle 2
        # passes there; a sweep over every threshold raises either way, so
        # its stage row is the fail row of the oracle's error at the first
        # broken threshold
        import dyadica.harness as harness

        def row(exc):
            return harness.row("stopping", "fail",
                               witness=harness._error_witness(exc))

        op, f, img = self.broken_cover()
        grid = rho_grid(op, f, img).tolist()
        for check, oracle, C, status in (
                (check_max_principle_1, oracle_principle_1, None, "fail"),
                (check_max_principle_2, oracle_principle_2, 1.0, "pass")):
            before = []
            for rho in grid:
                try:
                    before.append(oracle(op, f, rho, C, img).status)
                except CheckFailed as exc:
                    want = row(exc)
                    break
            assert status in before and len(before) < len(grid)
            with pytest.raises(CheckFailed) as info:
                check(op, f, np.array(grid), C, img)
            assert row(info.value) == want


class TestShellParams:
    def test_smallest_n(self):
        # the smallest power of two that is at least 2 and at least 2 C_K
        assert [default_C_m(c) for c in (1.0, 1.5, 2.0, 3.0, 4.0001)] == \
            [2.0, 4.0, 4.0, 8.0, 16.0]

    def test_invariants(self):
        for C_K in (math.inf, math.nan, 0.5):
            with pytest.raises(BadParams):
                default_C_m(C_K)

    def test_default_is_admissible(self, segment16):
        space, mu = segment16
        op = line_operator(space, mu)
        assert default_C_m(op.C_K) >= 2.0 * op.C_K


class TestMalformedInput:
    @pytest.mark.parametrize("call", [
        lambda op, mu: check_mainlemma(op.system, [0], mu, np.ones(5), 2.0),
        lambda op, mu: build_principal_cubes(op.system, mu, np.ones((2, 8))),
        lambda op, mu: stopping.LevelSets(op, np.ones((2, 16))),
        lambda op, mu: check_max_principle_1(op, np.ones(16), 1.0,
                                             image=np.ones(5)),
        lambda op, mu: rho_grid(op, np.ones(16), image=np.ones(3)),
    ], ids=["mainlemma", "principal_cubes", "level_sets", "principle_1",
            "rho_grid"])
    def test_wrong_shape_raises_bad_params(self, segment16, call):
        space, mu = segment16
        with pytest.raises(BadParams, match="size does not match the space"):
            call(line_operator(space, mu), mu)

    @pytest.mark.parametrize("check", [check_max_principle_1,
                                       check_max_principle_2,
                                       decompose_level_set])
    def test_f_is_refused_before_rho(self, segment4, check):
        space, mu = segment4
        with pytest.raises(BadParams, match="need f >= 0"):
            check(line_operator(space, mu), -np.ones(4), -1.0)


class TestMaxPrinciples:
    def test_zero_f_vacuous(self, segment16):
        space, mu = segment16
        op = line_operator(space, mu)
        rep = check_max_principle_1(op, np.zeros(16), 1.0)
        assert rep.status == "vacuous"
        rep = check_max_principle_2(op, np.zeros(16), 1.0)
        assert rep.status == "vacuous"

    def test_one_point(self):
        space, mu = generate_space("integer_segment_counting", n=1)
        op = line_operator(space, mu)
        f = np.ones(1)
        rho = float(op.apply(f)[0]) * 0.9
        rep1 = check_max_principle_1(op, f, rho)
        assert rep1.ok
        rep2 = check_max_principle_2(op, f, rho)
        assert rep2.ok
        if rep2.status == "pass":
            assert rep2.details["worst"] > rho / 2

    def test_random_sweep(self, segment16):
        space, _ = segment16
        rng = np.random.default_rng(4)
        mu = PointMeasure(np.ones(16))
        sigma = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        omega = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        op = line_operator(space, mu, gamma=0.25, sigma=sigma, omega=omega)
        statuses = set()
        for trial in range(8):
            f = rng.random(16)
            for rho in rho_grid(op, f)[::5]:
                r1 = check_max_principle_1(op, f, float(rho))
                r2 = check_max_principle_2(op, f, float(rho))
                assert r1.ok and r2.ok
                statuses.add(r1.status)
        assert "pass" in statuses

    def test_rejects_small_constants(self, segment4):
        space, mu = segment4
        op = line_operator(space, mu)
        with pytest.raises(BadParams):
            check_max_principle_1(op, np.ones(4), 1.0, C=op.C_K)
        with pytest.raises(BadParams):
            check_max_principle_2(op, np.ones(4), 1.0, C_m=op.C_K)

    def test_witness_names_first_violation(self, segment16):
        # understating C_K lowers the thresholds below what the principles
        # need, so both fail at several points; each witness must name the
        # first of them in q_rho-then-member order, with its bound
        space, mu = segment16
        op = with_C_K(line_operator(space, mu), 0.5)
        f = np.random.default_rng(0).random(16)
        g = 1e-12
        for rho in rho_grid(op, f):
            rho = float(rho)
            # C = 2 C_K = 1 and C_m = 1: both decompose at rho itself
            dec = decompose_level_set(op, f, rho)
            in_omega = op.apply(f) > rho
            first, second = [], []
            k, center = op.system.cubes.k, op.system.cubes.center
            for cube in dec.q_rho:
                chi = np.zeros(16)
                chi[list(members(op.system, cube))] = 1.0
                off_img = op.apply(f * (1.0 - chi))
                on_img = op.apply(f * chi)
                for x in members(op.system, cube):
                    if off_img[x] > rho / 2 * (1 + g):
                        first.append((k[cube], center[cube], x, off_img[x]))
                    if in_omega[x] and not on_img[x] > rho / 2 * (1 - g):
                        second.append((k[cube], center[cube], x, on_img[x]))
            if len(first) >= 2 and len(second) >= 2:
                break
        else:
            pytest.fail("no threshold forces two violations of each")
        rep1 = check_max_principle_1(op, f, rho)
        rep2 = check_max_principle_2(op, f, rho, C_m=1.0)
        for rep, found in ((rep1, first), (rep2, second)):
            k, center, x, value = found[0]
            assert rep.status == "fail"
            assert rep.witness == {"k": k, "center": center, "x": x,
                                   "value": float(value), "bound": rho / 2}

    def test_whole_space_cube_matches_applying_sweep(self, segment16):
        # reference: apply op to f on and off every cover cube, the whole
        # space included; the reports must agree field for field, on passing
        # thresholds and on failing ones (an understated C_K)
        space, mu = segment16
        rng = np.random.default_rng(12)
        sigma = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        good = line_operator(space, mu, sigma=sigma)
        bad = with_C_K(good, 0.5)
        trial, statuses = np.random.default_rng(13), set()
        for op, C_m in ((good, None), (bad, 1.0)):
            f = trial.random(16)
            image = op.apply(f)
            grid = rho_grid(op, f, image)
            reports1 = every_report(check_max_principle_1, op, f, grid,
                                    image=image)
            reports2 = every_report(check_max_principle_2, op, f, grid, C_m,
                                    image)
            for rho, r1, r2 in zip(grid.tolist(), reports1, reports2,
                                   strict=True):
                assert r1 == oracle_principle_1(op, f, rho, image=image,
                                                whole=False)
                assert r2 == oracle_principle_2(op, f, rho, C_m, image,
                                                whole=False)
                statuses |= {r1.status, r2.status}
        assert statuses >= {"pass", "fail"}

    def test_tree(self, tree27):
        space, mu = tree27
        op = line_operator(space, mu, gamma=0.5)
        rng = np.random.default_rng(6)
        f = rng.random(27)
        for rho in rho_grid(op, f)[::7]:
            assert check_max_principle_1(op, f, float(rho)).ok
            assert check_max_principle_2(op, f, float(rho)).ok


class TestPrincipalCubes:
    def test_constant_f_top_only(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        fam = build_principal_cubes(sys, mu, np.full(16, 3.0))
        assert [members(sys, c) for c in fam.cubes] == [members(sys, sys.top)]

    def test_zero_f_top_only(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        fam = build_principal_cubes(sys, mu, np.zeros(16))
        assert [members(sys, c) for c in fam.cubes] == [members(sys, sys.top)]

    def test_zero_sigma_empty(self, segment4):
        space, _ = segment4
        sys = build_system(space)
        fam = build_principal_cubes(sys, PointMeasure(np.zeros(4)), np.ones(4))
        assert fam.cubes.tolist() == []

    def test_point_mass_chain_oracle(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        f = np.zeros(16)
        f[0] = 1.0
        fam = build_principal_cubes(sys, mu, f)
        expected = []
        ref = None
        for cube in sys.label[:, 0]:
            avg = 1.0 / len(members(sys, cube))
            if ref is None or avg > 2.0 * ref:
                expected.append(members(sys, cube))
                ref = avg
        assert [members(sys, c) for c in fam.cubes] == expected

    def test_invariants_replayed_externally(self, segment16):
        space, _ = segment16
        sys = build_system(space)
        rng = np.random.default_rng(8)
        sigma = PointMeasure(random_masses(rng, 16, zero_fraction=0.3))
        f = rng.random(16)
        fam = build_principal_cubes(sys, sigma, f)

        def avg(cube):
            idx = list(members(sys, cube))
            return float(np.sum(f[idx] * sigma.masses[idx])) / sigma.of(idx)

        for outer in fam.cubes:
            for inner in fam.cubes:
                if set(members(sys, inner)) < set(members(sys, outer)):
                    assert avg(inner) > 2.0 * avg(outer)
        for cube in range(len(sys.cubes)):
            if sigma.of(members(sys, cube)) == 0.0:
                continue
            assert avg(cube) <= 2.0 * avg(fam.pi(cube))

    def test_pi_of_principal_is_itself(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        f = np.zeros(16)
        f[3] = 5.0
        fam = build_principal_cubes(sys, mu, f)
        for cube in fam.cubes:
            assert members(sys, fam.pi(cube)) == members(sys, cube)

    def test_rejects_negative(self, segment4):
        space, mu = segment4
        sys = build_system(space)
        with pytest.raises(BadParams):
            build_principal_cubes(sys, mu, np.array([1.0, -2.0, 0.0, 0.0]))

    def test_pi_and_average_take_standard_ids(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        fam = build_principal_cubes(sys, mu, np.ones(16))
        for lookup in (fam.pi, fam.average):
            with pytest.raises(BadParams, match="nonnegative"):
                lookup(-1)
            with pytest.raises(BadParams, match="past this system's cubes"):
                lookup(len(sys.cubes))
        assert fam.pi(len(sys.cubes) - 1) == sys.top

    def test_principal_of_is_the_finest_principal_ancestor(self, tree27):
        space, _ = tree27
        sys = build_system(space)
        rng = np.random.default_rng(12)
        sigma = PointMeasure(random_masses(rng, 27, zero_fraction=0.3))
        f = np.zeros(27)
        f[rng.choice(27, size=4, replace=False)] = rng.random(4) + 1.0
        fam = build_principal_cubes(sys, sigma, f)
        principal = set(fam.cubes.tolist())
        assert len(principal) > 1
        for cube in range(len(sys.cubes)):
            i = cube
            while i >= 0 and i not in principal:
                i = sys.parent[i]
            assert fam.principal_of[cube] == i


class TestMainLemma:
    def test_top_only(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        rep = check_mainlemma(sys, [sys.top], mu, np.ones(16), 2.0)
        assert rep.status == "pass"
        assert rep.details["max_ratio_of_two"] <= 1.0

    def test_principal_families_random(self, segment16):
        space, _ = segment16
        sys = build_system(space)
        rng = np.random.default_rng(10)
        for _ in range(25):
            sigma = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
            f = rng.random(16)
            fam = build_principal_cubes(sys, sigma, f)
            for p in (1.5, 2.0, 4.0):
                assert check_mainlemma(sys, fam.cubes, sigma, f, p).status == "pass"

    def test_duplicate_sets_rejected(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        with pytest.raises(CheckFailed) as err:
            check_mainlemma(sys, [sys.top, sys.top], mu, np.ones(16), 2.0)
        assert err.value.check == "distinct_member_sets"

    def test_null_cube_rejected(self, segment16):
        space, _ = segment16
        sys = build_system(space)
        sigma = PointMeasure(indicator_mass(16, [0]))
        far_leaf = sys.leaf(15)
        with pytest.raises(CheckFailed) as err:
            check_mainlemma(sys, [far_leaf], sigma, np.ones(16), 2.0)
        assert err.value.check == "positive_sigma_mass"

    def test_point_cube_rejected(self, segment16):
        # len(cubes), the id a point cube appended after the last cube
        # would take, names no cube
        space, mu = segment16
        sys = build_system(space)
        with pytest.raises(BadParams, match="past this system's cubes"):
            check_mainlemma(sys, [len(sys.cubes)], mu, np.ones(16), 2.0)

    @pytest.mark.parametrize("i", [-1, -5])
    def test_negative_id_rejected(self, segment16, i):
        # numpy would read id -1 as the last cube
        space, mu = segment16
        sys = build_system(space)
        with pytest.raises(BadParams, match="nonnegative"):
            check_mainlemma(sys, [sys.top, i], mu, np.ones(16), 2.0)

    def test_id_past_the_cubes_rejected(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        with pytest.raises(BadParams, match="past this system's cubes"):
            check_mainlemma(sys, [len(sys.cubes)], mu, np.ones(16), 2.0)

    def test_overshoot_is_a_failed_report(self, segment16, monkeypatch):
        # a maximal function shrunk below the averages breaks the bound at
        # the first point; the report, not an exception, carries it
        space, mu = segment16
        sys = build_system(space)
        real = stopping.apply_M_dyadic
        monkeypatch.setattr(stopping, "apply_M_dyadic",
                            lambda *args, **kw: 0.25 * real(*args, **kw))
        rep = check_mainlemma(sys, [sys.top], mu, np.ones(16), 2.0)
        assert (rep.name, rep.status) == ("mainlemma", "fail")
        assert rep.witness == {"x": 0, "lhs": 1.0, "rhs": 0.125}
        with pytest.raises(CheckFailed) as info:
            require(rep)
        assert info.value.check == "mainlemma"
        assert info.value.witness == rep.witness

    def test_relaxed_system_is_non_strict(self, segment16):
        space, mu = segment16
        sys = build_system(space, delta=0.25)
        assert not sys.strict_delta
        rep = check_mainlemma(sys, [sys.top], mu, np.ones(16), 2.0)
        assert (rep.status, rep.strict_mode) == ("pass", False)

    def test_non_doubling_pair_rejected(self, segment16):
        space, mu = segment16
        sys = build_system(space)
        # the top's child is the whole space again; the first proper cube
        # nests in the top and keeps its average, 1
        child = int(np.argmax(sys.incidence.sum(axis=1) < 16))
        with pytest.raises(CheckFailed) as err:
            check_mainlemma(sys, [sys.top, child], mu, np.ones(16), 2.0)
        assert err.value.check == "strict_doubling"


def indicator_mass(n, points):
    m = np.zeros(n)
    m[list(points)] = 1.0
    return m


class TestUniversalMaximal:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_counting_sweep(self, segment16, p):
        space, mu = segment16
        sys = build_system(space)
        rep = check_universal_maximal(sys, mu, p, trials=40)
        assert rep.status == "pass"
        assert rep.details["max_ratio_of_p_prime"] <= 1.0
        assert rep.details["p_prime"] == p / (p - 1.0)

    def test_weighted(self, segment16):
        space, _ = segment16
        rng = np.random.default_rng(12)
        w = PointMeasure(random_masses(rng, 16, zero_fraction=0.2))
        sys = build_system(space)
        rep = check_universal_maximal(sys, w, 2.0, trials=30)
        assert rep.status == "pass"

    @pytest.mark.parametrize("name", ["segment16", "tree27"])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_block_matches_one_trial_at_a_time(self, request, name, p):
        # the loop the block replaced: one apply_M_dyadic and two lp_norm
        # calls per trial, stopping at the first overshoot
        space, _ = request.getfixturevalue(name)
        w = PointMeasure(random_masses(np.random.default_rng(7), space.n,
                                       zero_fraction=0.2))
        sys = build_system(space)
        params = MaximalParams(space=space, mu=w, gamma=0.0)
        worst, p_prime = 0.0, p / (p - 1.0)
        for t, f in enumerate(_trial_functions(space.n, 40,
                                               stopping.STOPPING_SALT, 3)):
            lhs = lp_norm(apply_M_dyadic(sys, params, f), w, p)
            rhs = p_prime * lp_norm(f, w, p)
            assert not lhs > guard(rhs)
            if rhs > 0.0:
                worst = max(worst, lhs / rhs)
        rep = check_universal_maximal(sys, w, p, trials=40, seed=3)
        assert rep.details == {"p": p, "p_prime": p_prime, "trials": 40,
                               "max_ratio_of_p_prime": worst}

    def test_bad_exponent(self, segment4):
        space, mu = segment4
        sys = build_system(space)
        for p in (1.0, math.inf):
            with pytest.raises(BadParams, match="1 < p < inf"):
                check_universal_maximal(sys, mu, p, trials=2)

    def test_overshoot_is_a_failed_report(self, segment16, monkeypatch):
        # a maximal function inflated past p' fails on the first trial,
        # the constant function, and the report carries that witness
        space, mu = segment16
        sys = build_system(space)
        real = stopping.apply_M_dyadic
        monkeypatch.setattr(stopping, "apply_M_dyadic",
                            lambda *args, **kw: 4.0 * real(*args, **kw))
        rep = check_universal_maximal(sys, mu, 2.0, trials=5)
        assert rep.status == "fail"
        assert rep.witness["trial"] == 0
        assert rep.witness["p_prime"] == 2.0
        assert rep.witness["lhs"] > rep.witness["rhs"]
        with pytest.raises(CheckFailed) as info:
            require(rep)
        assert info.value.check == "universal_maximal"
        assert info.value.witness == rep.witness


class TestRhoGrid:
    def test_composition(self, segment4):
        space, mu = segment4
        op = line_operator(space, mu)
        f = np.ones(4)
        img = op.apply(f)
        grid = rho_grid(op, f)
        vals = np.unique(img[img > 0])
        assert set(np.concatenate([0.5 * vals, vals, 2.0 * vals])) == set(grid)

    def test_zero_image(self, segment4):
        space, mu = segment4
        op = line_operator(space, mu)
        assert list(rho_grid(op, np.zeros(4))) == [1.0]
