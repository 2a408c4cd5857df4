import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica.dyadic import (
    PROPERTY_NAMES,
    _nearest,
    build_adjacent_systems,
    build_system,
    check_ball_coverage,
    check_system,
    coverage_bound,
    dyadic_parameters,
    generalize,
    maximal_cubes,
    replay_coverage,
)
from dyadica.errors import BadParams
from dyadica.space import PointMeasure, build_space, generate_space

from conftest import coarse_copy, members, random_masses


class TestParameters:
    def test_metric_constants(self):
        delta, c1, C1, strict = dyadic_parameters(1.0)
        assert delta == 1.0 / 96.0
        assert c1 == 1.0 / 12.0
        assert C1 == 4.0
        assert strict

    def test_snowflake_constants(self):
        delta, c1, C1, strict = dyadic_parameters(2.0)
        assert delta == 1.0 / (96.0 * 64.0)
        assert c1 == 1.0 / 192.0
        assert C1 == 16.0
        assert strict

    def test_relaxed_delta_flagged(self):
        _, _, _, strict = dyadic_parameters(1.0, delta=0.25)
        assert not strict

    def test_delta_domain(self):
        with pytest.raises(BadParams):
            dyadic_parameters(1.0, delta=1.0)
        with pytest.raises(BadParams):
            dyadic_parameters(1.0, delta=0.0)


class TestWindow:
    def test_segment16_window(self, segment16):
        space, _ = segment16
        sys = build_system(space)
        assert (sys.k_min, sys.k_max) == (-2, 1)
        # coarse generations collapse to the whole space, fine ones split fully
        assert len(sys.cubes.k[sys.generation(-2)]) == 1
        assert len(sys.cubes.k[sys.generation(-1)]) == 1
        assert members(sys, sys.top) == tuple(range(16))
        assert all(sys.incidence[sys.generation(0)].sum(axis=1) == 1)
        assert all(sys.incidence[sys.generation(1)].sum(axis=1) == 1)

    def test_snowflake_window(self, snowflake8):
        space, _ = snowflake8
        sys = build_system(space)
        assert (sys.k_min, sys.k_max) == (-2, 1)

    def test_tree_window_and_levels(self, tree27):
        space, _ = tree27
        sys = build_system(space)
        assert (sys.k_min, sys.k_max) == (-1, 3)
        counts = [len(sys.cubes.k[sys.generation(k)]) for k in sys.generation_range()]
        assert counts == [1, 3, 9, 27, 27]

    def test_tree_branch_cubes(self, tree27):
        space, _ = tree27
        sys = build_system(space)
        ids = range(len(sys.cubes))
        branches = sorted(members(sys, i) for i in ids[sys.generation(0)])
        assert branches == [tuple(range(0, 9)), tuple(range(9, 18)),
                            tuple(range(18, 27))]
        subtrees = sorted(members(sys, i) for i in ids[sys.generation(1)])
        assert subtrees == [tuple(range(3 * i, 3 * i + 3)) for i in range(9)]

    def test_single_point_space(self):
        space, _ = generate_space("integer_segment_counting", n=1)
        sys = build_system(space)
        assert sys.k_min == sys.k_max
        assert members(sys, sys.top) == (0,)


class TestProperties:
    @pytest.mark.parametrize("fixture", ["segment16", "snowflake8", "tree27"])
    def test_all_properties_strict(self, fixture, request):
        space, _ = request.getfixturevalue(fixture)
        sys = build_system(space)
        reports = check_system(sys)
        assert [r.name for r in reports] == list(PROPERTY_NAMES)
        assert all(r.status == "pass" for r in reports)
        assert all(r.strict_mode for r in reports)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_properties_on_random_spaces(self, seed):
        space, _ = generate_space("euclidean_random_points", seed=seed, n=18, dim=2)
        sys = build_system(space, seed=seed)
        assert all(r.ok for r in check_system(sys))

    def test_relaxed_delta_reports_non_strict(self, segment16):
        space, _ = segment16
        # delta=1/8 still small enough for the line to build cleanly
        sys = build_system(space, delta=1.0 / 8.0)
        assert not sys.strict_delta
        reports = check_system(sys)
        assert all(not r.strict_mode for r in reports)

    def test_reports_are_kept_on_the_system(self, segment16):
        sys = build_system(segment16[0])
        kept = sys.property_reports
        assert sys.property_reports is kept
        fresh = check_system(sys)
        assert [(r.name, r.status, r.details) for r in fresh] == \
            [(r.name, r.status, r.details) for r in kept]
        assert all(a is not b for a, b in zip(fresh, kept))


class TestNavigation:
    def test_chain_is_nested(self, tree27):
        space, _ = tree27
        sys = build_system(space)
        for x in (0, 13, 26):
            chain = sys.label[:, x]
            assert [sys.cubes.k[c] for c in chain] == list(sys.generation_range())
            for coarse, fine in zip(chain, chain[1:]):
                assert set(members(sys, fine)) <= set(members(sys, coarse))
                assert x in members(sys, fine)

    def test_parent_children_inverse(self, tree27):
        space, _ = tree27
        sys = build_system(space)
        for cube in range(len(sys.cubes)):
            for child in sys.children(cube):
                assert sys.parent[child] == cube
            if sys.cubes.k[cube] < sys.k_max:
                got = sorted(m for ch in sys.children(cube) for m in members(sys, ch))
                assert got == list(members(sys, cube))

    def test_parent_of_top(self, segment16):
        space, _ = segment16
        sys = build_system(space)
        assert sys.parent[sys.top] == -1

    def test_containing_cube_out_of_window(self, segment16):
        space, _ = segment16
        sys = build_system(space)
        with pytest.raises(BadParams, match="generation outside the window"):
            sys.containing_cube(sys.k_max + 1, 0)

    def test_smallest_common_cube_line(self, segment16):
        space, _ = segment16
        sys = build_system(space)
        # generations -2 and -1 are both the whole space; the finest shared
        # cube for distant points is the generation -1 copy
        q = sys.smallest_common_cube(0, 15)
        assert sys.cubes.k[q] == -1
        assert members(sys, q) == tuple(range(16))

    def test_smallest_common_cube_tree(self, tree27):
        space, _ = tree27
        sys = build_system(space)
        assert sys.cubes.k[sys.smallest_common_cube(0, 1)] == 1
        assert sys.cubes.k[sys.smallest_common_cube(0, 4)] == 0
        assert sys.cubes.k[sys.smallest_common_cube(0, 10)] == -1

    def test_same_point_rejected(self, segment16):
        space, _ = segment16
        sys = build_system(space)
        with pytest.raises(BadParams, match="distinct points"):
            sys.smallest_common_cube(3, 3)

    def test_leaves_are_singletons(self, tree27):
        space, _ = tree27
        sys = build_system(space)
        for x in space.points():
            assert members(sys, sys.leaf(x)) == (x,)


def same_cubes(a, b):
    return all(np.array_equal(getattr(a.cubes, col), getattr(b.cubes, col))
               for col in ("k", "center", "diameter"))


class TestNearest:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_same_choice_as_the_lexsort_loop(self, seed):
        # integer distances tie often; each tie goes to the lowest rank
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        d = rng.integers(0, 4, size=(n, n)).astype(float)
        rank = rng.permutation(n)
        rows = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        net = list(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        want = [net[np.lexsort((rank[net], d[x, net]))[0]] for x in rows]
        assert _nearest(d, rank, rows, net).tolist() == want


class TestDeterminism:
    def test_same_seed_same_cubes(self):
        space, _ = generate_space("euclidean_random_points", seed=5, n=20, dim=2)
        s1 = build_system(space, seed=11)
        s2 = build_system(space, seed=11)
        assert same_cubes(s1, s2)
        assert np.array_equal(s1.label, s2.label)

    def test_different_seed_varies(self):
        space, _ = generate_space("euclidean_random_points", seed=5, n=20, dim=2)
        s1 = build_system(space, seed=11)
        s2 = build_system(space, seed=12)
        assert not same_cubes(s1, s2) or not np.array_equal(s1.label, s2.label)


class TestCoverage:
    def test_segment_single_system(self, segment16):
        space, _ = segment16
        fam = build_adjacent_systems(space, num_systems=1)
        cert = fam.certificate
        assert cert.num_systems == 1
        assert cert.observed_C <= cert.C_bound
        assert cert.r_large_ok and cert.r_small_ok
        assert replay_coverage(fam.systems, cert)

    def test_tree_coverage(self, tree27):
        space, _ = tree27
        fam = build_adjacent_systems(space)
        assert fam.certificate.observed_C <= fam.certificate.C_bound
        assert replay_coverage(fam.systems, fam.certificate)

    def test_euclidean_adaptive(self):
        space, _ = generate_space("euclidean_random_points", seed=3, n=24, dim=2)
        fam = build_adjacent_systems(space, max_systems=12)
        assert 1 <= len(fam) <= 12
        assert fam.certificate.observed_C <= fam.certificate.C_bound
        assert replay_coverage(fam.systems, fam.certificate)

    def test_bound_formula(self):
        assert coverage_bound(1.0, 1.0 / 96.0) == 8.0 * 96.0**2

    def test_tampered_certificate_fails(self, segment16):
        space, _ = segment16
        fam = build_adjacent_systems(space, num_systems=1)
        rows = fam.certificate.entries
        # swap the last row's fine singleton cube in for the first row's
        assert rows.cube_k[-1] != rows.cube_k[0]
        bad = forged(fam.certificate, **{
            c: set_at(getattr(rows, c), 0, getattr(rows, c)[-1])
            for c in ("cube_k", "cube_center", "diameter")})
        assert not replay_coverage(fam.systems, bad)

    def test_mismatched_windows_rejected(self, segment16, tree27):
        s1 = build_system(segment16[0])
        s2 = build_system(tree27[0])
        with pytest.raises(BadParams):
            check_ball_coverage([s1, s2])
        cert = build_adjacent_systems(segment16[0], num_systems=1).certificate
        assert not replay_coverage([s1, s2], cert)

    def test_columns_are_read_only(self, segment16):
        rows = build_adjacent_systems(segment16[0]).certificate.entries
        for c in COLUMNS:
            with pytest.raises(ValueError):
                getattr(rows, c)[0] = 0


# ---------------------------------------------------------------------------
# the coverage certificate against the per-regime loop it replaced
# ---------------------------------------------------------------------------

COLUMNS = ("x", "band_k", "lo", "hi", "t", "cube_k", "cube_center",
           "diameter")


def coverage_loop(systems):
    """The per-regime reference: (witness, columns, observed_C) with the
    first failing regime's witness, or None and the certificate's columns.
    For each center, band and regime it tries the containing cubes from the
    band generation up, system by system, on the ball's member list."""
    base = systems[0]
    space, delta, k_min = base.space, base.delta, base.k_min
    C = coverage_bound(space.a0, delta)
    d = space.dist
    rows, observed = [], 0.0
    for x in range(space.n):
        dist_vals = np.unique(d[x])
        for k in range(k_min, base.k_max + 1):
            lo_edge, hi_edge = delta ** (k + 2), delta ** (k + 1)
            interior = dist_vals[(dist_vals > lo_edge) & (dist_vals < hi_edge)]
            edges = [lo_edge, *[float(a) for a in interior], hi_edge]
            for lo, hi in zip(edges[:-1], edges[1:]):
                ball = np.flatnonzero(d[x] <= lo)
                hit = next(((t, gi, s.label[gi, x]) for t, s in enumerate(systems)
                            for gi in range(k - k_min, -1, -1)
                            if s.cubes.diameter[s.label[gi, x]] <= C * lo
                            and np.all(s.label[gi, ball] == s.label[gi, x])), None)
                if hit is None:
                    return ({"x": x, "band_k": k, "lo": lo,
                             "members": ball.tolist()}, None, None)
                t, gi, i = hit
                diam = float(systems[t].cubes.diameter[i])
                rows.append((x, k, lo, hi, t, k_min + gi,
                             int(systems[t].cubes.center[i]), diam))
                if lo > 0:
                    observed = max(observed, diam / lo)
    return None, dict(zip(COLUMNS, map(np.array, zip(*rows)))), observed


ORACLE_SPACES = {
    "segment16": ("integer_segment_counting", dict(n=16)),
    "segment64": ("integer_segment_counting", dict(n=64)),
    "cloud16": ("euclidean_random_points", dict(n=16, dim=2)),
    "cloud64": ("euclidean_random_points", dict(n=64, dim=2)),
    "tree16": ("ultrametric_tree", dict(depth=4, branching=2)),
    "tree27": ("ultrametric_tree", dict(depth=3, branching=3)),
}


def forged(cert, observed_C=None, **columns):
    """cert with some table columns replaced and observed_C recomputed from
    the new rows unless given."""
    rows = dataclasses.replace(cert.entries, **columns)
    if observed_C is None:
        observed_C = float(np.max(rows.diameter / rows.lo))
    return dataclasses.replace(cert, entries=rows, observed_C=observed_C)


def take_rows(cert, rows, observed_C=None):
    """cert keeping the table rows ``rows`` in the order given."""
    return forged(cert, observed_C, **{c: getattr(cert.entries, c)[rows]
                                       for c in COLUMNS})


def set_at(column, r, value):
    out = np.array(column)
    out[r] = value
    return out


class TestCoverageOracle:
    @pytest.mark.parametrize("delta", [None, 0.25])
    @pytest.mark.parametrize("num_systems", [1, 2, 3])
    @pytest.mark.parametrize("name", ORACLE_SPACES)
    def test_same_certificate_as_the_loop(self, name, num_systems, delta):
        kind, params = ORACLE_SPACES[name]
        space, _ = generate_space(kind, seed=4, **params)
        systems = [build_system(space, seed=4, delta=delta, system_id=t)
                   for t in range(num_systems)]
        report, cert = check_ball_coverage(systems)
        witness, columns, observed = coverage_loop(systems)
        assert witness is None and report.status == "pass"
        assert len(cert.entries) == columns["x"].size == report.details["entries"]
        for c in COLUMNS:
            got = getattr(cert.entries, c)
            assert got.dtype.kind == columns[c].dtype.kind
            assert np.array_equal(got, columns[c]), c
        assert cert.observed_C == observed
        assert replay_coverage(systems, cert)

    def test_same_witness_when_a_coarse_cube_grows(self, segment16):
        sys = build_system(segment16[0])
        diameter = sys.cubes.diameter.copy()
        diameter[sys.top] = np.inf  # the whole space no longer certifies
        grown = dataclasses.replace(
            sys, cubes=dataclasses.replace(sys.cubes, diameter=diameter))
        report, cert = check_ball_coverage([grown])
        witness, _, _ = coverage_loop([grown])
        assert witness is not None and cert is None
        assert report.status == "fail"
        assert report.witness == witness


    def test_a_diameter_of_exactly_C_lo_still_certifies(self, segment16):
        sys = build_system(segment16[0])
        rows = check_ball_coverage([sys])[1].entries
        # the last row certified below the top, with its cube grown to C * lo
        r = int(np.flatnonzero(rows.cube_k > sys.k_min)[-1])
        i = sys.containing_cube(int(rows.cube_k[r]), int(rows.cube_center[r]))
        diameter = sys.cubes.diameter.copy()
        diameter[i] = coverage_bound(sys.space.a0, sys.delta) * rows.lo[r]
        grown = dataclasses.replace(
            sys, cubes=dataclasses.replace(sys.cubes, diameter=diameter))
        _, cert = check_ball_coverage([grown])
        _, columns, observed = coverage_loop([grown])
        assert cert.entries.cube_k[r] == rows.cube_k[r]
        for c in COLUMNS:
            assert np.array_equal(getattr(cert.entries, c), columns[c]), c
        assert cert.observed_C == observed


class TestReplayRefusesForgeries:
    @pytest.fixture
    def family(self, segment16):
        fam = build_adjacent_systems(segment16[0], num_systems=1)
        assert replay_coverage(fam.systems, fam.certificate)
        return fam

    def refuses(self, family, cert):
        return not replay_coverage(family.systems, cert)

    def test_empty(self, family):
        assert self.refuses(family, dataclasses.replace(family.certificate,
                                                        entries=()))

    @pytest.mark.parametrize("observed_C", [0.0, None])
    def test_truncated(self, family, observed_C):
        assert self.refuses(family, take_rows(family.certificate, slice(0, 5),
                                              observed_C))

    def test_one_row_dropped(self, family):
        rows = np.delete(np.arange(len(family.certificate.entries)), 7)
        assert self.refuses(family, take_rows(family.certificate, rows))

    def test_two_rows_swapped(self, family):
        rows = np.arange(len(family.certificate.entries))
        rows[[3, 4]] = rows[[4, 3]]
        assert self.refuses(family, take_rows(family.certificate, rows))

    def test_observed_lowered(self, family):
        cert = family.certificate
        assert self.refuses(family, dataclasses.replace(
            cert, observed_C=cert.observed_C / 2))

    def test_num_systems_wrong(self, family):
        assert self.refuses(family, dataclasses.replace(family.certificate,
                                                        num_systems=2))

    def test_bound_raised(self, family):
        cert = family.certificate
        assert self.refuses(family, dataclasses.replace(
            cert, C_bound=2 * cert.C_bound))

    @pytest.mark.parametrize("t", [1, -1])
    def test_wrong_system(self, family, t):
        rows = family.certificate.entries
        assert self.refuses(family, forged(family.certificate,
                                           t=set_at(rows.t, 0, t)))

    def test_cube_misses_a_ball_member(self, family):
        sys, rows = family[0], family.certificate.entries
        d = sys.space.dist
        # the first row whose ball holds two points, named by x's leaf {x}
        r = int(np.argmax([(d[x] <= lo).sum() >= 2
                           for x, lo in zip(rows.x, rows.lo)]))
        x = int(rows.x[r])
        leaf = sys.leaf(x)
        assert (d[x] <= rows.lo[r]).sum() >= 2 and members(sys, leaf) == (x,)
        assert self.refuses(family, forged(
            family.certificate, cube_k=set_at(rows.cube_k, r, sys.k_max),
            cube_center=set_at(rows.cube_center, r, x),
            diameter=set_at(rows.diameter, r, 0.0)))

    def test_cube_misses_the_ball_center(self, family):
        sys, rows = family[0], family.certificate.entries
        # a one-point ball named by another point's leaf, also one point
        r = int(np.flatnonzero(rows.cube_k == sys.k_max)[0])
        x, y = int(rows.x[r]), (int(rows.x[r]) + 1) % sys.space.n
        assert members(sys, sys.leaf(x)) == (x,) and members(sys, sys.leaf(y)) == (y,)
        assert self.refuses(family, forged(
            family.certificate, cube_center=set_at(rows.cube_center, r, y)))

    def test_diameter_mismatch(self, family):
        rows = family.certificate.entries
        r = int(np.flatnonzero(rows.diameter > 0)[0])
        assert self.refuses(family, forged(
            family.certificate,
            diameter=set_at(rows.diameter, r, rows.diameter[r] / 2)))

    def test_diameter_above_the_bound(self, family):
        sys, cert = family[0], family.certificate
        rows = cert.entries
        # the smallest ball of the finest band, named by the whole space
        r = int(np.flatnonzero(rows.band_k == sys.k_max)[0])
        top = sys.top
        assert sys.cubes.diameter[top] > cert.C_bound * rows.lo[r]
        assert self.refuses(family, forged(
            cert, cube_k=set_at(rows.cube_k, r, sys.k_min),
            cube_center=set_at(rows.cube_center, r, sys.cubes.center[top]),
            diameter=set_at(rows.diameter, r, sys.cubes.diameter[top])))

    def test_center_not_a_center_at_its_generation(self, family):
        sys, rows = family[0], family.certificate.entries
        r = int(np.flatnonzero(rows.cube_k == sys.k_min)[0])
        centers = sys.cubes.center[sys.generation(sys.k_min)]
        y = int(np.setdiff1d(np.arange(sys.space.n), centers)[0])
        assert sys.containing_cube(sys.k_min, y) == \
            sys.containing_cube(sys.k_min, int(rows.cube_center[r]))
        assert self.refuses(family, forged(
            family.certificate, cube_center=set_at(rows.cube_center, r, y)))


class TestPinnedPoint:
    @pytest.mark.parametrize("x0", [0, 7, 15])
    def test_pinned_point_centers_every_generation(self, segment16, x0):
        space, _ = segment16
        sys = build_system(space, x0=x0)
        assert sys.x0 == x0
        d = space.dist
        for k in sys.generation_range():
            cube = sys.containing_cube(k, x0)
            assert sys.cubes.center[cube] == x0
            inner = set(np.flatnonzero(d[x0] < sys.c1 * sys.delta**k))
            outer = set(np.flatnonzero(d[x0] < sys.C1 * sys.delta**k))
            assert inner <= set(members(sys, cube)) <= outer

    def test_pinned_point_on_random_space(self):
        space, _ = generate_space("euclidean_random_points", seed=42, n=14, dim=2)
        sys = build_system(space, x0=9)
        for k in sys.generation_range():
            assert sys.cubes.center[sys.containing_cube(k, 9)] == 9

    def test_pin_out_of_range(self, segment16):
        space, _ = segment16
        with pytest.raises(BadParams, match="x0"):
            build_system(space, x0=16)

    def test_pin_is_deterministic(self, segment16):
        space, _ = segment16
        a = build_system(space, x0=7)
        b = build_system(space, x0=7)
        assert np.array_equal(a.label, b.label)


class TestSeparationClause:
    @pytest.mark.parametrize("fixture", ["segment16", "tree27"])
    def test_far_points_split_next_generation(self, fixture, request):
        # points at distance >= delta^k never share a generation-(k+1) cube
        space, _ = request.getfixturevalue(fixture)
        sys = build_system(space)
        d = space.dist
        for k in range(sys.k_min, sys.k_max):
            gi = k + 1 - sys.k_min
            sep = sys.delta**k
            for x in range(space.n):
                for y in range(x + 1, space.n):
                    if d[x, y] >= sep:
                        assert sys.label[gi, x] != sys.label[gi, y]


class TestGeneralize:
    def test_counting_has_no_point_cubes(self, segment16):
        space, mu = segment16
        assert generalize(build_system(space), mu, mu) == tuple(range(16))

    def test_joint_atoms_intersect_supports(self, segment16):
        space, _ = segment16
        sigma = PointMeasure(np.where(np.arange(16) < 8, 1.0, 0.0))
        omega = PointMeasure(np.where(np.arange(16) % 2 == 0, 3.0, 0.0))
        assert generalize(build_system(space), sigma, omega) == (0, 2, 4, 6)

    def test_point_cubes_only_at_joint_atoms(self, tree27):
        # the point cube {5} at the one joint atom is 5's finest cube
        space, mu = tree27
        sys = build_system(space)
        omega = PointMeasure(np.where(np.arange(27) == 5, 1.0, 0.0))
        assert generalize(sys, mu, omega) == (5,)
        assert members(sys, sys.leaf(5)) == (5,)

    @pytest.mark.parametrize("delta", [None, 0.25])
    @pytest.mark.parametrize("x0", [None, 0])
    @pytest.mark.parametrize("kind,params", [
        ("integer_segment_counting", dict(n=16)),
        ("euclidean_random_points", dict(n=18)),
        ("snowflake_power", dict(n=8, power=2.0)),
        ("ultrametric_tree", dict(depth=3, branching=3, ratio=1.0 / 96.0))])
    def test_finest_cubes_are_the_point_cubes(self, kind, params, x0, delta):
        # every finest cube is a singleton, so each joint atom's point cube
        # is already a standard cube
        space, _ = generate_space(kind, **params)
        sys = build_system(space, delta=delta, x0=x0)
        finest = sys.incidence[sys.generation(sys.k_max)]
        assert finest.sum(axis=1).tolist() == [1] * space.n
        assert finest.any(axis=0).all()
        rng = np.random.default_rng(space.n)
        sigma, omega = (PointMeasure(random_masses(rng, space.n, 0.4))
                        for _ in range(2))
        both = [x for x in range(space.n)
                if sigma.masses[x] > 0 and omega.masses[x] > 0]
        assert generalize(sys, sigma, omega) == tuple(both)

    def test_measure_size_mismatch(self, segment16):
        space, _ = segment16
        with pytest.raises(BadParams):
            generalize(build_system(space), PointMeasure(np.ones(4)),
                       PointMeasure(np.ones(16)))


def brute_maximal(system, cubes):
    k, center = system.cubes.k, system.cubes.center
    best = {}
    for c in cubes:
        m = members(system, c)
        if m not in best or k[c] < k[best[m]]:
            best[m] = c
    cands = list(best.values())
    out = [c for c in cands
           if not any(set(members(system, c)) < set(members(system, o))
                      for o in cands)]
    return sorted(out, key=lambda c: (-len(members(system, c)), k[c], center[c]))


def mask(system, cubes):
    chosen = np.zeros(len(system.cubes), dtype=bool)
    chosen[list(cubes)] = True
    return chosen


class TestMaximalCubes:
    def test_empty(self, tree27):
        sys = build_system(tree27[0])
        assert maximal_cubes(sys, mask(sys, [])).tolist() == []

    def test_duplicate_sets_keep_coarsest(self, tree27):
        space, _ = tree27
        sys = build_system(space)
        fine = sys.containing_cube(sys.k_max, 4)
        coarse = sys.containing_cube(sys.k_max - 1, 4)
        assert members(sys, fine) == members(sys, coarse)  # both singleton generations
        got = maximal_cubes(sys, mask(sys, [fine, coarse]))
        assert got.tolist() == [coarse]

    def test_matches_brute_force(self, tree27):
        # the full window, whose finest two generations are both
        # singletons, and a coarse copy whose finest cubes are not
        full = build_system(tree27[0])
        for sys in (full, coarse_copy(full, full.k_max - 2)):
            rng = np.random.default_rng(17)
            k, center = sys.cubes.k, sys.cubes.center
            for _ in range(25):
                coll = rng.integers(0, len(sys.cubes),
                                    size=rng.integers(1, 18)).tolist()
                got = maximal_cubes(sys, mask(sys, coll))
                want = brute_maximal(sys, coll)
                assert [(k[c], center[c], members(sys, c)) for c in got] == \
                       [(k[c], center[c], members(sys, c)) for c in want]

    def test_outputs_disjoint_and_cover_inputs(self, tree27):
        space, _ = tree27
        sys = build_system(space)
        coll = [c for c in range(len(sys.cubes)) if sys.cubes.k[c] >= sys.k_min + 1]
        got = maximal_cubes(sys, mask(sys, coll))
        seen = [set(members(sys, c)) for c in got]
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                assert not (seen[i] & seen[j])
        for c in coll:
            owners = [o for o in seen if set(members(sys, c)) <= o]
            assert len(owners) == 1

    def test_size_orders_before_generation(self):
        # a coarse singleton beside finer pairs: the pairs, though finer and
        # later by id, come first in (-size, k, center) order
        x = np.array([0.0, 96.0**3, 96.0**3 + 1, 97 * 96.0**2,
                      97 * 96.0**2 + 1])
        sys = build_system(build_space(np.abs(x[:, None] - x[None, :])))
        single = sys.containing_cube(sys.k_min + 1, 0)
        pair = sys.containing_cube(sys.k_min + 2, 1)
        assert (len(members(sys, single)), len(members(sys, pair))) == (1, 2) \
            and single < pair
        assert maximal_cubes(sys, mask(sys, [single, pair])).tolist() == [pair, single]
        rng = np.random.default_rng(5)
        for _ in range(40):
            coll = [c for c in range(len(sys.cubes)) if rng.random() < 0.3]
            got = maximal_cubes(sys, mask(sys, coll))
            assert got.tolist() == brute_maximal(sys, coll)

    def test_mask_size_mismatch(self, tree27):
        sys = build_system(tree27[0])
        with pytest.raises(BadParams):
            maximal_cubes(sys, np.ones(len(sys.cubes) + 1, dtype=bool))


# ---------------------------------------------------------------------------
# the structural checks on corrupted copies: one column changed each
# ---------------------------------------------------------------------------

def move_label_up(s):
    """Point 0's finest label names point 1's cube one generation up."""
    label = s.label.copy()
    label[-1, 0] = s.containing_cube(s.k_max - 1, 1)
    return dataclasses.replace(s, label=label)


def move_label_to_sibling(s):
    """Point 0 leaves its singleton leaf for point 1's."""
    label = s.label.copy()
    label[-1, 0] = s.leaf(1)
    return dataclasses.replace(s, label=label)


def move_parent(s):
    """Point 0's generation-1 cube hangs under the branch of point 9."""
    parent = s.parent.copy()
    parent[s.containing_cube(1, 0)] = s.containing_cube(0, 9)
    return dataclasses.replace(s, parent=parent)


def swap_centers(k, x, y):
    """The centers of the generation-k cubes of x and y trade places."""
    def corrupt(s):
        center = s.cubes.center.copy()
        i, j = s.containing_cube(k, x), s.containing_cube(k, y)
        center[[i, j]] = center[[j, i]]
        return dataclasses.replace(
            s, cubes=dataclasses.replace(s.cubes, center=center))
    return corrupt


CORRUPTIONS = {
    "label_up": move_label_up,
    "label_sibling": move_label_to_sibling,
    "parent": move_parent,
    "centers_k1": swap_centers(1, 0, 9),
    "centers_k3": swap_centers(3, 0, 26),
}


def loop_checks(s):
    """The five checks as per-cube loops over member lists, in id order."""
    d, k, center = s.space.dist, s.cubes.k, s.cubes.center
    ids = range(len(s.cubes))
    out = {}
    seen = np.zeros((s.num_generations, s.space.n), dtype=int)
    for i in ids:
        for x in members(s, i):
            seen[k[i] - s.k_min, x] += 1
    bad = np.argwhere(seen != 1)
    out["partition"] = None if not bad.size else {
        "k": s.k_min + int(bad[0][0]), "x": int(bad[0][1]),
        "multiplicity": int(seen[tuple(bad[0])])}
    out["nesting"] = None
    for i in ids:
        if k[i] == s.k_min:
            continue
        owners = np.unique(s.label[k[i] - 1 - s.k_min, list(members(s, i))])
        if owners.size != 1 or owners[0] != s.parent[i]:
            out["nesting"] = {"k": k[i], "center": center[i],
                              "owners": [center[o] for o in owners]}
            break
    out["ball_sandwich"] = None
    for i in ids:
        inner = set(np.flatnonzero(d[center[i]] < s.c1 * s.delta**int(k[i])))
        outer = set(np.flatnonzero(d[center[i]] < s.C1 * s.delta**int(k[i])))
        mem = set(members(s, i))
        if not inner <= mem:
            out["ball_sandwich"] = {"k": k[i], "center": center[i],
                                    "side": "inner",
                                    "missing": sorted(inner - mem)}
            break
        if not mem <= outer:
            out["ball_sandwich"] = {"k": k[i], "center": center[i],
                                    "side": "outer",
                                    "excess": sorted(mem - outer)}
            break
    out["outer_ball_nesting"] = None
    for i in ids:
        up = s.parent[i]
        if up < 0:
            continue
        inner = np.flatnonzero(d[center[i]] < s.outer_ball_radius(int(k[i])))
        ok = d[center[up], inner] < s.outer_ball_radius(int(k[up]))
        if not ok.all():
            out["outer_ball_nesting"] = {"k": k[i], "center": center[i],
                                         "parent_center": center[up],
                                         "escapes": int(inner[~ok][0])}
            break
    out["center_chain"] = None
    for i in ids:
        if k[i] == s.k_max:
            continue
        z = center[i]
        own = s.containing_cube(int(k[i]) + 1, z)
        finer = {center[j] for j in ids if k[j] == k[i] + 1}
        reason = ("not a finer center" if z not in finer else
                  "not self-owned" if center[own] != z else
                  "parent differs" if s.parent[own] != i else None)
        if reason:
            out["center_chain"] = {"k": k[i], "center": z, "reason": reason}
            break
    return out


class TestCorruptedColumns:
    @pytest.mark.parametrize("check,corruption", [
        ("partition", "label_up"),
        ("nesting", "parent"),
        ("ball_sandwich", "centers_k1"),
        ("outer_ball_nesting", "centers_k3"),
        ("center_chain", "centers_k1")])
    def test_each_check_fails_on_a_corruption(self, tree27, check,
                                              corruption):
        s = build_system(tree27[0])
        assert all(r.status == "pass" for r in check_system(s))
        bad = CORRUPTIONS[corruption](s)
        assert {r.name: r for r in check_system(bad)}[check].status == "fail"

    @pytest.mark.parametrize("corruption", [None, *CORRUPTIONS])
    def test_witnesses_match_the_per_cube_loops(self, tree27, corruption):
        s = build_system(tree27[0])
        if corruption is not None:
            s = CORRUPTIONS[corruption](s)
        want = loop_checks(s)
        for r in check_system(s):
            assert (r.status, r.witness) == \
                ("pass" if want[r.name] is None else "fail", want[r.name])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_built_systems_pass_the_loops(self, seed):
        space, _ = generate_space("euclidean_random_points", seed=seed, n=18,
                                  dim=2)
        assert all(w is None for w in
                   loop_checks(build_system(space, seed=seed)).values())


class TestIdsAtTheBoundary:
    @pytest.mark.parametrize("i,message", [(-1, "nonnegative"),
                                           (-40, "nonnegative"),
                                           (None, "past")])
    def test_children_reject_foreign_ids(self, tree27, i, message):
        s = build_system(tree27[0])
        with pytest.raises(BadParams, match=message):
            s.children(len(s.cubes) if i is None else i)

    def test_children_reject_non_integer_ids(self, tree27):
        s = build_system(tree27[0])
        with pytest.raises(BadParams):
            s.children(1.5)
