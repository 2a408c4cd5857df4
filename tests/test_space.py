import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica.errors import (
    BadParams,
    ConfigError,
    NegativeDistance,
    NonPositiveRadius,
    NonSymmetric,
    UnknownKind,
    ZeroOffDiagonal,
)
from dyadica.space import (
    PointMeasure,
    ball,
    build_space,
    estimate_geometric_doubling,
    generate_space,
    load_space,
    replay_doubling_cover,
    save_space,
    space_from_dict,
)


class TestBuildSpace:
    def test_segment_is_metric(self, segment4):
        space, _ = segment4
        assert space.a0 == 1.0
        assert space.n == 4
        assert space.diameter == 3.0
        assert space.min_distance == 1.0

    def test_snowflake_squared_constant(self, snowflake8):
        # |x-y|^2 <= a0 (|x-z|^2 + |z-y|^2); worst case splits the segment
        # in half: 4 = a0 * (1 + 1) at (0, 2, via 1), so a0 = 2 exactly.
        space, _ = snowflake8
        assert space.a0 == 2.0

    def test_one_point(self):
        space = build_space(np.zeros((1, 1)))
        assert space.a0 == 1.0
        assert space.min_distance == np.inf

    def test_rejects_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(NonSymmetric):
            build_space(d)

    def test_rejects_negative(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(NegativeDistance):
            build_space(d)

    def test_rejects_zero_off_diagonal(self):
        d = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroOffDiagonal):
            build_space(d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(BadParams):
            build_space(d)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_quasi_triangle_holds_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        upper = rng.uniform(0.1, 4.0, size=(n, n))
        d = np.triu(upper, 1)
        d = d + d.T
        space = build_space(d)
        for z in range(n):
            lhs = d
            rhs = space.a0 * (d[:, z][:, None] + d[z, :][None, :])
            mask = ~np.eye(n, dtype=bool)
            assert np.all(lhs[mask] <= rhs[mask] * (1 + 1e-12))

    def test_constant_is_tight(self):
        # shrinking a0 by any factor breaks the inequality somewhere
        space, _ = generate_space("snowflake_power", n=8, power=2.0)
        d = space.dist
        shrunk = space.a0 * 0.999
        ok = True
        for z in range(space.n):
            rhs = shrunk * (d[:, z][:, None] + d[z, :][None, :])
            if np.any(d > rhs + 1e-15):
                ok = False
        assert not ok


class TestSpaceIndex:
    def test_rows_are_stable_distance_orders(self, tree27):
        space, _ = tree27
        idx = space.index
        for c in space.points():
            order = np.argsort(space.dist[c], kind="stable")
            assert np.array_equal(idx.order[c], order)
            dist_sorted = space.dist[c][idx.order[c]]
            assert np.all(dist_sorted[1:] >= dist_sorted[:-1])
            assert np.array_equal(idx.flat_rank[c][order],
                                  c * space.n + np.arange(space.n))
            # one end per distinct distance t, closing the prefix {d <= t}
            ends = np.flatnonzero(idx.end[c])
            assert ends.size == np.unique(space.dist[c]).size
            for j in ends:
                closed = np.flatnonzero(space.dist[c] <= dist_sorted[j])
                assert np.array_equal(np.sort(order[:j + 1]), closed)

    def test_built_once_and_read_only(self, segment4):
        space, _ = segment4
        idx = space.index
        assert space.index is idx
        for a in (idx.order, idx.end, idx.flat_rank):
            with pytest.raises(ValueError):
                a[0, 0] = a[0, 1]

    def test_caller_array_does_not_reach_the_space(self):
        d = np.abs(np.arange(5.0)[:, None] - np.arange(5.0)[None, :])
        space = build_space(d)
        dist, order = space.dist.copy(), space.index.order.copy()
        d[0, 1] = d[1, 0] = 9.0
        d[2, 4] = d[4, 2] = 0.5
        assert np.array_equal(space.dist, dist)
        assert np.array_equal(space.index.order, order)
        assert np.array_equal(
            space.index.order, np.argsort(space.dist, axis=1, kind="stable"))

    def test_distance_table_is_read_only(self, segment4):
        space, _ = segment4
        with pytest.raises(ValueError):
            space.dist[0, 1] = 5.0


class TestBalls:
    def test_strict_membership(self, segment4):
        space, _ = segment4
        b = ball(space, 1, 1.0)
        assert b.members == (1,)
        b = ball(space, 1, 1.5)
        assert b.members == (0, 1, 2)

    def test_radius_must_be_positive(self, segment4):
        space, _ = segment4
        with pytest.raises(NonPositiveRadius):
            ball(space, 0, 0.0)

    def test_center_in_range(self, segment4):
        space, _ = segment4
        with pytest.raises(BadParams):
            ball(space, 7, 1.0)


class TestMeasure:
    def test_of_empty_set(self):
        mu = PointMeasure(np.array([1.0, 2.0]))
        assert mu.of([]) == 0.0

    def test_of_sums_in_sorted_order(self):
        rng = np.random.default_rng(7)
        masses = rng.uniform(0, 1, size=50)
        mu = PointMeasure(masses)
        forward = mu.of(range(50))
        shuffled = list(range(50))
        rng.shuffle(shuffled)
        assert mu.of(shuffled) == forward

    def test_atoms(self):
        mu = PointMeasure(np.array([0.0, 3.0, 0.0, 1.0]))
        assert mu.atoms == (1, 3)
        assert mu.total == 4.0

    def test_rejects_negative_mass(self):
        with pytest.raises(BadParams):
            PointMeasure(np.array([-1.0]))

    def test_rejects_nan(self):
        with pytest.raises(BadParams):
            PointMeasure(np.array([np.nan]))


class TestDoubling:
    def test_two_point(self, two_point):
        space, _ = two_point
        est = estimate_geometric_doubling(space)
        # the full ball at threshold 1 needs both half-balls
        assert est.a1_upper == 2
        assert replay_doubling_cover(space, est)

    def test_one_point(self):
        space = build_space(np.zeros((1, 1)))
        est = estimate_geometric_doubling(space)
        assert est.a1_upper == 1

    def test_segment_small(self):
        space, _ = generate_space("integer_segment_counting", n=8)
        est = estimate_geometric_doubling(space)
        # 1-d counting geometry: a handful of half-balls always suffice
        assert est.a1_upper <= 4
        assert replay_doubling_cover(space, est)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_replay_on_random_spaces(self, seed):
        space, _ = generate_space("euclidean_random_points", seed=seed, n=12, dim=2)
        est = estimate_geometric_doubling(space)
        assert replay_doubling_cover(space, est)
        assert est.a1_upper >= 1

    def test_tampered_cover_fails_replay(self, two_point):
        space, _ = two_point
        est = estimate_geometric_doubling(space)
        bad = {k: v[:1] for k, v in est.covers.items() if len(v) > 1}
        if bad:
            est2 = type(est)(a1_upper=est.a1_upper, method=est.method,
                             covers={**est.covers, **bad})
            assert not replay_doubling_cover(space, est2)


class TestGenerators:
    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            generate_space("nope", n=3)

    def test_missing_param(self):
        with pytest.raises(BadParams):
            generate_space("integer_segment_counting")

    @pytest.mark.parametrize("kind,params,field", [
        ("euclidean_random_points", {"n": 6, "dims": 3}, "dims"),
        ("integer_segment_counting", {"n": 6, "dim": 2}, "dim"),
        ("snowflake_power", {"n": 6, "ratio": 0.5}, "ratio"),
        ("ultrametric_tree", {"depth": 2, "branching": 2, "n": 4}, "n"),
    ])
    def test_parameter_the_kind_does_not_take(self, kind, params, field):
        with pytest.raises(ConfigError, match=f"^{field}: unknown parameter"):
            generate_space(kind, **params)

    def test_determinism(self):
        s1, _ = generate_space("euclidean_random_points", seed=42, n=10, dim=3)
        s2, _ = generate_space("euclidean_random_points", seed=42, n=10, dim=3)
        assert np.array_equal(s1.dist, s2.dist)
        s3, _ = generate_space("euclidean_random_points", seed=43, n=10, dim=3)
        assert not np.array_equal(s1.dist, s3.dist)

    def test_euclidean_is_metric(self):
        space, _ = generate_space("euclidean_random_points", seed=0, n=15, dim=2)
        assert space.a0 == 1.0

    def test_ultrametric_structure(self, tree27):
        space, _ = tree27
        d = space.dist
        n = space.n
        # strong triangle inequality: d(x,y) <= max(d(x,z), d(z,y))
        for z in range(n):
            assert np.all(d <= np.maximum(d[:, z][:, None], d[z, :][None, :]) + 1e-15)
        assert space.a0 == 1.0

    def test_ultrametric_level_counts(self, tree27):
        space, _ = tree27
        r = 1.0 / 96.0
        # siblings at depth 3 share a prefix of length 2
        b = ball(space, 0, r**2 * 1.0000001)
        assert len(b.members) == 3

    def test_counting_measure(self, segment4):
        _, mu = segment4
        assert mu.total == 4.0
        assert mu.atoms == (0, 1, 2, 3)


class TestSpaceFiles:
    def test_round_trip(self, tmp_path, segment4):
        space, mu = segment4
        p = tmp_path / "space.json"
        save_space(str(p), space, {"sigma": mu})
        space2, measures = load_space(str(p))
        assert np.array_equal(space.dist, space2.dist)
        assert np.array_equal(measures["sigma"].masses, mu.masses)

    def test_euclidean_metric_block(self):
        doc = {
            "n": 3,
            "metric": {"type": "euclidean", "coords": [[0.0], [1.0], [3.0]]},
            "measures": {"mu": [1, 1, 1]},
        }
        space, measures = space_from_dict(doc)
        assert space.dist[0, 2] == 3.0
        assert measures["mu"].total == 3.0

    def test_bad_json_path_is_reported(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ nope")
        with pytest.raises(ConfigError, match=str(p)):
            load_space(str(p))

    @pytest.mark.parametrize(
        "doc,path_fragment",
        [
            ({"metric": {}}, "n:"),
            ({"n": 2}, "metric:"),
            ({"n": 2, "metric": {"type": "wat"}}, "metric.type"),
            ({"n": 2, "metric": {"type": "matrix", "values": [[0, 1]]}}, "metric.values"),
            (
                {"n": 2, "metric": {"type": "matrix", "values": [[0, 1], [1, "x"]]}},
                "metric.values[1][1]",
            ),
            (
                {
                    "n": 2,
                    "metric": {"type": "matrix", "values": [[0, 1], [1, 0]]},
                    "measures": {"mu": [1]},
                },
                "measures.mu",
            ),
            (
                {
                    "n": 2,
                    "metric": {"type": "matrix", "values": [[0, 1], [1, 0]]},
                    "measures": {"mu": [1, -2]},
                },
                "measures.mu[1]",
            ),
            # unknown keys: a misspelled "measures" would drop the measure,
            # and "power" belongs to the euclidean metric only
            (
                {
                    "n": 2,
                    "metric": {"type": "matrix", "values": [[0, 1], [1, 0]]},
                    "measure": {"mu": [1, 1]},
                },
                "measure: unknown field",
            ),
            (
                {
                    "n": 2,
                    "metric": {"type": "matrix", "values": [[0, 1], [1, 0]],
                               "power": 2},
                },
                "metric.power: unknown field",
            ),
        ],
    )
    def test_config_errors_carry_paths(self, doc, path_fragment):
        with pytest.raises(ConfigError) as err:
            space_from_dict(doc)
        assert path_fragment in str(err.value)

    def test_asymmetric_matrix_rejected_with_metric_path(self):
        doc = {"n": 2, "metric": {"type": "matrix", "values": [[0, 1], [2, 0]]}}
        with pytest.raises(ConfigError, match="metric:"):
            space_from_dict(doc)
