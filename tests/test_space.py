import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica.errors import BadParams, ConfigError
from dyadica.space import (
    _SPACE_PARAMS,
    PointMeasure,
    build_space,
    estimate_geometric_doubling,
    generate_space,
    load_space,
    replay_doubling_cover,
    save_space,
    space_from_dict,
)


def ball_masses(space, mu):
    """Per center x, in id order: its distinct distances ``steps``,
    ascending, and mass[j] = mu(B(x, steps[j])) summed in point-id order,
    with mass[-1] = mu(X); the reference for ``SpaceIndex.prefix_sums``."""
    for row in space.dist:
        steps = np.unique(row)
        yield steps, np.array([np.sum(mu.masses[row < t]) for t in steps]
                              + [np.sum(mu.masses)])


def quasi_triangle_loop(d):
    """The per-z reference: every ratio d[x, y] / (d[x, z] + d[z, y]) with
    a positive denominator, one (n x n) block per z."""
    n = d.shape[0]
    a0 = 1.0
    for z in range(n):
        denom = d[:, z][:, None] + d[z, :][None, :]
        ratio = np.divide(d, denom, out=np.zeros((n, n)), where=denom > 0)
        a0 = max(a0, float(ratio.max()))
    return a0


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
        with pytest.raises(BadParams, match="symmetric") as err:
            build_space(d)
        assert err.value.witness == {"x": 0, "y": 1}

    def test_rejects_negative(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(BadParams, match="nonnegative") as err:
            build_space(d)
        assert err.value.witness == {"x": 0, "y": 1, "value": -1.0}

    def test_rejects_zero_off_diagonal(self):
        d = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(BadParams, match="positive distance") as err:
            build_space(d)
        assert err.value.witness == {"x": 0, "y": 1}

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

    @pytest.mark.parametrize("kind, params", [
        ("integer_segment_counting", dict(n=70)),
        ("euclidean_random_points", dict(n=70, dim=2)),
        ("euclidean_random_points", dict(n=40, dim=3, power=1.7)),
        ("snowflake_power", dict(n=70, power=2.0)),
        ("snowflake_power", dict(n=70, power=0.5)),
        ("ultrametric_tree", dict(depth=4, branching=3)),
        ("ultrametric_tree", dict(depth=2, branching=9, ratio=0.25)),
    ])
    def test_constant_matches_the_loop_on_stock_spaces(self, kind, params):
        # n = 70 and 81 split into several (rows x z x n) tiles
        space, _ = generate_space(kind, seed=3, **params)
        assert space.a0 == quasi_triangle_loop(np.asarray(space.dist))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_constant_matches_the_loop_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        d = np.triu(rng.uniform(0.0, 1.0, size=(n, n)) ** rng.choice([1, 4, 12])
                    + 1e-300, 1)
        d = d + d.T
        assert build_space(d).a0 == quasi_triangle_loop(d)

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=14))
    def test_prefix_sums_give_the_ball_masses(self, seed, n):
        # few distinct distances, so rows have long tie groups, and small
        # integer masses with zeros, which sum exactly in any order
        rng = np.random.default_rng(seed)
        d = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
        space = build_space(d + d.T)
        mu = PointMeasure(rng.integers(0, 5, size=n))
        pref = space.index.prefix_sums(mu.masses)
        for x, (steps, mass) in enumerate(ball_masses(space, mu)):
            # B(x, 0) is empty, then one ball per tie group
            ends = space.index.end[x]
            assert np.array_equal(space.dist[x, space.index.order[x]][ends],
                                  steps)
            assert np.array_equal(np.concatenate([[0.0], pref[x][ends]]),
                                  mass)
        block = rng.integers(0, 5, size=(3, n)).astype(float)
        assert np.array_equal(space.index.prefix_sums(block),
                              [space.index.prefix_sums(w) for w in block])

    def test_distance_table_is_read_only(self, segment4):
        space, _ = segment4
        with pytest.raises(ValueError):
            space.dist[0, 1] = 5.0


def strict_ball(space, c, r):
    """B(c, r) as the prefix of ``index.order[c]`` of the points closer
    than r, ascending; it ends at an ``index.end`` (or is empty)."""
    idx = space.index
    size = int(np.sum(space.dist[c] < r))
    assert size == 0 or idx.end[c, size - 1]
    return sorted(idx.order[c, :size].tolist())


class TestBalls:
    def test_strict_membership(self, segment4):
        space, _ = segment4
        assert strict_ball(space, 1, 1.0) == [1]
        assert strict_ball(space, 1, 1.5) == [0, 1, 2]
        assert strict_ball(space, 1, 2.0) == [0, 1, 2]
        assert strict_ball(space, 1, 2.5) == [0, 1, 2, 3]


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


def greedy_cover_loop(space):
    """Reference: the set-based greedy cover of every class {d(x, .) <= a},
    keyed (x, a) in center then threshold order, and the widest cover."""
    d = space.dist
    worst = 1
    covers = {}
    for x in space.points():
        for a in np.unique(d[x]):
            members = np.flatnonzero(d[x] <= a)
            uncovered = set(members.tolist())
            chosen = []
            while uncovered:
                y = min(uncovered)
                chosen.append(y)
                uncovered -= set(members[d[y, members] <= a / 2.0].tolist())
            covers[(x, float(a))] = chosen
            worst = max(worst, len(chosen))
    return worst, covers


def cover_rows(est):
    return {(int(x), float(a)): [int(y) for y in row if y >= 0]
            for x, a, row in zip(est.center, est.threshold, est.covers)}


class TestDoubling:
    def test_two_point(self, two_point):
        space, _ = two_point
        est = estimate_geometric_doubling(space)
        # the full ball at threshold 1 needs both half-balls
        assert est.a1_upper == 2
        assert replay_doubling_cover(space, est)
        assert cover_rows(est) == {(0, 0.0): [0], (0, 1.0): [0, 1],
                                   (1, 0.0): [1], (1, 1.0): [0, 1]}
        assert est.covers.tolist() == [[0, -1], [0, 1], [1, -1], [0, 1]]

    def test_one_point(self):
        space = build_space(np.zeros((1, 1)))
        est = estimate_geometric_doubling(space)
        assert est.a1_upper == 1
        assert est.covers.tolist() == [[0]]

    def test_segment_small(self):
        space, _ = generate_space("integer_segment_counting", n=8)
        est = estimate_geometric_doubling(space)
        # 1-d counting geometry: a handful of half-balls always suffice
        assert est.a1_upper <= 4
        assert replay_doubling_cover(space, est)

    def test_arrays_are_read_only(self, segment4):
        space, _ = segment4
        est = estimate_geometric_doubling(space)
        for a in (est.center, est.threshold, est.covers):
            with pytest.raises(ValueError):
                a[0] = a[1]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_replay_on_random_spaces(self, seed):
        space, _ = generate_space("euclidean_random_points", seed=seed, n=12, dim=2)
        est = estimate_geometric_doubling(space)
        assert replay_doubling_cover(space, est)
        assert est.a1_upper >= 1

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["cloud", "snowflake", "segment", "tree"]),
           st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=40))
    def test_same_covers_as_the_set_loop(self, kind, seed, n):
        space = {
            "cloud": lambda: generate_space("euclidean_random_points",
                                            seed=seed, n=n, dim=1 + seed % 3),
            "snowflake": lambda: generate_space("snowflake_power", n=n,
                                                power=0.25 + seed % 8 / 4),
            "segment": lambda: generate_space("integer_segment_counting", n=n),
            # many tied distances: depth 1..3, branching 2..4
            "tree": lambda: generate_space("ultrametric_tree",
                                           depth=1 + seed % 3,
                                           branching=2 + n % 3,
                                           ratio=0.05 + seed % 9 / 10),
        }[kind]()[0]
        est = estimate_geometric_doubling(space)
        worst, covers = greedy_cover_loop(space)
        assert est.a1_upper == worst
        assert len(est.covers) == len(covers) == sum(
            np.unique(row).size for row in space.dist)
        assert list(cover_rows(est).items()) == list(covers.items())
        assert replay_doubling_cover(space, est)

    def test_tampered_cover_fails_replay(self, segment16):
        space, _ = segment16
        est = estimate_geometric_doubling(space)
        assert replay_doubling_cover(space, est)
        # drop the last id of every row holding two or more, one at a time
        ids = (est.covers >= 0).sum(axis=1)
        for i in np.flatnonzero(ids >= 2):
            covers = est.covers.copy()
            covers[i, ids[i] - 1] = -1
            assert not replay_doubling_cover(space, replace(est, covers=covers))

    @pytest.mark.parametrize("row", [0, 5, -1])
    def test_missing_class_fails_replay(self, segment16, row):
        space, _ = segment16
        est = estimate_geometric_doubling(space)
        keep = np.arange(len(est.covers)) != row % len(est.covers)
        assert not replay_doubling_cover(space, replace(
            est, center=est.center[keep], threshold=est.threshold[keep],
            covers=est.covers[keep]))

    def test_moved_class_fails_replay(self, segment16):
        space, _ = segment16
        est = estimate_geometric_doubling(space)
        # the class {d(0, .) <= 1} recorded as {d(0, .) <= 0.5}: its cover
        # {0} covers that ball, but the class at distance 1 goes unchecked
        threshold = est.threshold.copy()
        threshold[1] = 0.5
        assert not replay_doubling_cover(space, replace(est, threshold=threshold))
        # the whole space {d(0, .) <= 15} recorded at center 15: its cover
        # covers the class of either center
        center = est.center.copy()
        center[15] = 15
        assert (est.center[15], est.threshold[15]) == (0, 15.0)
        assert not replay_doubling_cover(space, replace(est, center=center))

    @pytest.mark.parametrize("bad", [16, 99, -2])
    def test_out_of_range_id_fails_replay(self, segment16, bad):
        space, _ = segment16
        est = estimate_geometric_doubling(space)
        covers = est.covers.copy()
        covers[3, -1] = bad
        assert not replay_doubling_cover(space, replace(est, covers=covers))

    def test_row_wider_than_a1_upper_fails_replay(self, segment16):
        space, _ = segment16
        est = estimate_geometric_doubling(space)
        # one more valid id on a full row: still a cover, but wider than
        # the bound the estimate states
        covers = np.column_stack([est.covers, np.full(len(est.covers), -1)])
        full = np.flatnonzero(est.covers[:, -1] >= 0)[0]
        covers[full, -1] = 0
        assert not replay_doubling_cover(space, replace(est, covers=covers))
        # the same ids under a wider bound replay
        assert replay_doubling_cover(space, replace(
            est, covers=covers, a1_upper=est.a1_upper + 1))

    def test_blocks_bound_the_memory(self):
        # the 192-point segment has 27,744 classes: one unblocked
        # (classes x n) float pass would hold 40.6 MiB; the blocked
        # estimate and replay peak near 3 MiB, 1.5 MiB of it the estimate
        space, _ = generate_space("integer_segment_counting", n=192)
        space.index
        tracemalloc.start()
        try:
            est = estimate_geometric_doubling(space)
            assert replay_doubling_cover(space, est)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(est.covers) == 27_744
        assert peak < 8 * 2**20


class TestGenerators:
    def test_unknown_kind(self):
        with pytest.raises(BadParams, match="unknown space kind"):
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

    @pytest.mark.parametrize("value", ["2", "x", True, None, np.inf, np.nan])
    def test_float_parameters_are_typed(self, value):
        # every parameter the table types float, on every kind taking one
        required = {"n": 4, "depth": 2, "branching": 2}
        for kind, table in _SPACE_PARAMS.items():
            for key in (k for k, cast in table.items() if cast is float):
                params = {k: v for k, v in required.items() if k in table}
                with pytest.raises(BadParams,
                                   match=f"^'{key}' must be a finite number"):
                    generate_space(kind, **params, **{key: value})

    def test_integer_float_parameter_is_its_float(self):
        a, _ = generate_space("snowflake_power", n=5, power=2)
        b, _ = generate_space("snowflake_power", n=5, power=2.0)
        assert np.array_equal(a.dist, b.dist)

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
        assert strict_ball(space, 0, r**2 * 1.0000001) == [0, 1, 2]
        # one tie group per tree level: 1 + 2 + 6 + 18 points
        assert np.flatnonzero(space.index.end[0]).tolist() == [0, 2, 8, 26]

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

    @pytest.mark.parametrize("doc,path_fragment", [
        ({"n": True, "metric": {"type": "matrix", "values": [[0]]}}, "n:"),
        ({"n": 2, "metric": {"type": "matrix",
                             "values": [[0, True], [1, 0]]}},
         "metric.values[0][1]"),
        ({"n": 2, "metric": {"type": "euclidean",
                             "coords": [[0.0], [False]]}},
         "metric.coords[1][0]"),
        ({"n": 2, "metric": {"type": "euclidean", "coords": [[0.0], [1.0]],
                             "power": True}}, "metric.power"),
        ({"n": 2, "metric": {"type": "matrix", "values": [[0, 1], [1, 0]]},
          "measures": {"mu": [True, 1]}}, "measures.mu[0]"),
    ])
    def test_booleans_are_not_numbers(self, doc, path_fragment):
        # JSON true and false are Python bools, which isinstance counts as
        # int; each would otherwise load as 1 or 0
        with pytest.raises(ConfigError) as err:
            space_from_dict(doc)
        assert path_fragment in str(err.value)

    def test_asymmetric_matrix_rejected_with_metric_path(self):
        doc = {"n": 2, "metric": {"type": "matrix", "values": [[0, 1], [2, 0]]}}
        with pytest.raises(ConfigError, match="metric:"):
            space_from_dict(doc)
