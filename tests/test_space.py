import copy
import warnings

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import assume, example, given, settings, strategies as st

import chainkit.space as sp
from chainkit.dirichlet import GraphDirichletForm, path_graph
from oracles import unit_line


def test_build_space_euclidean_2d():
    space = sp.build_space({"type": "euclidean",
                            "coords": [[0.0, 0.0], [3.0, 4.0]]})
    assert space.dist[0, 1] == pytest.approx(5.0)
    assert space.total_mass() == pytest.approx(2.0)


def test_build_space_snowflake_values():
    space = sp.build_space({"type": "snowflake", "beta": 3.0,
                            "coords": [0.0, 1.0]})
    assert space.dist[0, 1] == pytest.approx(1.0)
    space2 = sp.build_space({"type": "snowflake", "beta": 2.0,
                             "coords": [0.0, 4.0]})
    assert space2.dist[0, 1] == pytest.approx(4.0)
    with pytest.raises(sp.SpaceError):
        sp.build_space({"type": "snowflake", "beta": 1.5, "coords": [0.0, 1.0]})


def test_explicit_triangle_violation_names_triple():
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(sp.SpaceError, match=r"d\(0,2\)"):
        sp.build_space({"type": "explicit", "matrix": bad.tolist()})


def test_measure_must_be_positive():
    with pytest.raises(sp.SpaceError):
        sp.build_space({"type": "euclidean", "coords": [0.0, 1.0],
                        "measure": [1.0, 0.0]})
    with pytest.raises(sp.SpaceError, match="finite"):
        sp.build_space({"type": "euclidean", "coords": [0.0, 1.0],
                        "measure": [1.0, float("nan")]})


@pytest.mark.parametrize("dist, measure, message", [
    ([[0.0, 1.0]], [1.0], "distance matrix must be square"),
    ([[0.0, 1.0], [1.0, 0.0]], [1.0], "measure vector has wrong length"),
    ([[0.0, np.inf], [np.inf, 0.0]], [1.0, 1.0],
     "distances and measure weights must be finite numbers"),
    ([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], "all measure weights must be strictly positive"),
    ([[0.0, 1.0], [2.0, 0.0]], [1.0, 1.0], "distance matrix must be symmetric"),
    ([[0.0, 1.0], [1.0, 1.0]], [1.0, 1.0], "distance matrix must have zero diagonal"),
    ([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], [1.0] * 3,  # a duplicate point
     "off-diagonal distances must be positive"),
    ([[0.0, -1.0], [-1.0, 0.0]], [1.0, 1.0], "off-diagonal distances must be positive"),
])
def test_space_validation_messages(dist, measure, message):
    with pytest.raises(sp.SpaceError) as err:
        sp.FiniteMetricMeasureSpace(np.array(dist), np.array(measure))
    assert str(err.value) == message


def test_nan_coordinate_is_rejected():
    with pytest.raises(sp.SpaceError, match="finite"):
        sp.build_space({"type": "euclidean", "coords": [0.0, float("nan"), 2.0]})


def test_space_from_graph_is_geodesic():
    space = sp.space_from_graph(path_graph(5))
    assert space.dist[0, 4] == pytest.approx(4.0)
    assert space.graph is not None


def test_space_from_graph_views_the_read_only_geodesic_matrix():
    form = path_graph(5)
    space = sp.space_from_graph(form)
    assert space.dist is form.geodesic_distances()
    with pytest.raises(ValueError):
        space.dist[0, 1] = 2.0
    assert form.geodesic_distances()[0, 1] == 1.0
    # deepcopy keeps the one array shared (numpy drops the read-only flag on copy)
    c = copy.deepcopy(space)
    assert c.dist is c.graph.geodesic_distances()
    assert c.dist is not space.dist


@given(st.integers(2, 12), st.data())
@settings(max_examples=80, deadline=None)
def test_space_from_graph_accepts_float_edge_lengths(n, data):
    # a spanning tree plus extra edges, lengths decimal or arbitrary floats:
    # Dijkstra sums each path from both ends, which may differ by an ulp
    edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] < e[1]), max_size=2 * n))
    u, v = np.array(sorted(edges)).T
    length = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1]),
                       st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    lens = np.array(data.draw(st.lists(length, min_size=u.size, max_size=u.size)))

    def sym(vals):
        return sps.coo_matrix((np.r_[vals, vals], (np.r_[u, v], np.r_[v, u])),
                              shape=(n, n)).tocsr()

    form = GraphDirichletForm(sym(np.ones(u.size)), np.ones(n), sym(lens))
    space = sp.space_from_graph(form)
    assert np.array_equal(space.dist, space.dist.T)
    g = nx.Graph()
    g.add_weighted_edges_from(zip(u.tolist(), v.tolist(), lens.tolist()))
    ref = np.zeros((n, n))
    for a, row in nx.all_pairs_dijkstra_path_length(g):
        for b, d in row.items():
            ref[a, b] = d
    assert np.allclose(space.dist, ref, rtol=1e-12, atol=0)


def test_ball_is_open():
    space = unit_line(5)
    assert set(sp.ball(space, 2, 1.0)) == {2}
    assert set(sp.ball(space, 2, 1.5)) == {1, 2, 3}
    with pytest.raises(sp.SpaceError):
        sp.ball(space, 2, 0.0)


@pytest.mark.parametrize("read", [sp.ball, sp.ball_volume])
def test_a_nan_radius_is_an_error(read):
    # NaN compared False: an empty ball without its centre, and volume 0.0
    with pytest.raises(sp.SpaceError, match="^ball radius must be positive$"):
        read(unit_line(5), 0, float("nan"))


def test_doubling_constant_hand_values():
    # single point: constant 1; star K_{1,n}: ratio (n+1)/1 realized at the hub
    single = sp.build_space({"type": "euclidean", "coords": [0.0]})
    assert sp.doubling_constant(single) == pytest.approx(1.0)
    n = 6
    dist = np.ones((n + 1, n + 1)) * 2
    dist[0, :] = dist[:, 0] = 1.0
    np.fill_diagonal(dist, 0.0)
    star = sp.build_space({"type": "explicit", "matrix": dist.tolist()})
    assert sp.doubling_constant(star) == pytest.approx(n + 1.0)


def test_doubling_constant_unit_line():
    space = unit_line(101)
    c = sp.doubling_constant(space)
    # 1-d volume growth: at most ~2x plus lattice edge effects
    assert 2.0 <= c <= 4.0


def test_uniform_perfectness_on_line_and_clusters():
    line = unit_line(21)
    rep = sp.uniform_perfectness(line)
    assert rep["holds_at_2"]
    # two tight clusters far apart: the annulus (r/2, r] is empty around r ~ gap
    coords = [0.0, 0.1, 100.0, 100.1]
    clusters = sp.build_space({"type": "euclidean", "coords": coords})
    rep2 = sp.uniform_perfectness(clusters)
    assert not rep2["holds_at_2"]


def _perfectness_loop(space):
    # one (centre, radius) at a time: the reference for the vectorised scan
    holds, worst, required_C = True, None, 1.0
    for x in range(space.n):
        pos = np.unique(space.dist[x])
        pos = pos[pos > 0]
        breaks = np.unique(np.concatenate([pos, 2 * pos]))
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        candidates = np.unique(np.concatenate([breaks, mids]))
        for r in candidates[(candidates > pos.min()) & (candidates <= pos.max())]:
            inside = pos[pos < r]
            if inside.size == len(pos):
                continue
            if not ((pos >= r / 2) & (pos < r)).any():
                holds = False
                if worst is None:
                    worst = (x, float(r))
            required_C = max(required_C, r / inside.max())
    return {"holds_at_2": holds, "worst_scale": worst, "required_C": required_C}


def _random_spec(n, seed, beta, spread):
    rng = np.random.default_rng(seed)
    # scaling a random subset of the points by `spread` makes empty annuli likely
    pts = rng.uniform(0, 1, (n, 2)) * rng.choice([1.0, spread], (n, 1))
    spec = {"type": "euclidean", "coords": pts.tolist()}
    if beta is not None:
        spec.update(type="snowflake", beta=beta)
    return spec


# from 0 the gap (1, 2+) has midpoint 0.5 * (2 + 2+), which rounds to 2 = 2 * 1:
# the first empty annulus is at r = 2+, not at the midpoint
FLOAT_EDGE = {"type": "euclidean", "coords": [0.0, 1.0, float(np.nextafter(2.0, np.inf))]}


@given(st.builds(_random_spec, st.integers(2, 10), st.integers(0, 10 ** 6),
                 st.sampled_from([None, 3.0]), st.sampled_from([1.0, 100.0])))
@example(FLOAT_EDGE)
@settings(max_examples=60, deadline=None)
def test_uniform_perfectness_matches_loop(spec):
    space = sp.build_space(spec)
    rep = sp.uniform_perfectness(space)
    assert rep == _perfectness_loop(space)
    if spec is FLOAT_EDGE:
        assert rep["worst_scale"] == (0, 2.0000000000000004)


def test_volume_profile_matches_ball_volume():
    # V(x, r) read from x's distance profile as the walk-exponent fit reads it
    space = unit_line(9)
    radii, volumes = sp.distance_profile(space.dist[4], space.measure)
    for r in (0.5, 1.5, 3.2, 10.0):
        at = np.r_[0.0, volumes][np.searchsorted(radii, r, side="left")]
        assert at == pytest.approx(sp.ball_volume(space, 4, r))


lattice = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=12,
                   unique=True)


def lattice_space(points, measure=None):
    # integer points: many pairs at exactly equal distances
    spec = {"type": "euclidean", "coords": [[float(a), float(b)] for a, b in points]}
    if measure is not None:
        spec["measure"] = list(measure)
    return sp.build_space(spec)


@given(lattice, st.data())
@settings(max_examples=80, deadline=None)
def test_distance_profile_matches_masked_sums(points, data):
    space = lattice_space(points)
    integers = st.lists(st.integers(1, 9), min_size=space.n, max_size=space.n)
    weights = [np.array(data.draw(integers), dtype=float) for _ in range(2)]
    for x in range(space.n):
        row = space.dist[x]
        assert len(sp.distance_profile(row)) == 1
        radii, *closed = sp.distance_profile(row, *weights)
        assert np.array_equal(radii, np.unique(row))
        for w, c in zip(weights, closed):  # integer sums are exact in any order
            assert np.array_equal(c, [w[row <= r].sum() for r in radii])


def _doubling_reference(space):
    # an independent scan: one argsort and cumulative sum per centre over the
    # full row, candidate radii from every entry of the matrix
    best = 1.0
    all_d = np.unique(space.dist)
    pos = all_d[all_d > 0]
    candidates = np.unique(np.concatenate([pos / 2.0, pos]))
    if not candidates.size:
        return best
    for x in range(space.n):
        order = np.argsort(space.dist[x])
        d = space.dist[x][order]
        vol = np.cumsum(space.measure[order])
        i_r = np.searchsorted(d, candidates, side="right")
        i_2r = np.searchsorted(d, 2 * candidates, side="right")
        best = max(best, float(np.max(vol[i_2r - 1] / vol[i_r - 1])))
    return best


@given(lattice, st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_doubling_constant_equals_reference_on_tied_distances(points, seed):
    measure = np.random.default_rng(seed).uniform(0.1, 3.0, len(points))
    space = lattice_space(points, measure)
    assert sp.doubling_constant(space) == _doubling_reference(space)


def test_save_load_round_trip(tmp_path):
    space = sp.build_space({"type": "snowflake", "beta": 2.5,
                            "coords": np.linspace(0, 1, 7).tolist(),
                            "measure": np.arange(1.0, 8.0).tolist()})
    path = tmp_path / "space.json"
    sp.save_space(space, path)
    loaded = sp.load_space(path)
    np.testing.assert_allclose(loaded.dist, space.dist, rtol=0, atol=1e-15)
    np.testing.assert_allclose(loaded.measure, space.measure)


coordinate = st.floats(-100.0, 100.0, allow_nan=False)
weight = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=9, unique=True),
       st.sampled_from(["euclidean", "snowflake", "explicit"]), st.floats(2.0, 6.0),
       st.data())
@settings(max_examples=80, deadline=None)
def test_save_load_round_trip_is_bit_exact(tmp_path_factory, points, kind, beta, data):
    measure = data.draw(st.lists(weight, min_size=len(points), max_size=len(points)))
    spec = {"type": "euclidean", "coords": [list(p) for p in points], "measure": measure}
    try:
        euclid = sp.build_space(spec)
    except sp.SpaceError:  # two points closer than the square root of the least double
        assume(False)
    if kind == "snowflake":
        spec.update(type="snowflake", beta=beta)
    elif kind == "explicit":
        spec = {"type": "explicit", "matrix": euclid.dist.tolist(), "measure": measure}
    space = sp.build_space(spec)
    path = tmp_path_factory.mktemp("space") / "space.json"
    sp.save_space(space, path)
    loaded = sp.load_space(path)
    assert np.array_equal(loaded.dist, space.dist)
    assert np.array_equal(loaded.measure, space.measure)


def test_triangle_warning_only_for_unchecked_explicit_matrices():
    n = sp.TRIANGLE_CHECK_LIMIT + 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # euclidean metrics are never triangle-checked
        sp.build_space({"type": "euclidean", "coords": np.arange(float(n)).tolist()})
    i = np.arange(sp.TRIANGLE_CHECK_LIMIT + 1.0)
    with pytest.warns(UserWarning, match="skipping O\\(n\\^3\\) triangle-inequality check"):
        sp.build_space({"type": "explicit", "matrix": np.abs(i[:, None] - i[None, :])})


@given(st.integers(2, 8), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_metric_axioms_euclidean_random(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(n, 3))
    space = sp.build_space({"type": "euclidean", "coords": pts.tolist()})
    d = space.dist
    assert np.allclose(d, d.T)
    assert (np.diag(d) == 0).all()
    for k in range(n):
        assert (d <= d[:, [k]] + d[[k], :] + 1e-9).all()


@given(st.integers(2, 7), st.floats(2.0, 4.0), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_snowflake_is_a_metric(n, beta, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=n)
    space = sp.build_space({"type": "snowflake", "beta": beta,
                            "coords": pts.tolist()})
    d = space.dist
    for k in range(n):
        assert (d <= d[:, [k]] + d[[k], :] + 1e-9).all()
