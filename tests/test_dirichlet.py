import math

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

import chainkit.dirichlet as df
import chainkit.space as sp
from chainkit.heat import sierpinski_gasket_graph
from chainkit.scale import power_scale
from oracles import energy_by_tocoo, truncated_maximal_reference, two_point_check, two_vertex


def test_form_validation():
    asym = sps.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(df.DirichletFormError):
        df.GraphDirichletForm(asym, np.ones(2))
    with pytest.raises(df.DirichletFormError):
        df.GraphDirichletForm(two_vertex().conductances, np.array([1.0, 0.0]))
    with pytest.raises(TypeError, match="_dist"):  # the geodesic cache is no argument
        df.GraphDirichletForm(two_vertex().conductances, np.ones(2), _dist=np.zeros((2, 2)))


@pytest.mark.parametrize("length", [-1.0, 0.0])
def test_nonpositive_stored_lengths_are_rejected(length):
    w = df.path_graph(3).conductances
    lengths = w.copy()
    lengths.data = np.full_like(lengths.data, length)  # stored, even when zero
    with pytest.raises(df.DirichletFormError, match="lengths must be positive"):
        df.GraphDirichletForm(w, np.ones(3), lengths)


def test_energy_unit_edge():
    # single unit edge, f = (0, 1): E = w (f_1 - f_0)^2 = 1
    assert df.energy(two_vertex(), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert df.energy(two_vertex(3.0), np.array([0.0, 2.0])) == pytest.approx(12.0)


def test_energy_measure_sums_to_energy():
    form = df.path_graph(6)
    f = np.arange(6.0) ** 2
    em = df.energy_measure(form, f)
    assert em.density.sum() == pytest.approx(df.energy(form, f))
    # interior vertex: gamma = (w/2) * sum of squared increments over neighbors
    assert em.density[1] == pytest.approx(0.5 * ((1 - 0) ** 2 + (4 - 1) ** 2))


def test_capacity_series_parallel():
    cap, u = df.capacity(df.path_graph(5), [0], [4])
    assert cap == pytest.approx(0.25, abs=1e-12)
    assert u[0] == 1.0 and u[4] == 0.0
    assert (np.diff(u) < 0).all()  # linear harmonic profile
    cap2, _ = df.capacity(two_vertex(4.0), [0], [1])
    assert cap2 == pytest.approx(4.0, abs=1e-12)


def test_capacity_disconnected_components():
    # two disjoint edges: A in one component, B in the other -> capacity 0
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    form = df.GraphDirichletForm(sps.csr_matrix(w), np.ones(4))
    cap, u = df.capacity(form, [0], [3])
    assert cap == pytest.approx(0.0, abs=1e-15)
    assert u[0] == 1.0 and u[3] == 0.0


def test_capacity_overlapping_sets_rejected():
    with pytest.raises(df.DirichletFormError):
        df.capacity(df.path_graph(3), [0, 1], [1, 2])


@pytest.mark.parametrize("call, error, message", [
    (lambda s: df.poincare_constant(s, power_scale(2.0), 7, 1.5), sp.SpaceError,
     "unknown point id 7"),  # IndexError
    (lambda s: df.poincare_constant(s, power_scale(2.0), -1, 1.5), sp.SpaceError,
     "unknown point id -1"),  # read vertex 4
    (lambda s: df.poincare_constant(s, power_scale(2.0), 0, math.nan), df.DirichletFormError,
     "r must be positive"),  # returned 0.0
    (lambda s: df.truncated_maximal(s, np.ones(5), -1, 3.0), sp.SpaceError,
     "unknown point id -1"),  # read vertex 4
    (lambda s: df.capacity(s.graph, [0.5], [4]), df.DirichletFormError,
     "A and B must be vertex ids in 0..4; got 0.5"),  # computed with A = {0}
    (lambda s: df.capacity(s.graph, [True], [4]), df.DirichletFormError,
     "A and B must be vertex ids in 0..4; got True"),  # computed with A = {1}
], ids=["poincare-past-n", "poincare-negative", "poincare-nan-radius", "maximal-negative",
        "capacity-float", "capacity-bool"])
def test_ids_and_radii_are_checked_where_they_enter_dirichlet(call, error, message):
    with pytest.raises(error) as err:
        call(sp.space_from_graph(df.path_graph(5)))
    assert str(err.value) == message


def test_truncated_maximal_hand_value():
    # path P5, nu concentrated at the center: at x=2 the sup over r < R of
    # nu(B)/m(B) is nu({2})/m({2}) = 1 at r -> 0+
    space = sp.space_from_graph(df.path_graph(5))
    nu = np.zeros(5)
    nu[2] = 1.0
    assert df.truncated_maximal(space, nu, 2, 10.0) == pytest.approx(1.0)
    # at x=0 the best radius includes the mass with as few vertices as possible
    assert df.truncated_maximal(space, nu, 0, 10.0) == pytest.approx(1.0 / 3.0)
    # truncation below the distance to the mass
    assert df.truncated_maximal(space, nu, 0, 1.5) == pytest.approx(0.0)
    for R in (0.0, -1.0, float("nan")):  # a NaN radius used to admit every ball
        with pytest.raises(df.DirichletFormError, match="R must be positive"):
            df.truncated_maximal(space, nu, 0, R)


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_truncated_maximal_equals_reference_on_tied_distances(seed, level):
    # gasket geodesics tie often; the measure and nu are not integers
    rng = np.random.default_rng(seed)
    gasket = sierpinski_gasket_graph(level)
    form = df.GraphDirichletForm(gasket.conductances, rng.uniform(0.1, 3.0, gasket.n))
    space = sp.space_from_graph(form)
    nu = rng.uniform(0.0, 2.0, gasket.n)
    centres = rng.integers(0, gasket.n, 4)
    for R in (0.5, 1.0, 2.5, 4.0, 100.0):
        expected = [truncated_maximal_reference(space, nu, x, R) for x in centres.tolist()]
        assert [df.truncated_maximal(space, nu, x, R) for x in centres.tolist()] == expected
        # an array of centres gives the same values, one per centre
        assert df.truncated_maximal(space, nu, centres, R).tolist() == expected


def test_poincare_constant_single_edge():
    # one unit edge, m = (1,1), psi = r^2, r = 1.5 (both vertices inside):
    # sup Var_m(f)/E(f) = 1/2 over the edge, so the constant is psi-normalized
    space = sp.space_from_graph(two_vertex())
    c = df.poincare_constant(space, power_scale(2.0), 0, 1.5)
    assert c == pytest.approx(0.5 / 2.25, rel=1e-9)


def test_poincare_constant_trivial_ball():
    space = sp.space_from_graph(df.path_graph(5))
    assert df.poincare_constant(space, power_scale(2.0), 0, 0.5) == 0.0


def _poincare_reference(form, psi, x, r):
    # the variance form against the energy through the pseudo-inverse of the
    # ball's Laplacian, on the form's geodesic balls
    dist = form.geodesic_distances()
    inner = np.flatnonzero(dist[x] < r)
    outer = np.flatnonzero(dist[x] < 2.0 * r)
    if inner.size <= 1:
        return 0.0
    W = form.conductances[np.ix_(outer, outer)]
    L = np.diag(np.asarray(W.sum(axis=1)).ravel()) - W.toarray()
    m_in = form.vertex_measure[inner]
    P = np.zeros((inner.size, outer.size))
    P[np.arange(inner.size), np.searchsorted(outer, inner)] = 1.0
    Pc = P - (m_in / m_in.sum())[None, :] @ P
    Q = Pc.T @ (m_in[:, None] * Pc)
    lam, V = eigh(L)
    nz = lam > lam[-1] * 1e-12 + 1e-15
    S = V[:, nz] / np.sqrt(lam[nz])
    return float(eigh(S.T @ Q @ S, eigvals_only=True)[-1]) / psi(r)


@pytest.mark.parametrize("x", [0, 7, 40])
def test_poincare_constant_matches_pseudo_inverse_reference(x):
    form = sierpinski_gasket_graph(4)
    space, psi = sp.space_from_graph(form), power_scale(2.0)
    for r in (2.0, 4.0, 8.0):
        expected = _poincare_reference(form, psi, x, r)
        assert expected > 0
        assert df.poincare_constant(space, psi, x, r) == pytest.approx(expected, rel=1e-10)


def test_poincare_constant_reads_the_space_balls():
    # the same graph with every distance doubled: B'(x, 2r) = B(x, r), so
    # PI'(2r) Psi(2r) = PI(r) Psi(r)
    form = sierpinski_gasket_graph(3)
    space, psi = sp.space_from_graph(form), power_scale(2.0)
    doubled = sp.FiniteMetricMeasureSpace(2 * space.dist, space.measure, graph=form)
    for x, r in ((0, 2.0), (5, 3.0), (11, 4.0)):
        here = df.poincare_constant(space, psi, x, r) * psi(r)
        there = df.poincare_constant(doubled, psi, x, 2 * r) * psi(2 * r)
        assert here > 0
        assert there == pytest.approx(here, rel=1e-12)


def test_poincare_constant_needs_a_graph():
    line = sp.build_space({"type": "euclidean", "coords": [0.0, 1.0, 2.0]})
    with pytest.raises(df.DirichletFormError, match="graph"):
        df.poincare_constant(line, power_scale(2.0), 0, 1.5)


def test_two_point_check_linear_function():
    form = df.path_graph(11)
    u = np.arange(11.0)
    rep = two_point_check(sp.space_from_graph(form), power_scale(2.0), u, 0, 10, R=20.0)
    assert rep["lhs"] == pytest.approx(100.0)
    assert rep["rhs_core"] > 0
    assert rep["ratio"] == pytest.approx(rep["lhs"] / rep["rhs_core"])


def test_graph_csv_round_trip(tmp_path):
    form = df.GraphDirichletForm(2.0 * df.cycle_graph(7).conductances, np.ones(7))
    path = tmp_path / "graph.csv"
    df.save_graph_csv(form, path)
    loaded = df.load_graph_csv(path)
    assert loaded.n == 7
    assert (loaded.conductances != form.conductances).nnz == 0
    np.testing.assert_allclose(loaded.vertex_measure, form.vertex_measure)


def test_load_graph_csv_with_vertex_file(tmp_path):
    edges = tmp_path / "edges.csv"
    verts = tmp_path / "verts.csv"
    edges.write_text("u,v,conductance\n0,1,1.0\n1,2,2.0\n")
    verts.write_text("id,measure\n0,1.0\n1,2.0\n2,3.0\n")
    form = df.load_graph_csv(edges, verts)
    assert form.n == 3
    np.testing.assert_allclose(form.vertex_measure, [1.0, 2.0, 3.0])
    assert form.conductances[1, 2] == 2.0


@pytest.mark.parametrize("edges, verts, message", [
    # a repeated row would add its length: geodesic d(0, 2) = 3 instead of 2
    ("0,1,1.0\n1,2,1.0\n0,1,1.0\n", None, "more than once"),
    ("0,1,1.0\n1,2,1.0\n1,0,1.0\n", None, "more than once"),
    ("0,1,1.0\n-1,2,1.0\n", None, "negative vertex id"),
    ("0,1,1.0\n1,2,1.0\n", "0,1.0\n-1,2.0\n", "outside 0..2"),
    ("0,1,1.0\n1,2,1.0\n", "3,1.0\n", "outside 0..2"),
    # the last row won: vertex 0 got mass 5
    ("0,1,1.0\n1,2,1.0\n", "0,1\n0,5\n2,1\n", "vertex file lists vertex 0 more than once"),
], ids=["duplicate", "duplicate-reversed", "negative-edge-id", "negative-vertex-id",
        "vertex-id-past-n", "duplicate-vertex-id"])
def test_load_graph_csv_rejects_bad_ids(tmp_path, edges, verts, message):
    edge_path = tmp_path / "edges.csv"
    edge_path.write_text(edges)
    vert_path = None
    if verts is not None:
        vert_path = tmp_path / "verts.csv"
        vert_path.write_text(verts)
    with pytest.raises(df.DirichletFormError, match=message):
        df.load_graph_csv(edge_path, vert_path)


@pytest.mark.parametrize("edges, c01", [
    ("0,1,1e-3\n1,2,1.0\n", 1e-3),
    ("0,1,2E+0\n1,2,1.0\n", 2.0),
    ("0,1,1.0,1e-3\n1,2,1.0,1.0\n", 1.0),
], ids=["exponent", "capital-exponent", "exponent-in-length"])
def test_numeric_first_row_is_not_a_header(tmp_path, edges, c01):
    # a letter in an exponent used to mark the row as a header, dropping
    # edge 0-1 and isolating vertex 0
    edge_path = tmp_path / "edges.csv"
    edge_path.write_text(edges)
    form = df.load_graph_csv(edge_path)
    assert form.n == 3 and form.is_connected()
    assert form.conductances[0, 1] == c01


@pytest.mark.parametrize("edges, verts, message", [
    ("0,1,nan\n1,2,1.0\n", None, "finite"),
    ("0,1,inf\n1,2,1.0\n", None, "finite"),
    ("0,1,1.0,inf\n1,2,1.0,1.0\n", None, "finite"),
    ("0,1,1.0\n1,2,1.0\n", "0,nan\n", "finite"),
    ("0,1.5,1.0\n1,2,1.0\n", None, "non-integral"),
    ("0,1,1.0\nnan,2,1.0\n", None, "non-integral"),
    ("0,1,1.0\n1,2,1.0\n", "1.5,2.0\n", "non-integral"),
], ids=["nan-conductance", "inf-conductance", "inf-length", "nan-measure-one-row",
        "fractional-edge-id", "nan-edge-id", "fractional-vertex-id"])
def test_load_graph_csv_rejects_non_finite_and_non_integral(tmp_path, edges, verts, message):
    edge_path = tmp_path / "edges.csv"
    edge_path.write_text(edges)
    vert_path = None
    if verts is not None:
        vert_path = tmp_path / "verts.csv"
        vert_path.write_text(verts)
    with pytest.raises(df.DirichletFormError, match=message):
        df.load_graph_csv(edge_path, vert_path)


def test_form_rejects_non_finite_values():
    w = two_vertex().conductances
    nan_w = sps.csr_matrix(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    inf_len = sps.csr_matrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    for args in ((nan_w, np.ones(2)), (w, np.array([1.0, np.nan])),
                 (w, np.array([np.inf, 1.0])), (w, np.ones(2), inf_len)):
        with pytest.raises(df.DirichletFormError, match="must be finite numbers"):
            df.GraphDirichletForm(*args)


def test_zero_conductance_is_rejected(tmp_path):
    # a stored zero used to join the geodesic graph: d(0, 3) = 3 with p_1(0, 3) = 0
    edge_path = tmp_path / "edges.csv"
    edge_path.write_text("0,1,1\n1,2,0\n2,3,1\n")
    with pytest.raises(df.DirichletFormError, match="positive"):
        df.load_graph_csv(edge_path)
    w = sps.coo_matrix(([1.0, 1.0, 0.0, 0.0], ([0, 1, 1, 2], [1, 0, 2, 1])), shape=(3, 3))
    with pytest.raises(df.DirichletFormError, match="positive"):
        df.GraphDirichletForm(w.tocsr(), np.ones(3))


@given(st.integers(2, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_graph_csv_round_trip_is_bit_exact(tmp_path_factory, n, data):
    # a spanning tree (vertex v joins an earlier one) plus any extra edges:
    # no isolated vertex, so the edge list fixes n
    edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] < e[1]), max_size=n))
    u, v = np.array(sorted(edges)).T
    positive = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)

    def sym(vals):
        return sps.coo_matrix((np.r_[vals, vals], (np.r_[u, v], np.r_[v, u])),
                              shape=(n, n)).tocsr()

    cond = data.draw(st.lists(positive, min_size=u.size, max_size=u.size))
    lens = data.draw(st.lists(positive, min_size=u.size, max_size=u.size))
    form = df.GraphDirichletForm(sym(cond), np.ones(n), sym(lens))
    path = tmp_path_factory.mktemp("graph") / "graph.csv"
    df.save_graph_csv(form, path)
    loaded = df.load_graph_csv(path)
    for a, b in ((loaded.conductances, form.conductances), (loaded.lengths, form.lengths)):
        assert a.shape == b.shape
        assert np.array_equal(a.toarray(), b.toarray())


def test_save_graph_csv_matches_dense_lengths(tmp_path):
    # the reference is the former writer, which read lengths from a dense copy
    rng = np.random.default_rng(3)
    base = df.cycle_graph(9)
    c = sps.triu(base.conductances).tocoo()
    cond = rng.uniform(0.5, 2.0, c.nnz)
    lens = rng.uniform(0.1, 3.0, c.nnz)

    def sym(vals):
        return sps.coo_matrix((np.r_[vals, vals], (np.r_[c.row, c.col], np.r_[c.col, c.row])),
                              shape=base.conductances.shape).tocsr()

    form = df.GraphDirichletForm(sym(cond), np.ones(9), sym(lens))
    path = tmp_path / "graph.csv"
    df.save_graph_csv(form, path)
    w = sps.triu(form.conductances).tocoo()
    dense = form.lengths.toarray()
    expected = "".join(f"{i},{j},{c:.17g},{dense[i, j]:.17g}\n"
                       for i, j, c in zip(w.row, w.col, w.data))
    assert path.read_text() == expected
    assert len(expected.splitlines()) == 9 and expected.count(",") == 27
    loaded = df.load_graph_csv(path)
    assert (loaded.lengths != form.lengths).nnz == 0


@given(st.integers(3, 9), st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_energy_measure_identity_random(n, seed):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    w = w + w.T
    form = df.GraphDirichletForm(sps.csr_matrix(w), rng.uniform(0.5, 2.0, n))
    f = rng.normal(size=n)
    em = df.energy_measure(form, f)
    assert em.density.sum() == pytest.approx(df.energy(form, f), rel=1e-10)
    assert (em.density >= -1e-15).all()


@given(st.integers(3, 8), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_capacity_monotone_in_conductance(n, seed):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.1, 1, (n, n)), 1)
    w = w + w.T
    form = df.GraphDirichletForm(sps.csr_matrix(w), np.ones(n))
    form2 = df.GraphDirichletForm(sps.csr_matrix(2 * w), np.ones(n))
    cap1, _ = df.capacity(form, [0], [n - 1])
    cap2, _ = df.capacity(form2, [0], [n - 1])
    assert cap2 == pytest.approx(2 * cap1, rel=1e-9)


def energy_density_by_tocoo(form, f):
    w = form.conductances.tocoo()
    contrib = 0.5 * w.data * (f[w.row] - f[w.col]) ** 2
    return np.bincount(w.row, weights=contrib, minlength=form.n)


@given(st.integers(2, 9), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_energies_on_the_cached_edge_list_equal_tocoo_per_call(n, seed):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.1, 5.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    w = w + w.T
    form = df.GraphDirichletForm(sps.csr_matrix(w), rng.uniform(0.5, 2.0, n))
    for _ in range(5):  # the edge list is derived once and read by every call
        f = rng.normal(size=n)
        assert df.energy(form, f) == energy_by_tocoo(form, f)
        assert np.array_equal(df.energy_measure(form, f).density,
                              energy_density_by_tocoo(form, f))
    # a (k, n) array gives each row's energy, bit for bit
    F = rng.normal(size=(7, n)) * rng.uniform(0, 1e3, (7, 1))
    assert df.energy(form, F).tolist() == [energy_by_tocoo(form, f) for f in F]
