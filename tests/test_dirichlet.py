import math

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

import chainkit.dirichlet as df
import chainkit.space as sp
from chainkit.scale import power_scale


def two_vertex(w=1.0):
    return df.GraphDirichletForm(
        sps.csr_matrix(np.array([[0.0, w], [w, 0.0]])), np.ones(2))


def test_form_validation():
    asym = sps.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(df.DirichletFormError):
        df.GraphDirichletForm(asym, np.ones(2))
    with pytest.raises(df.DirichletFormError):
        df.GraphDirichletForm(two_vertex().conductances, np.array([1.0, 0.0]))


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


def test_poincare_constant_single_edge():
    # one unit edge, m = (1,1), psi = r^2, r = 1.5 (both vertices inside):
    # sup Var_m(f)/E(f) = 1/2 over the edge, so the constant is psi-normalized
    form = two_vertex()
    c = df.poincare_constant(form, power_scale(2.0), 0, 1.5)
    assert c == pytest.approx(0.5 / 2.25, rel=1e-9)


def test_poincare_constant_trivial_ball():
    form = df.path_graph(5)
    assert df.poincare_constant(form, power_scale(2.0), 0, 0.5) == 0.0


def test_two_point_check_linear_function():
    form = df.path_graph(11)
    u = np.arange(11.0)
    rep = df.two_point_check(form, power_scale(2.0), u, 0, 10, R=20.0)
    assert rep["lhs"] == pytest.approx(100.0)
    assert rep["rhs_core"] > 0
    assert rep["ratio"] == pytest.approx(rep["lhs"] / rep["rhs_core"])


def test_graph_csv_round_trip(tmp_path):
    form = df.cycle_graph(7, conductance=2.0)
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
], ids=["duplicate", "duplicate-reversed", "negative-edge-id", "negative-vertex-id",
        "vertex-id-past-n"])
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
