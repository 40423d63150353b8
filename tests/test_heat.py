import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings, strategies as st

import chainkit.heat as ht
import chainkit.space as sp
from chainkit.chain import _walk_predecessors
from chainkit.dirichlet import (
    DirichletFormError,
    GraphDirichletForm,
    cycle_graph,
    path_graph,
)
from chainkit.scale import PhiTransform, power_scale
from oracles import two_vertex


def test_two_vertex_kernel_closed_form():
    # eigenvalues {0, 2}: p_t(x,x) = (1 + e^{-2t})/2, p_t(x,y) = (1 - e^{-2t})/2
    table = ht.heat_kernel(two_vertex(), [0.3, 1.0, 5.0])
    for t in (0.3, 1.0, 5.0):
        P = table.kernels[t]
        assert P[0, 0] == pytest.approx((1 + math.exp(-2 * t)) / 2, abs=1e-12)
        assert P[0, 1] == pytest.approx((1 - math.exp(-2 * t)) / 2, abs=1e-12)


def test_kernel_equilibrates_to_reciprocal_mass():
    form = cycle_graph(8)
    table = ht.heat_kernel(form, [500.0])
    np.testing.assert_allclose(table.kernels[500.0], 1.0 / 8.0, atol=1e-10)


def test_kernel_verify_catches_tampering():
    table = ht.heat_kernel(two_vertex(), [1.0, 2.0])
    table.verify()
    table.kernels[1.0][0, 1] += 1e-6
    with pytest.raises(ht.HeatError):
        table.verify()


def test_kernel_defects_cover_the_given_semigroup_pairs():
    table = ht.heat_kernel(cycle_graph(12), [1.0, 2.0, 3.0], verify=False)
    clean = ht.kernel_defects(table, [(t, s) for t in table.times for s in table.times])
    assert max(clean["symmetry"], clean["stochasticity"], clean["semigroup"]) <= 1e-12
    assert clean["min_entry"] > 0
    assert ht.kernel_defects(table, [])["semigroup"] == 0.0
    # a symmetric, mass-gaining p_3 breaks stochasticity and every pair summing to 3
    table.kernels[3.0] = 1.001 * table.kernels[3.0]
    assert ht.kernel_defects(table, [(1.0, 1.0)])["semigroup"] <= 1e-12
    bad = ht.kernel_defects(table, [(1.0, 2.0)])
    assert bad["symmetry"] <= 1e-12
    assert bad["stochasticity"] == pytest.approx(1e-3, rel=1e-6)
    assert bad["semigroup"] == pytest.approx(1e-3 * table.kernels[3.0].max() / 1.001, rel=1e-6)
    with pytest.raises(ht.HeatError, match="stochasticity"):
        table.verify()


def test_kernel_defects_build_each_sum_kernel_once(monkeypatch):
    table = ht.heat_kernel(cycle_graph(30), [0.1, 1.0, 10.0, 100.0], verify=False)
    times = table.times.tolist()
    pairs = [(t, s) for t in times for s in times]
    m = table.form.vertex_measure
    # the per-pair loop kernel_defects ran before, one p_(t+s) per pair
    expected = max(float(np.abs(table.kernel_at(t + s) - table.kernels[t]
                                @ (m[:, None] * table.kernels[s])).max()) for t, s in pairs)
    built = []
    kernel = ht._kernel
    monkeypatch.setattr(ht, "_kernel", lambda lam, phi, t: built.append(t) or kernel(lam, phi, t))
    assert ht.kernel_defects(table, pairs)["semigroup"] == expected
    assert sorted(built) == sorted({t + s for t, s in pairs}) and len(built) == 10


def test_kernel_at_interpolates_spectrally():
    table = ht.heat_kernel(two_vertex(), [1.0, 2.0])
    np.testing.assert_allclose(table.kernel_at(3.0),
                               ht.heat_kernel(two_vertex(), [3.0]).kernels[3.0],
                               atol=1e-14)


def test_heat_kernel_rejects_bad_times():
    with pytest.raises(ht.HeatError):
        ht.heat_kernel(two_vertex(), [0.0, 1.0])


def test_sub_gaussian_fit_requires_dynamic_range():
    table = ht.heat_kernel(two_vertex(), [1.0, 200.0])
    with pytest.raises(ht.HeatError):
        ht.sub_gaussian_fit(table, table.form.geodesic_distances())


def test_sub_gaussian_fit_cycle_beta_near_2():
    form = cycle_graph(200)
    table = ht.heat_kernel(form, np.geomspace(1.0, 400.0, 25), verify=False)
    fit = ht.sub_gaussian_fit(table, form.geodesic_distances())
    assert 1.8 <= fit.beta <= 2.2
    assert fit.c_lower <= fit.C_upper
    assert fit.n_points > 100


def loop_sub_gaussian_fit(table, dist, pairs=None, beta_grid=ht.BETA_GRID,
                          band=ht.FIT_BAND):
    """The per-point loop sub_gaussian_fit used to run, kept as its reference.

    It reads full kernel matrices and sums a ball volume for every point.
    """
    m = table.form.vertex_measure
    times = np.asarray(sorted(table.kernels))
    diam = float(dist[np.isfinite(dist)].max())
    if pairs is None:
        pairs = [(0, y) for y in range(dist.shape[0]) if dist[0, y] > 0]
    pairs = [(x, y) for x, y in pairs
             if 0 < dist[x, y] <= (1 - ht.BOUNDARY_EXCLUSION) * diam]
    ds = np.array([dist[x, y] for x, y in pairs])
    x_on = pairs[0][0]
    pdiag = np.array([table.kernels[float(t)][x_on, x_on] for t in times])
    usable = pdiag > pdiag.min() * (1 + 1e-12)
    slope_on = float(np.polyfit(np.log(times[usable]), np.log(pdiag[usable]), 1)[0])
    radii = np.geomspace(max(ds.min(), 1e-9), ds.max(), 16)
    vols = np.array([float(m[dist[x_on] < r].sum()) for r in radii])
    vol_exp = float(np.polyfit(np.log(radii), np.log(np.maximum(vols, m[x_on])), 1)[0])
    best = None
    per_beta = {}
    for beta in beta_grid:
        X, Y = [], []
        for t in times:
            P = table.kernels[float(t)]
            r = t ** (1.0 / beta)
            for (x, y), d in zip(pairs, ds):
                if not band[0] <= d ** beta / t <= band[1]:
                    continue
                p = P[x, y]
                if p <= 0:
                    continue
                V = float(m[dist[x] < r].sum())
                X.append((d ** beta / t) ** (1.0 / (beta - 1.0)))
                Y.append(-math.log(p * V))
        if len(X) < 8:
            per_beta[float(beta)] = math.inf
            continue
        X = np.asarray(X)
        Y = np.asarray(Y)
        slope, intercept = np.polyfit(X, Y, 1)
        resid = Y - (slope * X + intercept)
        score = float(np.sqrt(np.mean(resid ** 2)) / (Y.std() + 1e-30))
        if slope <= 0:
            score = math.inf
        per_beta[float(beta)] = score
        if best is None or score < best[1]:
            best = (float(beta), score, slope, intercept, X, Y)
    beta, score, slope, intercept, X, Y = best
    return ht.SubGaussianFit(
        beta=beta, c_lower=float(np.exp(np.min(-Y + slope * X))),
        C_upper=float(np.exp(np.max(-Y + slope * X))), residual=score,
        on_diagonal_slope=slope_on, volume_exponent=vol_exp, n_points=int(X.size),
        per_beta_residual=per_beta)


def permuted_gasket(level, seed):
    form = ht.sierpinski_gasket_graph(level)
    perm = np.random.default_rng(seed).permutation(form.n)
    c = form.conductances.tocoo()
    w = sps.coo_matrix((c.data, (perm[c.row], perm[c.col])), shape=c.shape).tocsr()
    return GraphDirichletForm(w, np.ones(form.n)), perm


def fit_inputs(case):
    if case == "cycle-nonuniform-measure":
        base = cycle_graph(120)
        measure = np.random.default_rng(5).uniform(0.5, 2.0, 120)
        form = GraphDirichletForm(base.conductances, measure)
        return form, np.geomspace(1.0, 300.0, 25), None
    form, perm = permuted_gasket(5, 4)
    dist = form.geodesic_distances()
    centres = [perm[0]] if case == "gasket-5-permuted" else perm[[0, 100, 200]]
    pairs = [(int(x), y) for x in centres for y in range(form.n) if dist[x, y] > 0]
    return form, np.geomspace(4.0, 4000.0, 13), pairs


@pytest.mark.parametrize("case", ["gasket-5-permuted", "cycle-nonuniform-measure",
                                  "gasket-5-three-centres"])
def test_sub_gaussian_fit_matches_point_loop(case):
    form, times, pairs = fit_inputs(case)
    dist = form.geodesic_distances()
    table = ht.heat_kernel(form, times, verify=False)
    grid = ht.BETA_GRID[::4]  # every fourth exponent keeps the loop fast
    fit = ht.sub_gaussian_fit(table, dist, pairs=pairs, beta_grid=grid)
    ref = loop_sub_gaussian_fit(table, dist, pairs=pairs, beta_grid=grid)
    assert fit.beta == ref.beta
    assert fit.n_points == ref.n_points
    for name in ("residual", "c_lower", "C_upper", "on_diagonal_slope", "volume_exponent"):
        assert getattr(fit, name) == pytest.approx(getattr(ref, name), rel=1e-12, abs=0), name
    assert list(fit.per_beta_residual) == list(ref.per_beta_residual)
    for beta, score in ref.per_beta_residual.items():
        if math.isinf(score):
            assert fit.per_beta_residual[beta] == score
        else:
            assert fit.per_beta_residual[beta] == pytest.approx(score, rel=1e-7, abs=0)
    assert sum(math.isfinite(v) for v in ref.per_beta_residual.values()) >= 10


@given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-10.0, 10.0)), min_size=2,
                max_size=60).filter(lambda pts: np.ptp([x for x, _ in pts]) >= 1.0))
@settings(max_examples=200, deadline=None)
def test_closed_form_line_equals_polyfit(points):
    X, Y = np.array(points).T
    slope, intercept = ht._line(X, Y)
    ref_slope, ref_intercept = np.polyfit(X, Y, 1)
    assert slope == pytest.approx(ref_slope, rel=1e-12, abs=1e-12)
    assert intercept == pytest.approx(ref_intercept, rel=1e-12, abs=1e-12)


def test_constant_fit_abscissa_scores_inf():
    assert ht._line(np.full(8, 3.0), np.arange(8.0)) == (0.0, 3.5)
    # seven pairs at distance 50 read at t = 100 and one at distance 5 read at
    # t = 1 share u = d^2 / t = 25, so the only beta sees eight equal X values
    form = path_graph(101)
    table = ht.heat_kernel(form, [1.0, 100.0], verify=False)
    with pytest.raises(ht.HeatError, match="insufficient dynamic range"):
        ht.sub_gaussian_fit(table, form.geodesic_distances(), pairs=[(0, 50)] * 7 + [(0, 5)],
                            beta_grid=[2.0])


def test_criterion_7_values_on_the_full_beta_grid():
    for form, times, centres, radii, beta, n_points, beta_hat in (
            (cycle_graph(200), np.geomspace(1.0, 400.0, 25), [0, 50, 100],
             np.geomspace(2, 40, 8), 2.04, 1546, 1.9246618568951315),
            (ht.sierpinski_gasket_graph(6), np.geomspace(4.0, 4000.0, 25), [0],
             np.geomspace(2, 32, 6), 2.25, 8582, 2.1873740457516506)):
        fit = ht.sub_gaussian_fit(ht.heat_kernel(form, times, verify=False),
                                  form.geodesic_distances())
        assert (fit.beta, fit.n_points) == (beta, n_points)
        assert ht.exit_time_walk_dimension(form, centres, radii)["beta_hat"] == beta_hat


def test_lazy_kernels_equal_eager_expression():
    form, _ = permuted_gasket(3, 1)
    table = ht.heat_kernel(form, [0.1, 1.0, 10.0, 100.0], verify=False)
    lam, phi = table.eigenvalues, table.eigenfunctions
    assert list(table.kernels) == [0.1, 1.0, 10.0, 100.0]
    assert len(table.kernels) == 4 and 10.0 in table.kernels and 2.0 not in table.kernels
    for t in table.times:
        assert np.array_equal(table.kernels[float(t)], (phi * np.exp(-lam * t)) @ phi.T)
        assert table.kernels[float(t)] is table.kernels[float(t)]  # cached
    with pytest.raises(KeyError):
        table.kernels[2.0]


def test_rows_match_kernel_rows():
    form, _ = permuted_gasket(4, 2)
    times = np.geomspace(0.5, 500.0, 7)
    table = ht.heat_kernel(form, times, verify=False)
    for x in (0, 17, form.n - 1):
        block = table.rows(x, times)
        assert block.shape == (times.size, form.n)
        for k, t in enumerate(times):
            np.testing.assert_allclose(block[k], table.kernel_at(t)[x], rtol=0, atol=1e-13)


def weighted_gasket(level, seed):
    """A relabelled gasket with seeded non-uniform conductances and masses."""
    form, _ = permuted_gasket(level, seed)
    rng = np.random.default_rng(seed)
    c = sps.triu(form.conductances).tocoo()
    w = sps.coo_matrix((rng.uniform(0.2, 5.0, c.nnz), (c.row, c.col)), shape=c.shape)
    return GraphDirichletForm((w + w.T).tocsr(), rng.uniform(0.5, 2.0, form.n))


def two_components():
    """A weighted gasket-2 and a weighted 7-cycle, their vertices interleaved."""
    a, b = weighted_gasket(2, 3), cycle_graph(7)
    w = sps.block_diag([a.conductances, 0.5 * b.conductances]).tocoo()
    m = np.r_[a.vertex_measure, np.linspace(0.6, 1.8, 7)]
    perm = np.random.default_rng(8).permutation(m.size)
    w = sps.coo_matrix((w.data, (perm[w.row], perm[w.col])), shape=w.shape).tocsr()
    out = np.empty_like(m)
    out[perm] = m
    return GraphDirichletForm(w, out)


@pytest.mark.parametrize("case", ["gasket-4-weighted", "two-components"])
def test_heat_kernel_matches_expm_oracle(case, monkeypatch):
    from scipy.linalg import expm

    form = weighted_gasket(4, 11) if case == "gasket-4-weighted" else two_components()
    L, w, m = form.laplacian().toarray(), form.conductances.toarray(), form.vertex_measure.copy()
    shapes = []
    eigh = ht.eigh
    monkeypatch.setattr(ht, "eigh", lambda *a, **k: shapes.append(a[0].shape) or eigh(*a, **k))
    times = [0.1, 1.0, 10.0, 100.0]
    if form.is_connected():
        table = ht.heat_kernel(form, times)
    else:
        with pytest.warns(UserWarning, match="disconnected"):
            table = ht.heat_kernel(form, times)
    assert shapes == [(form.n, form.n)]  # one solve, the n x n matrix passed first
    # the in-place build leaves the form's arrays untouched
    assert np.array_equal(form.laplacian().toarray(), L)
    assert np.array_equal(form.conductances.toarray(), w)
    assert np.array_equal(form.vertex_measure, m)
    phi = table.eigenfunctions
    np.testing.assert_allclose(phi.T @ (m[:, None] * phi), np.eye(form.n), rtol=0, atol=1e-12)
    for t in times:
        # p_t(x, y) m(y) is the transition matrix exp(-t diag(m)^-1 L)
        P = expm(-t * (L / m[:, None]))
        np.testing.assert_allclose(table.kernels[t] * m[None, :], P, rtol=0, atol=1e-12)


def test_fit_never_materialises_the_kernel_tables():
    form, perm = permuted_gasket(5, 6)
    dist = form.geodesic_distances()
    times = np.geomspace(4.0, 4000.0, 25)
    eager_bytes = times.size * form.n * form.n * 8
    tracemalloc.start()
    try:
        table = ht.heat_kernel(form, times, verify=False)
        ht.sub_gaussian_fit(table, dist, pairs=[(int(perm[0]), y) for y in range(form.n)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < eager_bytes / 2, (peak, eager_bytes)


def test_chaining_lower_bound_basics():
    form = cycle_graph(200)
    dist = form.geodesic_distances()
    table = ht.heat_kernel(form, [4.0], verify=False)
    # n = 1 on an admissible (near-diagonal) pair is exactly p_t
    p = ht.chaining_lower_bound(table, dist, 0, 4, 4.0, 1)
    assert p == pytest.approx(float(table.kernels[4.0][0, 4]))
    # inadmissible single hop gives 0
    assert ht.chaining_lower_bound(table, dist, 0, 100, 4.0, 1) == 0.0
    with pytest.raises(ht.HeatError):
        ht.chaining_lower_bound(table, dist, 0, 4, 4.0, 0)


def test_chaining_lower_bound_is_lower_bound_on_resolvable_pair():
    form = cycle_graph(60)
    dist = form.geodesic_distances()
    table = ht.heat_kernel(form, [9.0], verify=False)
    true = float(table.kernels[9.0][0, 20])
    assert true > 1e-12  # resolvable above float noise
    for n in range(1, 17):
        b = ht.chaining_lower_bound(table, dist, 0, 20, 9.0, n)
        assert b <= true + 1e-12


def test_chaining_lower_bound_disconnected_pair():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    form = GraphDirichletForm(sps.csr_matrix(w), np.ones(4))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = ht.heat_kernel(form, [1.0], verify=False)
    dist = form.geodesic_distances()
    assert ht.chaining_lower_bound(table, dist, 0, 3, 1.0, 4) == 0.0


def full_kernel_chaining_lower_bound(table, dist, x, y, t, n):
    """The full-kernel loop chaining_lower_bound ran before, kept as its reference.

    It builds the whole n x n kernel p_(t/n) and multiplies full-length vectors.
    """
    h = 8.0 * (t / n) ** 0.5
    P = table.kernel_at(t / n)
    admissible = dist <= h
    if n == 1:
        return float(P[x, y]) if admissible[x, y] else 0.0
    d_row, pred = csgraph.dijkstra(table.form.lengths, directed=False,
                                   indices=x, return_predecessors=True)
    if not np.isfinite(d_row[y]):
        return 0.0
    path = _walk_predecessors(pred, x, y)
    idx = np.linspace(0, len(path) - 1, n + 1).round().astype(int)
    chain = [path[i] for i in idx]
    m = table.form.vertex_measure
    T = np.where(admissible, P, 0.0)
    vec = np.zeros(table.form.n)
    vec[x] = 1.0
    for i in range(1, n):
        ball = dist[chain[i]] <= h / 2.0
        if not ball.any():
            return 0.0
        vec = (vec @ T) * m
        vec[~ball] = 0.0
    return float(vec @ T[:, y])


def chaining_cases():
    """(form, x, y, times, chain lengths): the criterion-8 cycle, cycle-60 and a
    gasket-4 with seeded non-uniform conductances and masses."""
    gasket = weighted_gasket(4, 7)
    far = int(np.argmax(gasket.geodesic_distances()[3]))
    return [(cycle_graph(200), 0, 100, [1.0, 4.0, 16.0], range(1, 33)),
            (cycle_graph(60), 0, 20, [9.0, 2.5], range(1, 17)),
            (gasket, 3, far, [1.0, 6.0, 30.0], range(1, 17))]


@pytest.mark.parametrize("case", range(3))
def test_chaining_lower_bound_matches_full_kernel_loop(case, monkeypatch):
    form, x, y, times, lengths = chaining_cases()[case]
    dist = form.geodesic_distances()
    ref_table = ht.heat_kernel(form, times, verify=False)
    ref = [[full_kernel_chaining_lower_bound(ref_table, dist, x, y, t, n) for n in lengths]
           for t in times]
    built = []
    kernel = ht._kernel
    monkeypatch.setattr(ht, "_kernel", lambda lam, phi, t: built.append(t) or kernel(lam, phi, t))
    table = ht.heat_kernel(form, times, verify=False)
    got = [[ht.chaining_lower_bound(table, dist, x, y, t, n) for n in lengths] for t in times]
    assert built == []  # no n x n kernel, and every grid time in table.kernels still unread
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)
    assert sum(b > 0 for row in ref for b in row) >= 20  # not a test of zeros


def test_chaining_lower_bound_empty_ball_is_zero():
    form = cycle_graph(20)
    table = ht.heat_kernel(form, [4.0], verify=False)
    # shifted distances: every ball of radius h / 2 misses even its own centre
    dist = form.geodesic_distances() + 100.0
    for n in (1, 2, 5):
        assert ht.chaining_lower_bound(table, dist, 0, 10, 4.0, n) == 0.0
        assert full_kernel_chaining_lower_bound(table, dist, 0, 10, 4.0, n) == 0.0


def test_chaining_lower_bound_rejects_bad_times_and_lengths():
    form = cycle_graph(20)
    dist = form.geodesic_distances()
    table = ht.heat_kernel(form, [4.0], verify=False)
    for t in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ht.HeatError, match="time must be finite and positive"):
            ht.chaining_lower_bound(table, dist, 0, 5, t, 2)
    for n in (2.5, 0, -3, 2.0):
        with pytest.raises(ht.HeatError, match="chain length"):
            ht.chaining_lower_bound(table, dist, 0, 5, 4.0, n)
    assert ht.chaining_lower_bound(table, dist, 0, 5, 4.0, np.int64(2)) > 0


def test_generalized_estimate_eval_gaussian_reduction():
    form = cycle_graph(40)
    space = sp.space_from_graph(form)
    psi = power_scale(2.0)
    phi = PhiTransform(psi)
    # eps(t) needs psi(eps)/eps * d <= t with eps above the lattice scale,
    # so t must exceed d = 10 here
    table = ht.heat_kernel(form, [20.0], verify=False)
    rep = ht.generalized_estimate_eval(table, space, psi, phi, 0, 10, 20.0)
    # geodesic space: d_eps = d, so the exponent is t * (d/t)^2 / 4 = d^2/(4t)
    assert rep["d_eps"] == pytest.approx(10.0)
    assert rep["exponent"] == pytest.approx(100.0 / 80.0)
    assert rep["p"] > 0
    assert rep["volume"] == 9.0  # V(0, psi^-1(20)): the 9 vertices within sqrt(20)


def test_gasket_counts():
    # level k: (3^(k+1) + 3) / 2 vertices, 3^(k+1) edges
    for level in range(0, 5):
        form = ht.sierpinski_gasket_graph(level)
        assert form.n == (3 ** (level + 1) + 3) // 2
        assert form.conductances.nnz // 2 == 3 ** (level + 1)
    with pytest.raises(ht.HeatError):
        ht.sierpinski_gasket_graph(9)


def float_gasket_reference(level):
    """The gasket generator on an equilateral triangle with rounded float keys."""
    corners = [(0.0, 0.0), (float(2 ** level), 0.0),
               (2 ** level / 2.0, 2 ** level * math.sqrt(3.0) / 2.0)]
    key_of = {}
    edges = set()

    def key(p):
        k = (round(p[0] * 2) / 2.0, round(p[1] * 1e9) / 1e9)
        if k not in key_of:
            key_of[k] = len(key_of)
        return key_of[k]

    def subdivide(a, b, c, depth):
        if depth == 0:
            ia, ib, ic = key(a), key(b), key(c)
            edges.update({frozenset((ia, ib)), frozenset((ib, ic)),
                          frozenset((ia, ic))})
            return
        ab = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        bc = ((b[0] + c[0]) / 2, (b[1] + c[1]) / 2)
        ca = ((c[0] + a[0]) / 2, (c[1] + a[1]) / 2)
        subdivide(a, ab, ca, depth - 1)
        subdivide(ab, b, bc, depth - 1)
        subdivide(ca, bc, c, depth - 1)

    subdivide(*corners, level)
    n = len(key_of)
    rows, cols = [], []
    for e in edges:
        i, j = tuple(e)
        rows += [i, j]
        cols += [j, i]
    return sps.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("level", range(8))
def test_gasket_equals_the_float_construction(level):
    got, ref = ht.sierpinski_gasket_graph(level).conductances, float_gasket_reference(level)
    assert got.shape == ref.shape
    for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices), (got.data, ref.data)):
        assert np.array_equal(a, b)


def test_gasket_corner_degrees():
    form = ht.sierpinski_gasket_graph(3)
    deg = np.asarray((form.conductances > 0).sum(axis=1)).ravel()
    assert sorted(np.unique(deg)) == [2, 4]
    assert (deg == 2).sum() == 3  # exactly the three corners


def test_mean_exit_time_single_vertex_ball():
    # ball = {x}: u = m(x)/deg(x); path interior vertex has degree 2
    form = path_graph(5)
    assert ht.mean_exit_time(form, 2, 1.0) == pytest.approx(0.5)
    assert ht.mean_exit_time(form, 0, 1.0) == pytest.approx(1.0)


def _cycle_table(n):
    form = cycle_graph(n)
    table = ht.heat_kernel(form, np.geomspace(0.5, 500.0, 10), verify=False)
    return table, form.geodesic_distances()


@pytest.mark.parametrize("call, message", [
    (lambda: ht.mean_exit_time(path_graph(41), -1, 2.0), "unknown point id -1"),  # 2.0
    (lambda: ht.exit_time_walk_dimension(path_graph(41), [-1], [2.0, 4.0, 20.0]),
     "unknown point id -1"),  # reported centre -1
    (lambda: ht.exit_time_walk_dimension(path_graph(41), [1.5], [2.0, 4.0, 20.0]),
     "point id 1.5 is not an integer"),  # read centre 1.5 and reported it as centre 1
    (lambda: ht.chaining_lower_bound(*_cycle_table(40), -1, 20, 4.0, 2),
     "unknown point id -1"),  # a bare IndexError
    (lambda: ht.sub_gaussian_fit(*_cycle_table(60), pairs=[(-60, y) for y in range(1, 30)]),
     "unknown point id -60"),  # read vertex 0
], ids=["exit-time", "walk-dimension", "walk-dimension-float", "chaining", "fit-pairs"])
def test_vertex_ids_are_checked_where_they_enter_heat(call, message):
    with pytest.raises(sp.SpaceError) as err:
        call()
    assert str(err.value) == message


def test_heat_kernel_keeps_one_copy_of_each_time():
    table = ht.heat_kernel(path_graph(3), [1.0, 0.5, 1.0])
    assert table.times.tolist() == list(table.kernels) == [0.5, 1.0]


def test_mean_exit_time_interval_profile():
    # interval {d < r} around the center of a long path: the discrete
    # quadratic profile u(j) = (r^2 - j^2)/2 gives E = r^2 / 2 at the center
    form = path_graph(41)
    for r in (2.0, 5.0, 10.0):
        assert ht.mean_exit_time(form, 20, r) == pytest.approx(r * r / 2, abs=1e-10)


def test_mean_exit_time_whole_graph_raises():
    form = path_graph(5)
    with pytest.raises(DirichletFormError):
        ht.mean_exit_time(form, 2, 100.0)


def test_exit_time_walk_dimension_path_is_2():
    # integer radii hit the exact quadratic profile E = r^2/2, so the
    # log-log slope is exactly 2
    form = path_graph(201)
    rep = ht.exit_time_walk_dimension(form, [100], [2.0, 4.0, 8.0, 16.0, 32.0])
    assert rep["beta_hat"] == pytest.approx(2.0, abs=1e-9)


def test_exit_times_reject_bad_radii():
    form = path_graph(41)
    for r in (0.0, -1.0, math.nan):
        with pytest.raises(ht.HeatError, match="radii must be positive"):
            ht.mean_exit_time(form, 20, r)
    for radii in ([0.0, 2.0, 40.0], [2.0, math.nan, 40.0], [math.nan, 2.0, 40.0]):
        with pytest.raises(ht.HeatError, match="radii must be positive"):
            ht.exit_time_walk_dimension(form, [20], radii)
    # an infinite radius keeps its meaning: the ball is the whole graph, skipped
    with pytest.raises(DirichletFormError):
        ht.mean_exit_time(form, 20, math.inf)
    assert (ht.exit_time_walk_dimension(form, [20], [2.0, 4.0, 20.0, math.inf])
            == ht.exit_time_walk_dimension(form, [20], [2.0, 4.0, 20.0]))


def test_exit_time_walk_dimension_shares_one_laplacian_and_a_row_per_centre(monkeypatch):
    form = weighted_gasket(4, 5)
    centres, radii = [0, 17, 40], np.geomspace(1.0, 12.0, 5)
    ref = {(x, float(r)): ht.mean_exit_time(form, x, r) for x in centres for r in radii}
    laplacians, rows = [], []
    laplacian, dijkstra = form.laplacian, csgraph.dijkstra
    monkeypatch.setattr(form, "laplacian", lambda: laplacians.append(1) or laplacian())
    monkeypatch.setattr(csgraph, "dijkstra", lambda *a, **k: rows.append(k["indices"])
                        or dijkstra(*a, **k))
    rep = ht.exit_time_walk_dimension(form, centres, radii)
    assert len(laplacians) == 1 and rows == centres
    assert rep["table"] and all(row["exit_time"] == ref[row["center"], row["radius"]]
                                for row in rep["table"])
