import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps

import chainkit.heat as ht
import chainkit.space as sp
from chainkit.dirichlet import (
    DirichletFormError,
    GraphDirichletForm,
    cycle_graph,
    path_graph,
)
from chainkit.scale import PhiTransform, power_scale


def two_vertex():
    return GraphDirichletForm(
        sps.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])), np.ones(2))


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
    assert rep["p"] > 0 and rep["volume"] > 0


def test_gasket_counts():
    # level k: (3^(k+1) + 3) / 2 vertices, 3^(k+1) edges
    for level in range(0, 5):
        form = ht.sierpinski_gasket_graph(level)
        assert form.n == (3 ** (level + 1) + 3) // 2
        assert form.conductances.nnz // 2 == 3 ** (level + 1)
    with pytest.raises(ht.HeatError):
        ht.sierpinski_gasket_graph(9)


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
