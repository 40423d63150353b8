"""Heat kernels on finite weighted graphs and walk-dimension estimation.

The continuous-time kernel comes from the spectral decomposition of the
measure-weighted Laplacian L = diag(m)^-1 (D - W): with the m-orthonormal
eigenpairs (lambda_k, phi_k),

    p_t(x, y) = sum_k exp(-lambda_k t) phi_k(x) phi_k(y),

which is symmetric, m-stochastic and satisfies the semigroup identity
exactly (up to floating point), with no parity artifacts on bipartite
graphs.  Exit times are computed by exact linear solves, not simulation.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import MutableMapping
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .dirichlet import DirichletFormError, GraphDirichletForm

# candidate walk exponents for envelope fitting; brackets the Gaussian case
# and the gasket value log5/log2
BETA_GRID = np.round(np.arange(1.80, 3.2001, 0.01), 2)
# off-diagonal fitting window on d^beta / t: the lower cut drops the
# near-equilibrium regime where the envelope is flat in beta, the upper cut
# drops deep-tail points whose kernel values sit near the float noise floor
FIT_BAND = (2.0, 50.0)
BOUNDARY_EXCLUSION = 0.10


class HeatError(ValueError):
    pass


class _LazyKernels(MutableMapping):
    """p_t matrices keyed by time; each is computed on first read, then kept."""

    def __init__(self, lam: np.ndarray, phi: np.ndarray, times: np.ndarray):
        self._lam, self._phi = lam, phi
        self._store = dict.fromkeys(float(t) for t in times)  # None: not yet read

    def __getitem__(self, t):
        P = self._store[t]
        if P is None:
            P = self._store[t] = (self._phi * np.exp(-self._lam * t)) @ self._phi.T
        return P

    def __setitem__(self, t, P):
        self._store[t] = P

    def __delitem__(self, t):
        del self._store[t]

    def __iter__(self):
        return iter(self._store)

    def __len__(self):
        return len(self._store)

    def __contains__(self, t):
        return t in self._store


@dataclass
class HeatKernelTable:
    """p_t(x, y) over a time grid, held as spectral data: each n x n matrix
    in ``kernels`` is computed from the eigenpairs on first read, then kept."""

    form: GraphDirichletForm
    times: np.ndarray
    kernels: MutableMapping[float, np.ndarray]
    eigenvalues: np.ndarray = field(repr=False)
    eigenfunctions: np.ndarray = field(repr=False)  # m-orthonormal columns

    def rows(self, x: int, times) -> np.ndarray:
        """p_t(x, .) for each t in times: one row per time, a T x n block."""
        lam, phi = self.eigenvalues, self.eigenfunctions
        return (np.exp(-np.outer(times, lam)) * phi[x]) @ phi.T

    def kernel_at(self, t: float) -> np.ndarray:
        key = float(t)
        if key in self.kernels:
            return self.kernels[key]
        lam, phi = self.eigenvalues, self.eigenfunctions
        return (phi * np.exp(-lam * key)) @ phi.T

    def verify(self, sym_tol: float = 1e-10, stoch_tol: float = 1e-10,
               semigroup_tol: float = 1e-9, pos_tol: float = 1e-12) -> None:
        # Positivity is checked up to roundoff: far off-diagonal entries at
        # small times underflow double precision and come out as spectral-sum
        # noise of either sign, so only entries below -pos_tol are violations.
        m = self.form.vertex_measure
        for t, P in self.kernels.items():
            if np.abs(P - P.T).max() > sym_tol:
                raise HeatError(f"kernel at t={t} is not symmetric")
            if np.abs(P @ m - 1.0).max() > stoch_tol:
                raise HeatError(f"kernel at t={t} is not m-stochastic")
            if self.form.is_connected() and (P < -pos_tol).any():
                raise HeatError(f"kernel at t={t} is not positive up to roundoff")
        ts = sorted(self.kernels)
        if len(ts) >= 2:
            t, s = ts[0], ts[1]
            lhs = self.kernel_at(t + s)
            rhs = self.kernels[t] @ (m[:, None] * self.kernels[s])
            if np.abs(lhs - rhs).max() > semigroup_tol:
                raise HeatError("semigroup identity failed")


def heat_kernel(form: GraphDirichletForm, times, verify: bool = True) -> HeatKernelTable:
    """Spectral heat kernel table; eigenvalues are clipped at zero.

    Disconnected graphs get per-component kernels (cross-component entries
    are exactly zero) with a warning.
    """
    n = form.n
    if n > 3000:
        raise HeatError("dense eigendecomposition is limited to n <= 3000")
    if not form.is_connected():
        warnings.warn("graph is disconnected; kernel vanishes across components")
    m = form.vertex_measure
    d = np.sqrt(m)
    A = (form.laplacian().toarray() / d[:, None]) / d[None, :]
    lam, V = eigh((A + A.T) / 2.0)
    lam = np.clip(lam, 0.0, None)
    phi = V / d[:, None]
    times = np.sort(np.asarray(times, dtype=float))
    if (times <= 0).any():
        raise HeatError("times must be positive")
    table = HeatKernelTable(form=form, times=times, kernels=_LazyKernels(lam, phi, times),
                            eigenvalues=lam, eigenfunctions=phi)
    if verify:
        table.verify()
    return table


@dataclass
class SubGaussianFit:
    beta: float
    c_lower: float
    C_upper: float
    residual: float
    on_diagonal_slope: float
    volume_exponent: float
    n_points: int
    per_beta_residual: dict


def sub_gaussian_fit(table: HeatKernelTable, dist: np.ndarray,
                     pairs=None, beta_grid=BETA_GRID,
                     band: tuple[float, float] = FIT_BAND) -> SubGaussianFit:
    """Fit the walk exponent of a sub-Gaussian heat-kernel envelope.

    Stage one regresses log p_t(x, x) against log t (on-diagonal volume
    behavior).  Stage two scans candidate exponents beta: for each, it
    regresses -log[p_t(x,y) V(x, t^(1/beta))] against (d^beta / t)^(1/(beta-1))
    over the window band[0] <= d^beta / t <= band[1], and keeps the beta
    with the smallest normalized residual.  Pairs within 10% of the
    diameter are excluded (finite-size tail pollution).

    Kernel values come from one ``table.rows`` block per distinct centre and
    ball volumes from one sorted volume profile per centre (searchsorted).
    """
    m = table.form.vertex_measure
    times = np.asarray(sorted(table.kernels))
    if times[-1] / times[0] < 99.0:
        raise HeatError("fit requires a time grid spanning >= 2 decades")
    diam = float(dist[np.isfinite(dist)].max())
    if pairs is None:
        x0 = 0
        pairs = [(x0, y) for y in range(dist.shape[0]) if dist[x0, y] > 0]
    pairs = [(x, y) for x, y in pairs if 0 < dist[x, y] <= (1 - BOUNDARY_EXCLUSION) * diam]
    ds = np.array([dist[x, y] for x, y in pairs])
    if ds.size == 0 or ds.max() / ds.min() < 9.9:
        raise HeatError("fit requires pairs spanning >= 1 decade of distance")

    # stage one: on-diagonal decay exponent
    x_on = pairs[0][0]
    pdiag = table.rows(x_on, times)[:, x_on]
    usable = pdiag > pdiag.min() * (1 + 1e-12)
    if usable.sum() >= 2:
        slope_on = float(np.polyfit(np.log(times[usable]), np.log(pdiag[usable]), 1)[0])
    else:
        slope_on = 0.0

    # empirical volume-growth exponent over the distance range of the pairs
    radii = np.geomspace(max(ds.min(), 1e-9), ds.max(), 16)
    vols = np.array([float(m[dist[x_on] < r].sum()) for r in radii])
    vol_exp = float(np.polyfit(np.log(radii), np.log(np.maximum(vols, m[x_on])), 1)[0])

    # K[t, j] = p_t(x_j, y_j); V[c, b, t] = V(centre c, t^(1/beta_b))
    xs, ys = np.array(pairs).T
    centres, cidx = np.unique(xs, return_inverse=True)
    ball_radii = times ** (1.0 / np.asarray(beta_grid, dtype=float)[:, None])
    K = np.empty((times.size, len(pairs)))
    V = np.empty((centres.size,) + ball_radii.shape)
    for c, x in enumerate(centres):
        on = cidx == c
        K[:, on] = table.rows(x, times)[:, ys[on]]
        order = np.argsort(dist[x], kind="stable")
        cum = np.concatenate(([0.0], np.cumsum(m[order])))
        V[c] = cum[np.searchsorted(dist[x, order], ball_radii, side="left")]

    best = None
    per_beta = {}
    for b, beta in enumerate(beta_grid):
        u = (ds ** beta)[None, :] / times[:, None]  # t-major, pair-minor points
        keep = (band[0] <= u) & (u <= band[1]) & (K > 0)
        if keep.sum() < 8:
            per_beta[float(beta)] = math.inf
            continue
        X = u[keep] ** (1.0 / (beta - 1.0))
        Y = -np.log(K[keep] * V[cidx, b].T[keep])
        slope, intercept = np.polyfit(X, Y, 1)
        resid = Y - (slope * X + intercept)
        score = float(np.sqrt(np.mean(resid ** 2)) / (Y.std() + 1e-30))
        if slope <= 0:
            score = math.inf
        per_beta[float(beta)] = score
        if best is None or score < best[1]:
            best = (float(beta), score, slope, intercept, X, Y)
    if best is None or not math.isfinite(best[1]):
        raise HeatError("insufficient dynamic range for the envelope fit")
    beta, score, slope, intercept, X, Y = best
    # bracketing constants: p V = exp(-Y) vs the fitted envelope exp(-slope X)
    C_upper = float(np.exp(np.max(-Y + slope * X)))
    c_lower = float(np.exp(np.min(-Y + slope * X)))
    return SubGaussianFit(beta=beta, c_lower=c_lower, C_upper=C_upper,
                          residual=score, on_diagonal_slope=slope_on,
                          volume_exponent=vol_exp, n_points=int(X.size),
                          per_beta_residual=per_beta)


def chaining_lower_bound(table: HeatKernelTable, dist: np.ndarray, x: int,
                         y: int, t: float, n: int,
                         near_diag: tuple[float, float] = (8.0, 2.0)) -> float:
    """Restricted Chapman-Kolmogorov lower bound on p_t(x, y) along a chain.

    near_diag = (C, beta) prescribes the admissible hop scale
    h = C (t/n)^(1/beta): the n-1 intermediate sums run over balls of radius
    h/2 around evenly spaced points of a shortest path from x to y, and a
    transition factor p_{t/n}(u, v) is kept only when d(u, v) <= h (the
    near-diagonal window).  Since every discarded term is nonnegative, the
    result is a genuine lower bound on p_t(x, y) for every n; with n = 1 and
    an admissible pair it is exactly p_t(x, y).
    """
    if n < 1:
        raise HeatError("chain length must be >= 1")
    C, beta = near_diag
    h = C * (t / n) ** (1.0 / beta)
    P = table.kernel_at(t / n)
    admissible = dist <= h
    if n == 1:
        return float(P[x, y]) if admissible[x, y] else 0.0

    # chain points: hop-count interpolation along a shortest path
    import scipy.sparse.csgraph as csgraph

    d_row, pred = csgraph.dijkstra(table.form.lengths, directed=False,
                                   indices=x, return_predecessors=True)
    if not np.isfinite(d_row[y]):
        return 0.0
    path = [y]
    while path[-1] != x:
        path.append(int(pred[path[-1]]))
    path = path[::-1]
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


def generalized_estimate_eval(table: HeatKernelTable, space, psi, phi,
                              x: int, y: int, t: float) -> dict:
    """Structural pieces of the d_eps-based two-sided heat-kernel form.

    Reports p_t(x, y), V(x, psi^-1(t)), the exponent t * phi(d_eps / t) at
    eps = eps(t, x, y), and the implied prefactor p * V.
    """
    from .chain import chain_metric, epsilon_of_t

    eps = epsilon_of_t(space, psi, x, y, t)
    d_eps, _ = chain_metric(space, eps, x, y)
    p = float(table.kernel_at(t)[x, y])
    r = psi.inverse(t) if hasattr(psi, "inverse") else t
    V = float(space.measure[space.dist[x] < r].sum()) if r > 0 else float(space.measure[x])
    exponent = t * phi(d_eps / t)
    return {"p": p, "volume": V, "epsilon": float(eps), "d_eps": float(d_eps),
            "exponent": float(exponent), "prefactor": p * V}


def sierpinski_gasket_graph(level: int) -> GraphDirichletForm:
    """Level-k pre-fractal gasket graph with unit conductances and masses.

    Level 0 is a triangle; level k has (3^(k+1) + 3) / 2 vertices and
    3^(k+1) edges.  Euclidean coordinates of the embedded vertices are
    attached for the metric option.
    """
    if not 0 <= level <= 8:
        raise HeatError("gasket level must lie in [0, 8]")
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
    w = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    coords = np.zeros((n, 2))
    for (px, py), i in key_of.items():
        coords[i] = (px, py)
    return GraphDirichletForm(w, np.ones(n), coords=coords)


def mean_exit_time(form: GraphDirichletForm, x: int, r: float,
                   dist: np.ndarray | None = None) -> float:
    """E_x of the exit time of B(x, r), by an exact linear solve.

    Solves (D - W) u = m on the open ball with u = 0 outside; raises when
    the ball is the whole graph (the walk never exits).
    """
    if dist is None:
        dist = form.geodesic_distances()
    ball = np.flatnonzero(dist[x] < r)
    if ball.size == form.n:
        raise DirichletFormError("ball is the whole graph; exit time is infinite")
    L = form.laplacian().tocsr()
    Lbb = L[np.ix_(ball, ball)].tocsc()
    u = spla.spsolve(Lbb, form.vertex_measure[ball])
    return float(u[np.searchsorted(ball, x)])


def exit_time_walk_dimension(form: GraphDirichletForm, centers, radii) -> dict:
    """Walk exponent from the scaling of mean exit times with the radius.

    beta_hat is the least-squares slope of log E_x[tau_B(x,r)] against log r
    over all (center, radius) combinations whose ball is a proper subset.
    """
    radii = np.asarray(sorted(radii), dtype=float)
    if radii[-1] / radii[0] < 9.9:
        raise HeatError("radii must span at least one decade")
    dist = form.geodesic_distances()
    logs_r, logs_E, rows = [], [], []
    for x in centers:
        for r in radii:
            if (dist[x] < r).sum() == form.n:
                continue
            E = mean_exit_time(form, x, r, dist)
            logs_r.append(math.log(r))
            logs_E.append(math.log(E))
            rows.append({"center": int(x), "radius": float(r), "exit_time": E})
    if len(set(logs_r)) < 2:
        raise HeatError("not enough usable (center, radius) combinations")
    beta_hat = float(np.polyfit(logs_r, logs_E, 1)[0])
    return {"beta_hat": beta_hat, "table": rows}
