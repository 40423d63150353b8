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
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .chain import _walk_predecessors, chain_metric, epsilon_of_t
from .dirichlet import DirichletFormError, GraphDirichletForm
from .space import _pair_ids, ball_volume, check_ids, distance_profile

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


def _kernel(lam: np.ndarray, phi: np.ndarray, t: float) -> np.ndarray:
    """The n x n matrix p_t = sum_k exp(-lambda_k t) phi_k phi_k^T."""
    return (phi * np.exp(-lam * t)) @ phi.T


class _LazyKernels(Mapping):
    """p_t matrices keyed by time; each is computed on first read, then kept."""

    def __init__(self, lam: np.ndarray, phi: np.ndarray, times: np.ndarray):
        self._lam, self._phi = lam, phi
        self._store = dict.fromkeys(float(t) for t in times)  # None: not yet read

    def __getitem__(self, t):
        P = self._store[t]
        if P is None:
            P = self._store[t] = _kernel(self._lam, self._phi, t)
        return P

    def __setitem__(self, t, P):  # bench/check_gate.py plants a wrong kernel
        self._store[t] = P

    def __iter__(self):
        return iter(self._store)

    def __len__(self):
        return len(self._store)

    def __contains__(self, t):  # Mapping's default would compute the kernel
        return t in self._store


@dataclass
class HeatKernelTable:
    """p_t(x, y) over a time grid (``times``: one copy of each, ascending, as
    the keys of ``kernels``), held as spectral data: each n x n matrix in
    ``kernels`` is computed from the eigenpairs on first read, then kept."""

    form: GraphDirichletForm
    times: np.ndarray
    kernels: Mapping[float, np.ndarray]
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
        return _kernel(self.eigenvalues, self.eigenfunctions, key)

    def verify(self) -> None:
        # Positivity is checked up to roundoff: far off-diagonal entries at
        # small times underflow double precision and come out as spectral-sum
        # noise of either sign, so only entries below -1e-12 are violations.
        ts = sorted(self.kernels)
        d = kernel_defects(self, [(ts[0], ts[1])] if len(ts) >= 2 else [])
        for name, tol in (("symmetry", 1e-10), ("stochasticity", 1e-10), ("semigroup", 1e-9)):
            if d[name] > tol:
                raise HeatError(f"kernel {name} defect {d[name]} exceeds {tol}")
        if d["min_entry"] < -1e-12 and self.form.is_connected():
            raise HeatError(f"kernel entry {d['min_entry']} is not positive up to roundoff")


def kernel_defects(table: HeatKernelTable, semigroup_pairs) -> dict:
    """Largest |p_t - p_t^T| ("symmetry") and |p_t m - 1| ("stochasticity") over
    the table, largest |p_(t+s) - p_t diag(m) p_s| ("semigroup", 0.0 for none)
    over the given (t, s) pairs, and the smallest kernel entry ("min_entry")."""
    m = table.form.vertex_measure
    kernels = list(table.kernels.values())
    semigroup, u = 0.0, None
    for t, s in sorted(semigroup_pairs, key=sum):  # p_(t+s) once per distinct t + s
        if t + s != u:
            u, P = t + s, table.kernel_at(t + s)
        rhs = table.kernels[t] @ (m[:, None] * table.kernels[s])
        semigroup = max(semigroup, float(np.abs(P - rhs).max()))
    return {
        "symmetry": max((float(np.abs(P - P.T).max()) for P in kernels), default=0.0),
        "stochasticity": max((float(np.abs(P @ m - 1.0).max()) for P in kernels), default=0.0),
        "semigroup": semigroup,
        "min_entry": min((float(P.min()) for P in kernels), default=math.inf),
    }


def heat_kernel(form: GraphDirichletForm, times, verify: bool = True) -> HeatKernelTable:
    """Spectral heat kernel table; eigenvalues are clipped at zero.

    Disconnected graphs get per-component kernels (cross-component entries
    are exactly zero) with a warning.
    """
    n = form.n
    if n > 3000:
        raise HeatError("dense eigendecomposition is limited to n <= 3000")
    times = np.unique(np.asarray(times, dtype=float))  # one copy of each time, ascending
    if not ((times > 0) & (times < np.inf)).all():  # NaN fails too
        raise HeatError("times must be finite and positive")
    if not form.is_connected():
        warnings.warn("graph is disconnected; kernel vanishes across components")
    m = form.vertex_measure
    d = np.sqrt(m)
    # diag(d)^-1 L diag(d)^-1, symmetrised; built in place so that the
    # divide-and-conquer workspace (about 2 n^2 doubles) keeps peak memory flat
    A = form.laplacian().toarray()
    A /= d[:, None]
    A /= d[None, :]
    A = A + A.T
    A /= 2.0
    lam, phi = eigh(A, overwrite_a=True, driver="evd")
    del A
    lam = np.clip(lam, 0.0, None)
    phi /= d[:, None]
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


def _line(X: np.ndarray, Y: np.ndarray) -> tuple[float, float]:
    """Least-squares line of Y on X in centred closed form; slope 0 if X is constant."""
    xm, ym = X.mean(), Y.mean()
    dx = X - xm
    sxx = dx @ dx
    slope = (dx @ (Y - ym)) / sxx if sxx > 0 else 0.0
    return slope, ym - slope * xm


def sub_gaussian_fit(table: HeatKernelTable, dist: np.ndarray,
                     pairs=None, beta_grid=BETA_GRID) -> SubGaussianFit:
    """Fit the walk exponent of a sub-Gaussian heat-kernel envelope.

    Stage one regresses log p_t(x, x) against log t (on-diagonal volume
    behavior).  Stage two scans candidate exponents beta: for each, it
    regresses -log[p_t(x,y) V(x, t^(1/beta))] against (d^beta / t)^(1/(beta-1))
    over the window FIT_BAND[0] <= d^beta / t <= FIT_BAND[1], and keeps the
    beta with the smallest normalized residual.  Pairs within 10% of the
    diameter are excluded (finite-size tail pollution).

    Kernel values come from one ``table.rows`` block per distinct centre and
    ball volumes from one distance profile per centre.
    """
    m = table.form.vertex_measure
    times = np.asarray(sorted(table.kernels))
    if times[-1] / times[0] < 99.0:
        raise HeatError("fit requires a time grid spanning >= 2 decades")
    diam = float(dist[np.isfinite(dist)].max())
    if pairs is None:
        pairs = [(0, y) for y in range(dist.shape[0]) if dist[0, y] > 0]
    xs, ys = _pair_ids(table.form, pairs)
    ds = dist[xs, ys]
    keep = (0 < ds) & (ds <= (1 - BOUNDARY_EXCLUSION) * diam)
    xs, ys, ds = xs[keep], ys[keep], ds[keep]
    if ds.size == 0 or ds.max() / ds.min() < 9.9:
        raise HeatError("fit requires pairs spanning >= 1 decade of distance")

    centres, cidx = np.unique(xs, return_inverse=True)
    profiles = [distance_profile(dist[x], m) for x in centres]

    def volume(c, r):  # V(centre c, r) = m({d < r}) from its profile
        steps, volumes = profiles[c]
        return np.r_[0.0, volumes][np.searchsorted(steps, r, side="left")]

    # empirical volume-growth exponent over the distance range of the pairs
    radii = np.geomspace(max(ds.min(), 1e-9), ds.max(), 16)
    vol_exp = float(np.polyfit(np.log(radii), np.log(volume(cidx[0], radii)), 1)[0])

    # K[t, j] = p_t(x_j, y_j); V[c, b, t] = V(centre c, t^(1/beta_b))
    ball_radii = times ** (1.0 / np.asarray(beta_grid, dtype=float)[:, None])
    K = np.empty((times.size, xs.size))
    V = np.empty((centres.size,) + ball_radii.shape)
    for c, x in enumerate(centres):
        on, rows = cidx == c, table.rows(x, times)
        K[:, on] = rows[:, ys[on]]
        V[c] = volume(c, ball_radii)
        if c == cidx[0]:
            pdiag = rows[:, x]  # p_t(x, x) at the first pair's centre

    # stage one: on-diagonal decay exponent
    usable = pdiag > pdiag.min() * (1 + 1e-12)
    slope_on = (float(np.polyfit(np.log(times[usable]), np.log(pdiag[usable]), 1)[0])
                if usable.sum() >= 2 else 0.0)

    best = None
    per_beta = {}
    for b, beta in enumerate(beta_grid):
        u = (ds ** beta)[None, :] / times[:, None]  # t-major, pair-minor points
        keep = (FIT_BAND[0] <= u) & (u <= FIT_BAND[1]) & (K > 0)
        if keep.sum() < 8:
            per_beta[float(beta)] = math.inf
            continue
        X = u[keep] ** (1.0 / (beta - 1.0))
        Y = -np.log(K[keep] * V[cidx, b].T[keep])
        slope, intercept = _line(X, Y)
        resid = Y - (slope * X + intercept)
        score = (float(np.sqrt(np.mean(resid ** 2)) / (Y.std() + 1e-30))
                 if slope > 0 else math.inf)
        per_beta[float(beta)] = score
        if best is None or score < best[1]:
            best = (float(beta), score, slope, X, Y)
    if best is None or not math.isfinite(best[1]):
        raise HeatError("insufficient dynamic range for the envelope fit")
    beta, score, slope, X, Y = best
    gap = slope * X - Y  # bracketing constants: log of p V = exp(-Y) over exp(-slope X)
    return SubGaussianFit(beta=beta, c_lower=float(np.exp(gap.min())),
                          C_upper=float(np.exp(gap.max())), residual=score,
                          on_diagonal_slope=slope_on, volume_exponent=vol_exp,
                          n_points=int(X.size), per_beta_residual=per_beta)


def chaining_lower_bound(table: HeatKernelTable, dist: np.ndarray, x: int,
                         y: int, t: float, n: int) -> float:
    """Restricted Chapman-Kolmogorov lower bound on p_t(x, y) along a chain.

    The admissible hop scale is h = 8 (t/n)^(1/2): the n-1 intermediate
    sums run over balls of radius h/2 around evenly spaced points of a
    shortest path from x to y, and a transition factor p_{t/n}(u, v) is kept
    only when d(u, v) <= h (the near-diagonal window).  Since every discarded
    term is nonnegative, the result is a genuine lower bound on p_t(x, y) for
    every n; with n = 1 and an admissible pair it is exactly p_t(x, y).
    p_{t/n} is read as one block on x, y and the balls, never as an n x n kernel.
    """
    if not 0 < t < math.inf:  # NaN fails too
        raise HeatError("time must be finite and positive")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise HeatError("chain length must be an integer >= 1")
    check_ids(table.form, x, y)
    h = 8.0 * (t / n) ** 0.5
    lam, phi = table.eigenvalues, table.eigenfunctions
    if n == 1:
        return float((phi[x] * np.exp(-lam * t)) @ phi[y]) if dist[x, y] <= h else 0.0

    # chain points: hop-count interpolation along a shortest path
    d_row, pred = csgraph.dijkstra(table.form.lengths, directed=False,
                                   indices=x, return_predecessors=True)
    if not np.isfinite(d_row[y]):
        return 0.0
    path = _walk_predecessors(pred, x, y)
    idx = np.linspace(0, len(path) - 1, n + 1).round().astype(int)
    balls = dist[[path[i] for i in idx[1:-1]]] <= h / 2.0
    if not balls.any(axis=1).all():
        return 0.0

    # p_(t/n) on U = {x, y} and the balls, kept where d <= h
    U = np.union1d(np.flatnonzero(balls.any(axis=0)), [x, y])
    T = (phi[U] * np.exp(-lam * (t / n))) @ phi[U].T
    T[dist[np.ix_(U, U)] > h] = 0.0
    m = table.form.vertex_measure[U]
    vec = (U == x).astype(float)
    for ball in balls[:, U]:
        vec = (vec @ T) * m
        vec[~ball] = 0.0
    return float(vec @ T[:, np.searchsorted(U, y)])


def generalized_estimate_eval(table: HeatKernelTable, space, psi, phi,
                              x: int, y: int, t: float) -> dict:
    """Structural pieces of the d_eps-based two-sided heat-kernel form.

    Reports p_t(x, y), V(x, psi^-1(t)), the exponent t * phi(d_eps / t) at
    eps = eps(t, x, y), and the implied prefactor p * V.
    """
    eps = epsilon_of_t(space, psi, x, y, t)
    d_eps, _ = chain_metric(space, eps, x, y)
    p = float(table.kernel_at(t)[x, y])
    V = ball_volume(space, x, psi.inverse(t))
    exponent = t * phi(d_eps / t)
    return {"p": p, "volume": V, "epsilon": float(eps), "d_eps": float(d_eps),
            "exponent": float(exponent), "prefactor": p * V}


def sierpinski_gasket_graph(level: int) -> GraphDirichletForm:
    """Level-k pre-fractal gasket graph with unit conductances and masses.

    Level 0 is a triangle; level k has (3^(k+1) + 3) / 2 vertices and
    3^(k+1) edges.
    """
    if not 0 <= level <= 8:
        raise HeatError("gasket level must lie in [0, 8]")
    ids = {}  # integer lattice points: every midpoint below is exact
    edges = set()

    def subdivide(a, b, c, depth):
        if depth == 0:
            ia, ib, ic = (ids.setdefault(p, len(ids)) for p in (a, b, c))
            edges.update(frozenset(e) for e in ((ia, ib), (ib, ic), (ia, ic)))
            return
        ab, bc, ca = (((p[0] + q[0]) // 2, (p[1] + q[1]) // 2)
                      for p, q in ((a, b), (b, c), (c, a)))
        subdivide(a, ab, ca, depth - 1)
        subdivide(ab, b, bc, depth - 1)
        subdivide(ca, bc, c, depth - 1)

    subdivide((0, 0), (2 ** level, 0), (0, 2 ** level), level)
    n = len(ids)
    i, j = np.array([tuple(e) for e in edges]).T
    w = sp.coo_matrix((np.ones(2 * i.size), (np.r_[i, j], np.r_[j, i])), shape=(n, n)).tocsr()
    return GraphDirichletForm(w, np.ones(n))


def _exit_time(L: sp.csr_matrix, m: np.ndarray, d_row: np.ndarray, x: int, r: float) -> float:
    """mean_exit_time on the Laplacian L and the distance row d_row from x."""
    ball = np.flatnonzero(d_row < r)
    if ball.size == m.size:
        raise DirichletFormError("ball is the whole graph; exit time is infinite")
    u = spla.spsolve(L[np.ix_(ball, ball)].tocsc(), m[ball])
    return float(u[np.searchsorted(ball, x)])


def mean_exit_time(form: GraphDirichletForm, x: int, r: float) -> float:
    """E_x of the exit time of B(x, r): (D - W) u = m on the open ball, u = 0
    outside, by an exact linear solve; raises when the ball is the whole graph."""
    if not r > 0:  # NaN fails too
        raise HeatError("radii must be positive")
    check_ids(form, x)
    return _exit_time(form.laplacian().tocsr(), form.vertex_measure,
                      csgraph.dijkstra(form.lengths, directed=False, indices=x), x, r)


def exit_time_walk_dimension(form: GraphDirichletForm, centers, radii) -> dict:
    """Walk exponent from the scaling of mean exit times with the radius.

    beta_hat is the least-squares slope of log E_x[tau_B(x,r)] against log r
    over all (center, radius) combinations whose ball is a proper subset.
    The Laplacian is built once and one shortest-path row is read per center.
    """
    radii = np.asarray(sorted(radii), dtype=float)
    if not (radii > 0).all():  # NaN fails too
        raise HeatError("radii must be positive")
    if radii[-1] / radii[0] < 9.9:
        raise HeatError("radii must span at least one decade")
    check_ids(form, *centers)
    L, m = form.laplacian().tocsr(), form.vertex_measure
    rows = []
    for x in centers:
        d_row = csgraph.dijkstra(form.lengths, directed=False, indices=x)
        for r in radii:
            try:
                rows.append({"center": int(x), "radius": float(r),
                             "exit_time": _exit_time(L, m, d_row, x, r)})
            except DirichletFormError:  # the ball is the whole graph
                continue
    if len({row["radius"] for row in rows}) < 2:
        raise HeatError("not enough usable (center, radius) combinations")
    beta_hat = float(np.polyfit([math.log(row["radius"]) for row in rows],
                                [math.log(row["exit_time"]) for row in rows], 1)[0])
    return {"beta_hat": beta_hat, "table": rows}
