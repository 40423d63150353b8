"""Exact Dirichlet-form computations on finite weighted graphs.

Energy convention: for a conductance matrix ``w`` (symmetric, zero diagonal),

    E(f, f) = (1/2) * sum_{x,y} w_xy (f(x) - f(y))^2

with the sum over ordered pairs, i.e. each undirected edge contributes
``w_e * (df)^2``.  The per-vertex energy density splits each edge's
contribution evenly between its endpoints,

    gamma_f(x) = (1/2) * sum_y w_xy (f(x) - f(y))^2,

so that ``sum_x gamma_f(x) == E(f, f)`` and the capacity of a single unit
edge equals its conductance (series/parallel laws hold exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.linalg import eigh


class DirichletFormError(ValueError):
    pass


@dataclass
class GraphDirichletForm:
    """Weighted graph with conductances, vertex measure and edge lengths.

    ``conductances`` and ``lengths`` are symmetric sparse matrices with the
    same sparsity pattern; lengths default to 1 per edge and induce the
    geodesic metric.
    """

    conductances: sp.csr_matrix
    vertex_measure: np.ndarray
    lengths: sp.csr_matrix | None = None
    coords: np.ndarray | None = None
    _dist: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        w = sp.csr_matrix(self.conductances)
        if w.shape[0] != w.shape[1]:
            raise DirichletFormError("conductance matrix must be square")
        self.vertex_measure = np.asarray(self.vertex_measure, dtype=float)
        finite = [w.data, self.vertex_measure]
        if self.lengths is not None:
            finite.append(sp.csr_matrix(self.lengths).data)
        if not all(np.isfinite(a).all() for a in finite):
            raise DirichletFormError(
                "conductances, lengths and measure weights must be finite numbers")
        if abs(w - w.T).nnz:
            raise DirichletFormError("conductance matrix must be symmetric")
        if w.diagonal().any():
            raise DirichletFormError("conductance matrix must have zero diagonal")
        if (w.data < 0).any():
            raise DirichletFormError("conductances must be nonnegative")
        self.conductances = w
        if self.vertex_measure.shape != (w.shape[0],):
            raise DirichletFormError("vertex measure has wrong length")
        if (self.vertex_measure <= 0).any():
            raise DirichletFormError("vertex measure must be strictly positive")
        if self.lengths is None:
            L = w.copy()
            L.data = np.ones_like(L.data)
            self.lengths = L

    @property
    def n(self) -> int:
        return self.conductances.shape[0]

    def degree(self) -> np.ndarray:
        """Total conductance at each vertex."""
        return np.asarray(self.conductances.sum(axis=1)).ravel()

    def laplacian(self) -> sp.csr_matrix:
        """Combinatorial Laplacian D - W (not measure-normalized)."""
        return sp.diags(self.degree()) - self.conductances

    def geodesic_distances(self) -> np.ndarray:
        """All-pairs shortest-path distances with the edge lengths."""
        if self._dist is None:
            self._dist = csgraph.dijkstra(self.lengths, directed=False)
        return self._dist

    def components(self) -> tuple[int, np.ndarray]:
        return csgraph.connected_components(self.conductances, directed=False)

    def is_connected(self) -> bool:
        return self.components()[0] == 1


def path_graph(n: int, conductance: float = 1.0, measure: float = 1.0) -> GraphDirichletForm:
    i = np.arange(n - 1)
    w = sp.coo_matrix(
        (np.full(2 * (n - 1), conductance), (np.r_[i, i + 1], np.r_[i + 1, i])),
        shape=(n, n),
    ).tocsr()
    return GraphDirichletForm(w, np.full(n, measure))


def cycle_graph(n: int, conductance: float = 1.0, measure: float = 1.0) -> GraphDirichletForm:
    i = np.arange(n)
    j = (i + 1) % n
    w = sp.coo_matrix(
        (np.full(2 * n, conductance), (np.r_[i, j], np.r_[j, i])), shape=(n, n)
    ).tocsr()
    return GraphDirichletForm(w, np.full(n, measure))


def energy(form: GraphDirichletForm, f: np.ndarray) -> float:
    """Dirichlet energy E(f, f) = sum over edges of w_e (df)^2."""
    f = np.asarray(f, dtype=float)
    w = form.conductances.tocoo()
    return 0.5 * float(np.sum(w.data * (f[w.row] - f[w.col]) ** 2))


@dataclass
class EnergyMeasure:
    """Per-vertex split of the Dirichlet energy of a function."""

    density: np.ndarray
    total: float


def energy_measure(form: GraphDirichletForm, f: np.ndarray) -> EnergyMeasure:
    """Per-vertex energy density gamma_f with sum(gamma_f) = E(f, f).

    Satisfies sum_x g(x) gamma_f(x) = E(f, fg) - E(f^2, g)/2 for every g.
    """
    f = np.asarray(f, dtype=float)
    w = form.conductances.tocoo()
    contrib = 0.5 * w.data * (f[w.row] - f[w.col]) ** 2
    density = np.bincount(w.row, weights=contrib, minlength=form.n)
    return EnergyMeasure(density=density, total=float(density.sum()))


def capacity(form: GraphDirichletForm, A, B) -> tuple[float, np.ndarray]:
    """Effective conductance between vertex sets A and B.

    Solves the discrete Dirichlet problem (1 on A, 0 on B, harmonic
    elsewhere) and returns (E(f, f), equilibrium potential f).  Components
    touching neither A nor B get a constant potential and contribute no
    energy.
    """
    A = np.asarray(sorted(set(A)), dtype=int)
    B = np.asarray(sorted(set(B)), dtype=int)
    if A.size == 0 or B.size == 0:
        raise DirichletFormError("A and B must be nonempty")
    if np.intersect1d(A, B).size:
        raise DirichletFormError("A and B must be disjoint")
    n = form.n
    f = np.zeros(n)
    f[A] = 1.0

    boundary = np.zeros(n, dtype=bool)
    boundary[A] = True
    boundary[B] = True
    interior = ~boundary
    idx = np.flatnonzero(interior)
    if idx.size:
        L = form.laplacian().tocsr()
        ncomp, labels = form.components()
        # components with no A vertex are constant (1 only when pinned by A)
        comp_has_A = np.zeros(ncomp, dtype=bool)
        comp_has_A[labels[A]] = True
        comp_has_B = np.zeros(ncomp, dtype=bool)
        comp_has_B[labels[B]] = True
        solve_mask = comp_has_A[labels[idx]] & comp_has_B[labels[idx]]
        free = idx[solve_mask]
        f[idx[comp_has_A[labels[idx]] & ~comp_has_B[labels[idx]]]] = 1.0
        if free.size:
            Lff = L[np.ix_(free, free)]
            rhs = -L[free, :] @ f
            f[free] = spla.spsolve(Lff.tocsc(), rhs)
    return energy(form, f), f


def truncated_maximal(target, nu: np.ndarray, x: int, R: float,
                      dist_row: np.ndarray | None = None) -> float:
    """sup over 0 < r < R of nu(B(x,r)) / m(B(x,r)) (strict balls).

    ``target`` is a GraphDirichletForm or any object with ``dist`` and
    ``measure`` attributes.  The sup is exact: balls change only at the
    distinct distances from x, so it suffices to scan those below R.
    """
    if R <= 0:
        raise DirichletFormError("R must be positive")
    if dist_row is None:
        if hasattr(target, "dist"):
            dist_row = target.dist[x]
            m = target.measure
        else:
            dist_row = target.geodesic_distances()[x]
            m = target.vertex_measure
    else:
        m = target.vertex_measure if hasattr(target, "vertex_measure") else target.measure
    nu = np.asarray(nu, dtype=float)
    order = np.argsort(dist_row)
    d_sorted = dist_row[order]
    nu_cum = np.cumsum(nu[order])
    m_cum = np.cumsum(m[order])
    # ball {d <= c} is realized by radii just above c; admissible while c < R
    keep = d_sorted < R
    # drop repeated distance values except the last occurrence
    last = np.r_[d_sorted[1:] != d_sorted[:-1], True]
    sel = keep & last
    if not sel.any():
        return 0.0
    return float(np.max(nu_cum[sel] / m_cum[sel]))


def poincare_constant(form: GraphDirichletForm, psi, x: int, r: float,
                      A: float = 2.0) -> float:
    """Optimal constant C in int_{B(x,r)} (f - fbar)^2 dm <= C Psi(r) Gamma(f,f)(B(x,Ar)).

    Computed as the largest eigenvalue of the variance form against the
    induced Dirichlet form on B(x, A*r), divided by Psi(r).  Returns 0 when
    the inner ball is a single vertex.
    """
    dist = form.geodesic_distances()
    inner = np.flatnonzero(dist[x] < r)
    outer = np.flatnonzero(dist[x] < A * r)
    if inner.size <= 1:
        return 0.0
    W = form.conductances[np.ix_(outer, outer)]
    ncomp, _ = csgraph.connected_components(W, directed=False)
    if ncomp != 1:
        raise DirichletFormError("B(x, A*r) is disconnected in the graph")
    deg = np.asarray(W.sum(axis=1)).ravel()
    L = np.diag(deg) - W.toarray()

    m_in = form.vertex_measure[inner]
    # variance quadratic form on the inner ball, expressed on outer coordinates
    pos = {v: i for i, v in enumerate(outer)}
    P = np.zeros((inner.size, outer.size))
    for i, v in enumerate(inner):
        P[i, pos[v]] = 1.0
    mean_w = m_in / m_in.sum()
    Pc = P - mean_w[None, :] @ P  # subtract m-weighted ball average
    Q = Pc.T @ (m_in[:, None] * Pc)

    lam, V = eigh(L)
    nz = lam > lam[-1] * 1e-12 + 1e-15
    S = V[:, nz] / np.sqrt(lam[nz])
    M = S.T @ Q @ S
    mu_max = float(eigh(M, eigvals_only=True)[-1])
    return mu_max / psi(r)


def two_point_check(form: GraphDirichletForm, psi, u: np.ndarray, x: int,
                    y: int, R: float) -> dict:
    """Check |u(x)-u(y)|^2 against Psi(R) * (M_R Gamma(u,u)(x) + M_R Gamma(u,u)(y)).

    Returns lhs, the maximal-function core of the rhs, and their ratio (the
    empirical constant; 0 for constant u, inf flags a locality violation).
    """
    u = np.asarray(u, dtype=float)
    gamma = energy_measure(form, u).density
    Mx = truncated_maximal(form, gamma, x, R)
    My = truncated_maximal(form, gamma, y, R)
    lhs = float((u[x] - u[y]) ** 2)
    rhs_core = psi(R) * (Mx + My)
    ratio = 0.0 if lhs == 0 else (lhs / rhs_core if rhs_core > 0 else float("inf"))
    return {"lhs": lhs, "rhs_core": rhs_core, "ratio": ratio,
            "maximal_x": Mx, "maximal_y": My}


def _load_csv(path) -> np.ndarray:
    # the first line is a header only if some field of it is not a number
    with open(path) as fh:
        first = fh.readline()
    try:
        [float(f) for f in first.split(",")]
        skip = 0
    except ValueError:
        skip = 1
    return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip)


def _vertex_ids(column: np.ndarray, what: str) -> np.ndarray:
    if not (np.isfinite(column) & (column == np.round(column))).all():
        raise DirichletFormError(f"{what} has a non-integral vertex id")
    return column.astype(int)


def load_graph_csv(edge_path, vertex_path=None) -> GraphDirichletForm:
    """Read an edge list "u,v,conductance[,length]" and optional "id,measure" file.

    A single header line (a first line that does not parse as numbers) is
    tolerated in either file.  Vertex ids must be nonnegative integers and
    each edge may be listed once, in either orientation.
    """
    rows = np.atleast_2d(_load_csv(edge_path))
    if rows.shape[1] not in (3, 4):
        raise DirichletFormError("edge file must have 3 or 4 columns")
    u = _vertex_ids(rows[:, 0], "edge file")
    v = _vertex_ids(rows[:, 1], "edge file")
    c = rows[:, 2]
    if min(u.min(), v.min()) < 0:
        raise DirichletFormError("edge file has a negative vertex id")
    ends = np.sort(np.stack([u, v], axis=1), axis=1)
    if np.unique(ends, axis=0).shape[0] < ends.shape[0]:
        raise DirichletFormError("edge file lists an edge more than once")
    n = int(max(u.max(), v.max())) + 1
    w = sp.coo_matrix((np.r_[c, c], (np.r_[u, v], np.r_[v, u])), shape=(n, n)).tocsr()
    lengths = None
    if rows.shape[1] == 4:
        ln = rows[:, 3]
        lengths = sp.coo_matrix((np.r_[ln, ln], (np.r_[u, v], np.r_[v, u])),
                                shape=(n, n)).tocsr()
    measure = np.ones(n)
    if vertex_path is not None:
        vrows = np.atleast_2d(_load_csv(vertex_path))
        ids = _vertex_ids(vrows[:, 0], "vertex file")
        if ((ids < 0) | (ids >= n)).any():
            raise DirichletFormError(f"vertex file has an id outside 0..{n - 1}")
        measure[ids] = vrows[:, 1]
    return GraphDirichletForm(w, measure, lengths)


def save_graph_csv(form: GraphDirichletForm, edge_path) -> None:
    w = sp.triu(form.conductances).tocoo()
    lengths = np.asarray(sp.csr_matrix(form.lengths)[w.row, w.col]).ravel()
    with open(edge_path, "w") as fh:
        for i, j, c, ln in zip(w.row, w.col, w.data, lengths):
            fh.write(f"{i},{j},{c:.17g},{ln:.17g}\n")
