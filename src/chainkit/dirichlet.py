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

from .space import check_ids, sorted_profiles

BLOCK_ENTRIES = 1 << 17  # entries of one block temporary (1 MB of float64)


class DirichletFormError(ValueError):
    pass


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices of consecutive rows, each block at most BLOCK_ENTRIES entries wide."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


@dataclass
class GraphDirichletForm:
    """Weighted graph with conductances, vertex measure and edge lengths.

    ``conductances`` and ``lengths`` are symmetric sparse matrices with the
    same sparsity pattern; lengths default to 1 per edge and induce the
    geodesic metric.  ``edges`` is the one COO edge list the energies read.
    """

    conductances: sp.csr_matrix
    vertex_measure: np.ndarray
    lengths: sp.csr_matrix | None = None
    _dist: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        w = sp.csr_matrix(self.conductances)
        if w.shape[0] != w.shape[1]:
            raise DirichletFormError("conductance matrix must be square")
        self.vertex_measure = np.asarray(self.vertex_measure, dtype=float)
        lengths = [] if self.lengths is None else [sp.csr_matrix(self.lengths).data]
        if not all(np.isfinite(a).all() for a in [w.data, self.vertex_measure, *lengths]):
            raise DirichletFormError(
                "conductances, lengths and measure weights must be finite numbers")
        if abs(w - w.T).nnz:
            raise DirichletFormError("conductance matrix must be symmetric")
        if w.diagonal().any():
            raise DirichletFormError("conductance matrix must have zero diagonal")
        if (w.data <= 0).any():  # a stored zero would still join the geodesic graph
            raise DirichletFormError("stored conductances must be positive")
        if any((a <= 0).any() for a in lengths):  # a negative edge is a negative cycle
            raise DirichletFormError("stored lengths must be positive")
        self.conductances = w
        self.edges = w.tocoo()
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
        """All-pairs geodesic distances, computed once and read-only (spaces view it)."""
        if self._dist is None:
            D = csgraph.dijkstra(self.lengths, directed=False)
            self._dist = np.minimum(D, D.T)  # d(x,y), d(y,x) add a path's lengths in two orders
            self._dist.setflags(write=False)
        return self._dist

    def components(self) -> tuple[int, np.ndarray]:
        return csgraph.connected_components(self.conductances, directed=False)

    def is_connected(self) -> bool:
        return self.components()[0] == 1


def path_graph(n: int) -> GraphDirichletForm:
    i = np.arange(n - 1)
    w = sp.coo_matrix((np.ones(2 * (n - 1)), (np.r_[i, i + 1], np.r_[i + 1, i])),
                      shape=(n, n)).tocsr()
    return GraphDirichletForm(w, np.ones(n))


def cycle_graph(n: int) -> GraphDirichletForm:
    i = np.arange(n)
    j = (i + 1) % n
    w = sp.coo_matrix((np.ones(2 * n), (np.r_[i, j], np.r_[j, i])), shape=(n, n)).tocsr()
    return GraphDirichletForm(w, np.ones(n))


def dense_rows(f, sl: slice) -> np.ndarray:
    """Rows ``sl`` of a 2-D array, or of a CSR matrix as a dense array."""
    if not sp.issparse(f):
        return f[sl]
    ptr = f.indptr[sl.start:sl.stop + 1]
    out = np.zeros((ptr.size - 1, f.shape[1]))
    out[np.repeat(np.arange(ptr.size - 1), np.diff(ptr)),
        f.indices[ptr[0]:ptr[-1]]] = f.data[ptr[0]:ptr[-1]]
    return out


def energy(form: GraphDirichletForm, f):
    """Dirichlet energy E(f, f) = sum over edges of w_e (df)^2; a (k, n) array,
    dense or sparse, gives one energy per row, each row read dense and summed
    alone as a 1-D array."""
    f = f if sp.issparse(f) else np.asarray(f, dtype=float)
    F, w = (np.atleast_2d(f) if f.ndim < 2 else f), form.edges
    out = np.empty(F.shape[0])
    for sl in row_blocks(F.shape[0], w.data.size):  # take() keeps each row contiguous
        rows = dense_rows(F, sl)
        diff = rows.take(w.row, axis=1) - rows.take(w.col, axis=1)
        out[sl] = [0.5 * c.sum() for c in w.data * diff ** 2]
    return float(out[0]) if f.ndim == 1 else out


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
    w = form.edges
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
    n, A, B = form.n, sorted(set(A)), sorted(set(B))
    if not A or not B:
        raise DirichletFormError("A and B must be nonempty")
    # checked before the int cast, which would read 0.5 as 0 and True as 1
    bad = [v for v in sorted(A + B) if isinstance(v, (bool, np.bool_))
           or not isinstance(v, (int, np.integer)) or not 0 <= v < n]
    if bad:
        raise DirichletFormError(f"A and B must be vertex ids in 0..{n - 1}; got {bad[0]}")
    A, B = np.asarray(A, dtype=int), np.asarray(B, dtype=int)
    if np.intersect1d(A, B).size:
        raise DirichletFormError("A and B must be disjoint")
    f = np.zeros(n)
    f[A] = 1.0

    idx = np.setdiff1d(np.arange(n), np.r_[A, B])  # the interior
    if idx.size:
        L = form.laplacian().tocsr()
        _, labels = form.components()
        # components with no A vertex are constant (1 only when pinned by A)
        has_A, has_B = np.isin(labels[idx], labels[A]), np.isin(labels[idx], labels[B])
        free = idx[has_A & has_B]
        f[idx[has_A & ~has_B]] = 1.0
        if free.size:
            f[free] = spla.spsolve(L[np.ix_(free, free)].tocsc(), -L[free, :] @ f)
    return energy(form, f), f


def truncated_maximal(space, nu: np.ndarray, x, R: float):
    """sup over 0 < r < R of nu(B(x,r)) / m(B(x,r)) (strict balls).

    The sup is exact: balls change only at the distinct distances from x, so
    it suffices to scan those below R.  An array of centres gives one value
    per centre, read from blocks of sorted rows.
    """
    if not R > 0:  # NaN fails too
        raise DirichletFormError("R must be positive")
    centres = np.atleast_1d(x)
    check_ids(space, centres if np.ndim(x) else x)
    nu = np.asarray(nu, dtype=float)
    out = np.empty(centres.size)
    # a block's sort and sums hold about nine temporaries the size of its rows
    for sl in row_blocks(centres.size, 9 * space.measure.size):
        d, last, nu_ball, m_ball = sorted_profiles(space.dist[centres[sl]], nu,
                                                   space.measure)
        # ball {d <= r} is realized by radii just above r, at the last of its
        # run of distances; admissible while r < R, which holds for d(x, x) = 0
        out[sl] = np.where(last & (d < R), nu_ball / m_ball, -np.inf).max(axis=1)
    return float(out[0]) if np.ndim(x) == 0 else out


def poincare_constant(space, psi, x: int, r: float) -> float:
    """Optimal constant C in int_{B(x,r)} (f - fbar)^2 dm <= C Psi(r) Gamma(f,f)(B(x,2r)).

    The balls are the graph-backed ``space``'s own; the constant is the
    largest eigenvalue of the variance form against the induced Dirichlet
    form on B(x, 2r), divided by Psi(r).  Both forms vanish on constants, so
    adding 1 1^T to the energy makes it definite without changing any ratio.
    Returns 0 when the inner ball is a single vertex.
    """
    if space.graph is None:
        raise DirichletFormError("the Poincare constant needs a graph-backed space")
    check_ids(space, x)
    if not r > 0:  # NaN fails too
        raise DirichletFormError("r must be positive")
    inner = np.flatnonzero(space.dist[x] < r)
    outer = np.flatnonzero(space.dist[x] < 2.0 * r)
    if inner.size <= 1:
        return 0.0
    W = space.graph.conductances[np.ix_(outer, outer)]
    ncomp, _ = csgraph.connected_components(W, directed=False)
    if ncomp != 1:
        raise DirichletFormError("B(x, 2r) is disconnected in the graph")
    L = np.diag(np.asarray(W.sum(axis=1)).ravel()) - W.toarray()
    # variance form diag(m) - m m^T / m(B) on the inner ball, in outer coordinates
    m = np.zeros(outer.size)
    m[np.searchsorted(outer, inner)] = space.measure[inner]
    Q = np.diag(m) - np.outer(m, m) / m.sum()
    return float(eigh(Q, L + 1.0, eigvals_only=True)[-1]) / psi(r)


def _two_point(u: np.ndarray, x: int, y: int, psi_R: float, Mx: float, My: float) -> dict:
    """The two-point record from u and the maximal values M_R Gamma(u,u) at x, y."""
    lhs = float((u[x] - u[y]) ** 2)
    rhs_core = psi_R * (Mx + My)
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
        if vrows.shape[1] != 2:
            raise DirichletFormError("vertex file must have 2 columns")
        ids = _vertex_ids(vrows[:, 0], "vertex file")
        if ((ids < 0) | (ids >= n)).any():
            raise DirichletFormError(f"vertex file has an id outside 0..{n - 1}")
        listed, count = np.unique(ids, return_counts=True)
        if (count > 1).any():  # a later row would overwrite the mass
            raise DirichletFormError(
                f"vertex file lists vertex {listed[np.argmax(count > 1)]} more than once")
        measure[ids] = vrows[:, 1]
    return GraphDirichletForm(w, measure, lengths)


def save_graph_csv(form: GraphDirichletForm, edge_path) -> None:
    """One "u,v,conductance,length" row per edge, u < v.  The edge list
    records neither isolated vertices nor the vertex measure."""
    w = sp.triu(form.conductances).tocoo()
    lengths = np.asarray(sp.csr_matrix(form.lengths)[w.row, w.col]).ravel()
    with open(edge_path, "w") as fh:
        for i, j, c, ln in zip(w.row, w.col, w.data, lengths):
            fh.write(f"{i},{j},{c:.17g},{ln:.17g}\n")
