"""Reference implementations and input builders that more than one test module reads.

Each quantity has one reference here or in the only module that reads it;
test modules import from here and never from one another.
"""

import numpy as np
import scipy.sparse as sps

import chainkit.dirichlet as df
import chainkit.space as sp


def unit_line(n=11):
    return sp.build_space({"type": "euclidean", "coords": np.arange(float(n)).tolist()})


def two_vertex(w=1.0):
    return df.GraphDirichletForm(
        sps.csr_matrix(np.array([[0.0, w], [w, 0.0]])), np.ones(2))


def energy_by_tocoo(form, f):
    # the former energy, which built a COO copy of the conductances per call
    w = form.conductances.tocoo()
    return 0.5 * float(np.sum(w.data * (f[w.row] - f[w.col]) ** 2))


def truncated_maximal_reference(space, nu, x, R):
    # an independent scan: argsort, two cumulative sums and a last-of-ties mask;
    # d(x, x) = 0 < R, so the mask selects at least the ball {x}
    order = np.argsort(space.dist[x])
    d_sorted = space.dist[x, order]
    nu_cum = np.cumsum(nu[order])
    m_cum = np.cumsum(space.measure[order])
    sel = (d_sorted < R) & np.r_[d_sorted[1:] != d_sorted[:-1], True]
    return float(np.max(nu_cum[sel] / m_cum[sel]))


def two_point_check(space, psi, u: np.ndarray, x: int, y: int, R: float) -> dict:
    """|u(x)-u(y)|^2 against Psi(R) * (M_R Gamma(u,u)(x) + M_R Gamma(u,u)(y)) on a
    graph-backed space, from u alone: the oracle for the proof replay's two-point
    record, which reuses the replay's energy measure and member maxima."""
    u = np.asarray(u, dtype=float)
    gamma = df.energy_measure(space.graph, u).density
    return df._two_point(u, x, y, psi(R), df.truncated_maximal(space, gamma, x, R),
                         df.truncated_maximal(space, gamma, y, R))
