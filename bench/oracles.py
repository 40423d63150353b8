"""Independent checks of chainkit's outputs.

Each check raises ``OracleFailure`` with a message.  The chain checks use
``networkx`` shortest paths, which share no code with the library's
``scipy.sparse.csgraph`` calls; the heat checks compare against
``scipy.linalg.expm`` of the generator.
"""

from __future__ import annotations

import math

import numpy as np


class OracleFailure(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise OracleFailure(message)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300) or a == b


class NxChains:
    """d_eps and N_eps from networkx on the graph {d(i, j) < eps}.

    Answers are cached, graphs are not, so the oracle adds little to the
    worker's peak memory.
    """

    def __init__(self, dist: np.ndarray):
        self.dist = dist
        self._answers: dict[tuple, tuple[float, float]] = {}

    def _answer(self, eps: float, x: int, y: int) -> tuple[float, float]:
        import networkx as nx

        key = (eps, x, y)
        if key not in self._answers:
            i, j = np.nonzero(np.triu(self.dist < eps, 1))
            g = nx.Graph()
            g.add_nodes_from(range(self.dist.shape[0]))
            g.add_weighted_edges_from(zip(i.tolist(), j.tolist(),
                                          self.dist[i, j].tolist()))
            try:
                self._answers[key] = (float(nx.dijkstra_path_length(g, x, y)),
                                      float(nx.shortest_path_length(g, x, y)))
            except nx.NetworkXNoPath:
                self._answers[key] = (math.inf, math.inf)
        return self._answers[key]

    def d_eps(self, eps: float, x: int, y: int) -> float:
        return self._answer(eps, x, y)[0]

    def n_eps(self, eps: float, x: int, y: int) -> float:
        return self._answer(eps, x, y)[1]


def check_d_eps(nxc: NxChains, eps: float, x: int, y: int, d_eps: float,
                what: str) -> None:
    expect = nxc.d_eps(eps, x, y)
    require(close(d_eps, expect),
            f"{what}: d_eps({x},{y}) at eps={eps} is {d_eps}, networkx gives {expect}")


def check_epsilon_of_t(nxc: NxChains, beta: float, x: int, y: int, t: float,
                       eps: float) -> None:
    """eps is sup{e : (e^beta / e) d_e(x, y) <= t}, capped at the diameter."""
    def F(e):
        return e ** (beta - 1.0) * nxc.d_eps(e, x, y)

    require(F(eps) <= t * (1 + 1e-12), f"epsilon_of_t({x},{y},t={t}) = {eps} is infeasible")
    above = eps * (1 + 1e-9)
    if above < float(nxc.dist.max()):
        require(F(above) > t, f"epsilon_of_t({x},{y},t={t}) = {eps} is not the supremum")


def hop_count(dist: np.ndarray, eps: float, x: int, y: int) -> float:
    """N_eps(x, y) by breadth-first search on the boolean matrix {d < eps}."""
    adj = dist < eps
    seen = np.zeros(dist.shape[0], dtype=bool)
    seen[x] = True
    frontier = seen.copy()
    hops = 0
    while not seen[y]:
        frontier = adj[frontier].any(axis=0) & ~seen
        if not frontier.any():
            return math.inf
        seen |= frontier
        hops += 1
    return float(hops)


def kernel_reference(form, t: float) -> np.ndarray:
    """p_t = expm(-t diag(m)^-1 (D - W)) with the 1/m(y) density factor."""
    from scipy.linalg import expm

    m = form.vertex_measure
    L = form.laplacian().toarray() / m[:, None]
    return expm(-t * L) / m[None, :]
