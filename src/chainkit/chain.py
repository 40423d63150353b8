"""Chain metrics, minimal chain counts, and the chain inequalities.

An eps-chain is a point sequence whose consecutive distances are strictly
below eps.  The chain metric d_eps(x, y) is the least total length of such a
chain; N_eps(x, y) is the least hop count.  On a finite space both are
realized by shortest paths in the proximity graph whose edges are exactly
the pairs at distance < eps, so Dijkstra / BFS give the infima exactly.
Ties at exactly eps are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ._report import Rows
from .space import FiniteMetricMeasureSpace, _pair_ids, check_ids


class ChainError(ValueError):
    pass


@dataclass
class ProximityIndex:
    """Graph on the space's points with an edge (i, j) iff d(i, j) < eps."""

    space: FiniteMetricMeasureSpace
    epsilon: float
    edges: sp.csr_matrix

    @classmethod
    def build(cls, space: FiniteMetricMeasureSpace, epsilon: float) -> "ProximityIndex":
        if not epsilon > 0:  # NaN fails too
            raise ChainError("epsilon must be positive")
        adj = space.dist < epsilon
        np.fill_diagonal(adj, False)
        flat = np.flatnonzero(adj)  # one row-major read of the mask; row k starts at k n
        indptr = np.searchsorted(flat, np.arange(space.n + 1) * space.n)
        edges = sp.csr_matrix((space.dist.take(flat), flat % space.n, indptr), shape=adj.shape)
        return cls(space=space, epsilon=epsilon, edges=edges)

    def _narrowed(self, epsilon: float) -> "ProximityIndex":
        """This index's edges with d < epsilon (a smaller one), in O(edges)."""
        e = self.edges
        keep = e.data < epsilon
        indptr = np.r_[0, np.cumsum(keep)][e.indptr]
        edges = sp.csr_matrix((e.data[keep], e.indices[keep], indptr), shape=e.shape)
        return ProximityIndex(space=self.space, epsilon=epsilon, edges=edges)

    def shortest_paths(self, sources, weighted: bool = True):
        """Distances and predecessors from ``sources`` in one Dijkstra call.

        An int gives 1-D rows; an array of sources gives one row per source.
        The edge matrix is symmetric, like ``dist``, so a directed search is the
        undirected one minus its per-call transpose and no-op second relaxation.
        """
        return csgraph.dijkstra(
            self.edges, directed=True, indices=sources,
            return_predecessors=True, unweighted=not weighted,
        )


@dataclass
class ChainAnalysis:
    """Per-(eps, x, y) chain record with witnesses."""

    x: int
    y: int
    epsilon: float
    d_eps: float
    n_eps: float
    witness_metric: list[int]
    witness_hops: list[int]

    def verify(self, space: FiniteMetricMeasureSpace) -> None:
        """Re-sum the witnesses and re-check admissibility."""
        if math.isinf(self.d_eps) != math.isinf(self.n_eps):
            raise ChainError("finiteness of d_eps and n_eps must coincide")
        if math.isinf(self.d_eps):
            return
        for path, total, count in (
            (self.witness_metric, self.d_eps, None),
            (self.witness_hops, None, self.n_eps),
        ):
            hops = [space.dist[a, b] for a, b in zip(path[:-1], path[1:])]
            if any(h >= self.epsilon for h in hops):
                raise ChainError("witness hop at or above epsilon")
            if path[0] != self.x or path[-1] != self.y:
                raise ChainError("witness endpoints do not match")
            if total is not None and not math.isclose(
                sum(hops), total, rel_tol=1e-12, abs_tol=1e-300
            ):
                raise ChainError("witness length does not reproduce d_eps")
            if count is not None and len(hops) != count:
                raise ChainError("witness hop count does not reproduce n_eps")


def _walk_predecessors(pred, source: int, target: int) -> list[int]:
    path = [target]
    while path[-1] != source:
        p = pred[path[-1]]
        if p < 0:
            return []
        path.append(int(p))
    return path[::-1]


def _shortest_chain(index: ProximityIndex, x: int, y: int, weighted: bool):
    """Least eps-chain length (a float) if weighted, else hop count (an int),
    and a witness, from one single-source search of ``index``; 0 when x == y,
    inf and [] when no eps-chain joins them.  The ids are the caller's to check."""
    x, y, value = int(x), int(y), float if weighted else int
    if x == y:
        return value(0), [x]
    dist, pred = index.shortest_paths(x, weighted=weighted)
    if not np.isfinite(dist[y]):
        return math.inf, []
    return value(dist[y]), _walk_predecessors(pred, x, y)


def chain_metric(space: FiniteMetricMeasureSpace, epsilon: float, x: int,
                 y: int) -> tuple[float, list[int]]:
    """d_eps(x, y) and an optimal witness chain (empty when disconnected)."""
    check_ids(space, x, y)
    return _shortest_chain(ProximityIndex.build(space, epsilon), x, y, weighted=True)


def min_chain_count(space: FiniteMetricMeasureSpace, epsilon: float, x: int,
                    y: int) -> tuple[float, list[int]]:
    """N_eps(x, y) and a hop-minimal witness; 0 when x == y."""
    check_ids(space, x, y)
    return _shortest_chain(ProximityIndex.build(space, epsilon), x, y, weighted=False)


def analyze_pair(space: FiniteMetricMeasureSpace, epsilon: float, x: int,
                 y: int, index: ProximityIndex | None = None) -> ChainAnalysis:
    """The verified d_eps and N_eps of (x, y) with their witnesses, both read
    from one index: ``index`` (built on this space at this epsilon) or a new one."""
    check_ids(space, x, y)
    if index is None:
        index = ProximityIndex.build(space, epsilon)
    elif index.space is not space or index.epsilon != epsilon:
        raise ChainError("proximity index was built for another space or epsilon")
    d_eps, wm = _shortest_chain(index, x, y, weighted=True)
    n_eps, wh = _shortest_chain(index, x, y, weighted=False)
    analysis = ChainAnalysis(x=int(x), y=int(y), epsilon=epsilon, d_eps=d_eps,
                             n_eps=n_eps, witness_metric=wm, witness_hops=wh)
    analysis.verify(space)
    return analysis


def sandwich_violations(eps: float, d_eps, n_eps) -> int:
    """How many (d_eps, N_eps) break ceil(d_eps/eps) <= N_eps <= 9 ceil(d_eps/eps).

    Scalars or arrays; x == y (d_eps = N_eps = 0) holds since ceil(0) = 0, and
    a disconnected pair (both infinite) is never counted."""
    blocks = np.ceil(d_eps / eps)
    return int(np.count_nonzero((n_eps < blocks) | (n_eps > 9 * blocks)))


def chain_sandwich_check(analysis: ChainAnalysis) -> bool:
    """ceil(d_eps/eps) <= N_eps <= 9 ceil(d_eps/eps); requires d_eps finite."""
    if math.isinf(analysis.d_eps):
        raise ChainError("chain sandwich requires finite d_eps")
    return not sandwich_violations(analysis.epsilon, analysis.d_eps, analysis.n_eps)


def chain_sweep(space: FiniteMetricMeasureSpace, epsilons, xs, ys):
    """Yield (eps, chains) per eps, where ``chains(weighted=True)`` reads d_eps
    and ``chains(weighted=False)`` N_eps (inf if disconnected) of the pairs
    (xs[k], ys[k]), with ``witness(k)``, pair k's chain ([] if disconnected)
    walked from the predecessors of the same search: one index per eps, one
    search per read from the distinct xs.  A source's row of that search is
    its single-source search, so the witnesses are ``chain_metric``'s and
    ``min_chain_count``'s.
    """
    sources, rows = np.unique(xs, return_inverse=True)
    for eps in epsilons:
        index = ProximityIndex.build(space, eps)

        def chains(weighted: bool = True, index=index):  # bound to this eps's index
            dist, pred = index.shortest_paths(sources, weighted=weighted)
            return dist[rows, ys], lambda k: _walk_predecessors(
                pred[rows[k]], int(xs[k]), int(ys[k]))
        yield eps, chains


def pair_analyses(space: FiniteMetricMeasureSpace, epsilons, xs, ys):
    """Yield the verified ``ChainAnalysis`` of every eps and pair (xs[k], ys[k]),
    eps by eps, all read from one ``chain_sweep``: one search per kind per eps."""
    check_ids(space, xs, ys)
    for eps, chains in chain_sweep(space, epsilons, xs, ys):
        (d_eps, metric), (n_eps, hops) = chains(), chains(weighted=False)
        for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            analysis = ChainAnalysis(
                x=x, y=y, epsilon=eps, d_eps=float(d_eps[k]),
                n_eps=int(n_eps[k]) if np.isfinite(n_eps[k]) else math.inf,
                witness_metric=metric(k), witness_hops=hops(k))
            analysis.verify(space)
            yield analysis


def main_inequality_scan(space: FiniteMetricMeasureSpace, psi, pairs,
                         epsilons) -> dict:
    """Scan the ratio (d_eps^2/eps^2) / (psi(d)/psi(eps)) over pairs and scales.

    Only (eps, x, y) with d(x, y) >= eps and finite d_eps participate; others
    are counted and skipped.  Also tabulates psi(eps) d_eps / eps per eps (the
    vanishing functional whose trend is reported, not its limit).
    """
    xs, ys = _pair_ids(space, pairs)
    d = space.dist[xs, ys]
    worst = 0.0
    argmax = None
    parts = [(np.empty(0, int),) * 2 + (np.empty(0),) * 4]  # x, y, eps, d, d_eps, ratio
    trend = []
    skipped = 0
    for eps, chains in chain_sweep(space, epsilons, xs, ys):
        d_eps = chains()[0]
        keep = np.flatnonzero((d >= eps) & np.isfinite(d_eps))
        skipped += xs.size - keep.size
        if not keep.size:
            continue
        chain, eps_f = d_eps[keep], float(eps)
        with np.errstate(all="ignore"):  # values out of float range are the errors below
            psi_eps, psi_d = psi(eps), psi(d[keep])
            # Python pow per entry: an array's ** 2 can differ from a scalar's by
            # one ulp; the divisions are elementwise IEEE, as on scalars
            ratio = (np.array([c ** 2 for c in chain.tolist()]) / eps ** 2) / (psi_d / psi_eps)
        if not np.all(np.isfinite(psi_at := np.r_[psi_eps, psi_d]) & (psi_at > 0)):
            raise ChainError(f"psi is not finite and positive at eps = {eps} "
                             "or at a distance d >= eps")
        if np.isnan(ratio).any():
            raise ChainError(f"the ratio is NaN at eps = {eps}: a square or a quotient "
                             "left the float range")
        parts.append((xs[keep], ys[keep], np.full(keep.size, eps_f), d[keep], chain, ratio))
        trend.append({"eps": eps_f,
                      "max_vanishing_functional": float((psi_eps * chain / eps).max())})
        k = int(np.argmax(ratio))  # the first max, as a row loop takes it
        if ratio[k] > worst:
            worst = float(ratio[k])
            argmax = (eps_f, int(xs[keep[k]]), int(ys[keep[k]]))
    table = Rows(**dict(zip(("x", "y", "eps", "d", "d_eps", "ratio"),
                            map(np.concatenate, zip(*parts)))))
    return {"worst_ratio": worst, "argmax": argmax, "table": table,
            "trend": trend, "skipped": skipped}


def chain_condition_estimate(space: FiniteMetricMeasureSpace, epsilons,
                             pairs=None) -> dict:
    """K_hat = max over eps and pairs of d_eps(x, y) / d(x, y).

    Disconnection at some eps is reported as an infinite K_hat together with
    the offending scale and the first disconnected pair.  Only the strict
    running minima of ``epsilons`` are searched, and a NaN or non-positive eps,
    which raises.  This is exact: each eps searched before a return was
    connected, a larger eps's edge set holds its edges, and Dijkstra's float
    distance is the least float path sum, so no d_eps and no ratio grows there.
    """
    if pairs is None:
        pairs = np.transpose(np.triu_indices(space.n, 1))
    xs, ys = _pair_ids(space, pairs)
    xs, ys = xs[xs != ys], ys[xs != ys]
    d = space.dist[xs, ys]

    def running_minima(low=math.inf):
        for eps in epsilons:
            if not eps >= low:
                low = eps
                yield eps

    K_hat = 1.0
    argmax = None
    for eps, chains in chain_sweep(space, running_minima(), xs, ys):
        ratio = chains()[0] / d
        cut = np.flatnonzero(np.isinf(ratio))
        if cut.size:
            return {"K_hat": math.inf, "disconnected_at": float(eps),
                    "argmax": (float(eps), int(xs[cut[0]]), int(ys[cut[0]]))}
        if ratio.size and ratio.max() > K_hat:
            k = int(np.argmax(ratio))
            K_hat = float(ratio[k])
            argmax = (float(eps), int(xs[k]), int(ys[k]))
    return {"K_hat": K_hat, "disconnected_at": None, "argmax": argmax}


def _d_eps_steps(space: FiniteMetricMeasureSpace, breaks, x: int, y: int,
                 below=lambda j, d_eps: j - 1):
    """Yield (j, k, d_eps) from the top down: d_eps(x, y) is that float on the
    intervals j..k of ``breaks`` (see ``d_eps_step_function``); x != y are
    checked ids.  Each step searches the narrowed index itself.

    The optimal witness at interval k has longest hop breaks[j]; each edge set
    {d <= breaks[i]}, j <= i <= k, keeps that witness and adds no path, so
    d_eps is the same float on all of them and the walk goes on at
    ``below(j, d_eps)``, j - 1 unless the caller skips intervals.  It stops at
    the first disconnected interval: the ones below are too.
    """
    k, index = breaks.size - 1, None  # one build at the top break, then narrowings
    while k >= 0:
        eps = np.nextafter(breaks[k], math.inf)
        index = ProximityIndex.build(space, eps) if index is None else index._narrowed(eps)
        d_eps, witness = _shortest_chain(index, x, y, weighted=True)
        if math.isinf(d_eps):
            return
        j = int(np.searchsorted(breaks, space.dist[witness[:-1], witness[1:]].max()))
        yield j, k, d_eps
        k = below(j, d_eps)


def d_eps_step_function(space: FiniteMetricMeasureSpace, x: int, y: int):
    """d_eps(x, y) as a step function of eps.

    Returns (breaks, values): d_eps equals values[k] on the interval
    (breaks[k], breaks[k+1]] and values[-1] for eps > breaks[-1].  The breaks
    are the distinct positive pairwise distances, where proximity edges
    appear, so on interval k the edge set is {d <= breaks[k]}.  The values
    come from Dijkstra calls walked from the top; a float tie can split a step
    of d_eps into several (a tied witness's longest hop need not be least).
    """
    check_ids(space, x, y)
    breaks = space.critical_radii()
    if x == y:
        return breaks, np.zeros(breaks.size)
    values = np.full(breaks.size, math.inf)
    for j, k, d_eps in _d_eps_steps(space, breaks, x, y):
        values[j:k + 1] = d_eps
    return breaks, values


def epsilon_of_t(space: FiniteMetricMeasureSpace, psi, x: int, y: int,
                 t: float) -> float:
    """sup{eps > 0 : F(eps) = (psi(eps)/eps) d_eps(x, y) <= t}, at most the diameter.

    Exact: d_eps is a step function of eps with jumps at pairwise distances,
    and psi(eps)/eps is continuous and monotone between the knots of psi, so
    with the knots merged into the breaks F is monotone on each interval
    (lo, hi] and the supremum lies in the topmost one where F(hi) <= t (the
    answer is hi) or F(lo) < t (bisected inside).  The steps are walked from
    the top and the walk stops at the answer.  The cap is implicit:
    breaks[-1] is the diameter, so the interval above it is never scanned.
    G = psi/e is computed once on the merged points.  Below a step of value L,
    d_eps >= L in floats (fewer edges never shorten Dijkstra's least float
    path sum), so F >= G L, and the walk skips to the top interval with a point
    where G L <= t.  A tabulated psi must cover the points of each step reached.
    """
    if not t > 0:
        raise ChainError("t must be positive")
    if x == y:
        raise ChainError("epsilon_of_t requires x != y")
    check_ids(space, x, y)
    breaks = space.critical_radii()
    knots = psi.knots
    e = np.union1d(breaks, knots[(knots > breaks[0]) & (knots < breaks[-1])])
    at = np.append(np.searchsorted(e, breaks), e.size - 1)  # e[at[i]] = breaks[i]
    G = np.full(e.size, math.nan)  # NaN below a table's range: a step there raises
    ok = e >= psi.pieces[0][0]  # a table's first r, 0 for power laws
    G[ok] = psi(e[ok]) / e[ok]

    def below(j, L):  # the top interval under j with a point where G L <= t or G is NaN
        m = np.flatnonzero(~(G[:at[j] + 1] * L > t))
        return min(j - 1, int(np.searchsorted(at, m[-1], "right")) - 1) if m.size else -1

    for j, k, L in _d_eps_steps(space, breaks, x, y, below):
        s = slice(at[j], at[k + 1] + 1)
        if np.isnan(G[s]).any():
            psi(e[s])  # a table that misses a point of this step raises here
        es, F = e[s], G[s] * L  # interval i of the step is (es[i], es[i + 1]]
        hit = np.flatnonzero((F[1:] <= t) | (F[:-1] < t))
        if not hit.size:
            continue
        i = hit[-1]
        if F[i + 1] <= t:
            return float(es[i + 1])
        a, b = es[i], es[i + 1]
        for _ in range(200):
            mid = 0.5 * (a + b)
            if psi(mid) / mid * L <= t:
                a = mid
            else:
                b = mid
            if b - a <= 1e-15 * max(1.0, b):
                break
        return float(a)
    raise ChainError("time below chain resolution: no eps satisfies the bound")
