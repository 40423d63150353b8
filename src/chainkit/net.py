"""Epsilon-nets, Voronoi cells, partitions of unity, and the proof replay.

Nets are built greedily in ascending id order (seeded with any forced
members), which makes them deterministic; maximal separated sets are also
eps-covers, so separation and covering hold by construction and are
certified by exhaustive scans.  The partition bump functions are piecewise
linear in the distance to the Voronoi cell with slope width eps/4, which
makes the plateau, support and disjointness properties exact on graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import dirichlet as df
from .chain import chain_sweep
from .space import FiniteMetricMeasureSpace, check_ids


class NetError(ValueError):
    pass


@dataclass
class EpsilonNet:
    """Maximal eps-separated subset with its Voronoi assignment."""

    space: FiniteMetricMeasureSpace
    epsilon: float
    members: list[int]
    voronoi: np.ndarray | None = None

    def certify(self) -> np.ndarray:
        """Exhaustive separation and covering check; returns the nearest member
        of every point (the smallest id on ties), which ``voronoi_assign`` takes."""
        mem = np.asarray(self.members)
        i, j = close_pairs(self.space.dist, mem, self.epsilon)
        if i.size:
            raise NetError(f"separation violated by members {mem[i[0]]} and {mem[j[0]]}")
        mem = np.sort(mem)
        nearest, first = nearest_members(self.space.dist, mem)
        if (nearest >= self.epsilon).any():
            raise NetError(f"covering violated at point {int(np.argmax(nearest))}")
        return mem[first]


def nearest_members(dist: np.ndarray, mem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from every point to the nearest of the ids ``mem`` and the
    position in ``mem`` of the first one at that distance, kept as a running
    minimum over blocks of member rows (dist is symmetric)."""
    nearest, first = np.full(dist.shape[0], np.inf), np.zeros(dist.shape[0], dtype=int)
    for sl in df.row_blocks(mem.size, dist.shape[0]):
        block = dist[mem[sl]]
        k = block.argmin(axis=0)  # the first row at the block's minimum
        d = np.take_along_axis(block, k[None], axis=0)[0]
        closer = d < nearest  # strict: an earlier block keeps a tie
        nearest[closer], first[closer] = d[closer], k[closer] + sl.start
    return nearest, first


def close_pairs(dist: np.ndarray, ids, epsilon: float) -> np.ndarray:
    """Positions (i, j), i < j, of the pairs of ids closer than epsilon, in
    row-major order as the columns of a (2 x pairs) array; read from blocks
    of rows of the (ids x ids) distances, one row-major scan of each mask."""
    ids, pairs = np.asarray(ids, dtype=int), [np.empty((2, 0), int)]
    for sl in df.row_blocks(ids.size, ids.size):  # flat positions in the (ids x ids) mask
        flat = np.flatnonzero(dist[np.ix_(ids[sl], ids)] < epsilon) + sl.start * ids.size
        i, j = np.divmod(flat, ids.size)
        pairs.append(np.stack([i[j > i], j[j > i]]))
    return np.concatenate(pairs, axis=1)


def build_net(space: FiniteMetricMeasureSpace, epsilon: float,
              include=None) -> EpsilonNet:
    """Greedy maximal eps-separated set, seeded with the forced members."""
    if not epsilon > 0:  # NaN fails too
        raise NetError("epsilon must be positive")
    include = sorted(set(include)) if include is not None else []
    check_ids(space, *include)
    include = [int(p) for p in include]
    i, j = close_pairs(space.dist, include, epsilon)
    if i.size:
        a, b = include[i[0]], include[j[0]]
        raise NetError(f"include set violates separation: points {a} and {b} are at "
                       f"distance {space.dist[a, b]}")
    members = list(include)
    covered = (space.dist[include] < epsilon).any(axis=0)
    for p in range(space.n):
        if not covered[p]:
            members.append(p)
            covered |= space.dist[p] < epsilon
    net = EpsilonNet(space=space, epsilon=epsilon, members=members)
    net.voronoi = voronoi_assign(net, net.certify())
    return net


def _raise_first(members: np.ndarray, checks: dict) -> None:
    """NetError for the first member whose row fails a check (message template:
    (members x n) mask), trying the checks in order for each member."""
    failed = np.column_stack([mask.any(axis=1) for mask in checks.values()])
    if failed.any():
        i, k = divmod(int(np.argmax(failed)), failed.shape[1])
        raise NetError(list(checks)[k].format(members[i]))


def voronoi_assign(net: EpsilonNet, owner: np.ndarray | None = None) -> np.ndarray:
    """Nearest-member assignment, ties broken to the smallest member id
    (``owner`` when the caller has it from ``certify``).

    Certifies B(z, eps/2) subset R_z subset closed-ball(z, eps) for every
    member z.
    """
    mem = np.asarray(sorted(net.members))
    dist, eps = net.space.dist, net.epsilon
    if owner is None:
        owner = mem[nearest_members(dist, mem)[1]]
    for sl in df.row_blocks(mem.size, owner.size):
        d, cell = dist[mem[sl]], owner == mem[sl, None]
        _raise_first(mem[sl], {"Voronoi cell of {} leaves the closed eps-ball": cell & (d > eps),
                               "Voronoi cell of {} misses part of B(z, eps/2)":
                               (d < eps / 2) & ~cell})
    return owner


@dataclass
class PartitionOfUnity:
    """Family {psi_z} indexed by net members, summing to one everywhere: row i
    of ``psi`` (a members x n CSR matrix holding each bump's support) and
    ``energies[i]`` belong to the i-th member in ascending id order."""

    net: EpsilonNet
    psi: sp.csr_matrix
    energies: np.ndarray

    def verify(self) -> None:
        eps, dist, psi = self.net.epsilon, self.net.space.dist, self.psi
        mem = np.asarray(sorted(self.net.members))
        if np.abs(column_sums(psi) - 1.0).max() > 1e-12:
            raise NetError("partition does not sum to one")
        blocks = df.row_blocks(mem.size, dist.shape[0])
        for sl in blocks:  # dense rows, one block at a time
            d, rows = dist[mem[sl]], df.dense_rows(psi, sl)
            _raise_first(mem[sl], {
                "psi_{} is not identically 1 on B(z, eps/4)":
                (d < eps / 4) & ((rows < 1) | (rows > 1)),
                "psi_{} does not vanish outside B(z, 5 eps/4)": (d >= 5 * eps / 4) & (rows != 0)})
        # psi_w (w != z) vanishes on B(z, eps/4) iff only psi_z may be nonzero there
        nonzero = np.bincount(psi.indices[psi.data != 0], minlength=dist.shape[0])
        for sl in blocks:
            ball = dist[mem[sl]] < eps / 4
            shared = (ball & (nonzero != (df.dense_rows(psi, sl) != 0))).any(axis=1)
            if shared.any():
                z = sl.start + int(np.argmax(shared))
                row = np.repeat(np.arange(mem.size), np.diff(psi.indptr))
                w = next(w for w in row[(psi.data != 0) & ball[z - sl.start][psi.indices]]
                         if w != z)
                raise NetError(f"psi_{mem[w]} does not vanish on B({mem[z]}, eps/4)")


def column_sums(psi: sp.csr_matrix) -> np.ndarray:
    """Column sums of a CSR matrix with the rows added one after another, as
    an axis-0 sum of its dense rows adds them (a zero changes no sum)."""
    total = np.zeros(psi.shape[1])
    np.add.at(total, psi.indices, psi.data)
    return total


def build_partition(net: EpsilonNet) -> PartitionOfUnity:
    """Bump functions phi_z = clamp(1 - d(p, R_z)/(eps/4), 0, 1), normalized.

    Requires the net's space to be graph-backed (the energies are graph
    Dirichlet energies).  Every point lies in its owner's cell, so the normalizing
    denominator is at least 1 everywhere.  The bumps are computed in blocks
    of member rows, and only their nonzeros are kept.
    """
    space, eps = net.space, net.epsilon
    if space.graph is None:
        raise NetError("partition of unity requires a graph-backed space")
    owner = net.voronoi if net.voronoi is not None else voronoi_assign(net)
    mem = np.asarray(sorted(net.members))
    # row i lists the points of R_z, padded to the largest cell with its first
    # point; d(p, R_z) is the min over their rows, as dist is symmetric
    order = np.argsort(owner, kind="stable")
    cell = np.searchsorted(mem, owner[order])
    rows = np.full((mem.size, np.bincount(cell).max()), -1)
    rows[cell, np.arange(space.n) - np.searchsorted(cell, cell)] = order
    rows = np.where(rows < 0, rows[:, :1], rows)
    data, indices, counts = [], [], []
    for sl in df.row_blocks(mem.size, rows.shape[1] * space.n):
        phi = space.dist[rows[sl]].min(axis=1)
        phi /= eps / 4.0
        np.clip(np.subtract(1.0, phi, out=phi), 0.0, 1.0, out=phi)
        flat = np.flatnonzero(phi)
        data.append(phi.ravel()[flat])
        indices.append(flat % space.n)
        counts.append(np.bincount(flat // space.n, minlength=len(phi)))
    indptr = np.r_[0, np.cumsum(np.concatenate(counts))]
    psi = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                        shape=(mem.size, space.n))
    denom = column_sums(psi)  # rows added one after another, in member order
    if (denom <= 0).any():
        raise AssertionError("partition denominator vanished; net is not maximal")
    psi.data /= denom[psi.indices]
    pou = PartitionOfUnity(net=net, psi=psi, energies=df.energy(space.graph, psi))
    pou.verify()
    return pou


def partition_energy_report(pou: PartitionOfUnity, psi_scale) -> float:
    """The partition constant: the largest E(psi_z, psi_z) / (m(B(z, eps)) / Psi(eps))
    over the members z."""
    space, eps = pou.net.space, pou.net.epsilon
    psi_eps = psi_scale(eps)
    mem = sorted(pou.net.members)
    worst = 0.0
    for sl in df.row_blocks(len(mem), space.n):  # one ball mask per block of member rows
        for E, inside in zip(pou.energies[sl].tolist(), space.dist[mem[sl]] < eps):
            bound_core = float(space.measure[inside].sum()) / psi_eps  # summed as ball_volume
            worst = max(worst, E / bound_core if bound_core > 0 else math.inf)
    return worst


@dataclass
class ReplayReport:
    """Numerical replay of the chain-counting test-function argument."""

    x: int
    y: int
    epsilon: float
    eps_prime: float
    n_eps_xy: float
    u_hat: dict[int, float]
    lipschitz_ok: bool
    max_maximal_function: float
    maximal_constant: float  # Psi(eps) * max over members of M_R Gamma(u,u)
    two_point: dict
    recovered_constant: float  # C with N_eps^2 = C * Psi(d) / Psi(eps)
    recovered_ok: bool
    partition_constant: float
    u: np.ndarray


def proof_replay(space: FiniteMetricMeasureSpace, psi_scale, x: int, y: int,
                 epsilon: float) -> ReplayReport:
    """Rebuild the chain-counting test function and check its bounds.

    Steps: build the eps/3-net containing {x, y}, set u_hat(z) = N_eps(x, z)
    on members, check the unit-Lipschitz property on eps-close member
    pairs, blend u through the partition of unity, and evaluate the
    truncated maximal function of the energy measure of u at all members,
    with truncation radius R = 2 d(x, y).
    """
    if space.graph is None:
        raise NetError("proof replay requires a graph-backed space")
    check_ids(space, x, y)
    if x == y:
        raise NetError("x and y must differ")
    d_xy = float(space.dist[x, y])
    if epsilon > d_xy:
        raise NetError("replay requires eps <= d(x, y)")
    [(_, chains)] = chain_sweep(space, [epsilon], np.full(space.n, x), np.arange(space.n))
    hops, _ = chains(weighted=False)  # N_eps(x, .) from one search
    if not np.isfinite(hops).all():
        raise NetError("proximity graph is disconnected at this epsilon")

    eps_prime = epsilon / 3.0
    net = build_net(space, eps_prime, include={x, y})
    u_hat = {z: int(hops[z]) for z in net.members}

    mem = np.asarray(sorted(net.members))
    i, j = close_pairs(space.dist, mem, epsilon)
    lipschitz_ok = not (np.abs(hops[mem[i]] - hops[mem[j]]) > 1).any()  # False: a chain-count bug

    pou = build_partition(net)
    rows = pou.psi[np.searchsorted(mem, net.members)]  # a copy, rows in net order
    rows.data *= np.repeat([u_hat[z] for z in net.members], np.diff(rows.indptr))
    u = column_sums(rows)  # sum of u_hat(z) psi_z, added in net order

    # u is constant on each plateau B(z, eps'/4), so the energy measure
    # vanishes there; checked via the per-vertex density.  Each plateau lies
    # in its member's certified cell (B(z, eps'/2) is in R_z).
    gamma = df.energy_measure(space.graph, u).density
    plateau = space.dist[net.voronoi, np.arange(space.n)] < eps_prime / 4
    if not (np.abs(u - hops[net.voronoi]) <= 1e-9)[plateau].all():  # NaN fails too
        raise AssertionError("u does not equal u_hat on the plateau")

    R = 2.0 * d_xy
    M = df.truncated_maximal(space, gamma, mem, R)
    max_M = float(M.max())
    maximal_constant = psi_scale(epsilon) * max_M

    # x and y are members, so the two-point check reuses their maximal values
    Mx, My = (float(M[np.searchsorted(mem, v)]) for v in (x, y))
    two_point = df._two_point(u, x, y, psi_scale(R), Mx, My)

    n_eps_xy = u_hat[y]
    recovered_constant = (n_eps_xy ** 2) * psi_scale(epsilon) / psi_scale(d_xy)

    return ReplayReport(
        x=x, y=y, epsilon=epsilon, eps_prime=eps_prime, n_eps_xy=n_eps_xy,
        u_hat=u_hat, lipschitz_ok=lipschitz_ok,
        max_maximal_function=max_M, maximal_constant=maximal_constant,
        two_point=two_point, recovered_constant=recovered_constant,
        recovered_ok=n_eps_xy ** 2 <= recovered_constant * psi_scale(d_xy) / psi_scale(epsilon) * (1 + 1e-12),
        partition_constant=partition_energy_report(pou, psi_scale), u=u,
    )
