import json
import tracemalloc

import numpy as np
import scipy.sparse as sps
import pytest
from hypothesis import example, given, settings, strategies as st

import chainkit.chain as ch
import chainkit.dirichlet as df
import chainkit.net as nt
import chainkit.space as sp
from chainkit.cli import main
from chainkit.dirichlet import path_graph
from chainkit.heat import sierpinski_gasket_graph
from chainkit.scale import power_scale
from oracles import energy_by_tocoo, truncated_maximal_reference, two_point_check, unit_line


def test_build_net_greedy_on_line():
    space = unit_line(11)
    net = nt.build_net(space, 2.0)
    assert net.members == [0, 2, 4, 6, 8, 10]
    net.certify()


def test_build_net_with_include_set():
    space = unit_line(11)
    net = nt.build_net(space, 2.0, include=[1, 10])
    assert 1 in net.members and 10 in net.members
    net.certify()
    # numpy ids, and an array of them (its truth value was ambiguous), give Python ints
    for numpy_ids in ([np.int64(1), np.int64(10)], np.array([1, 10])):
        members = nt.build_net(space, 2.0, include=numpy_ids).members
        assert members == net.members and {type(v) for v in members} <= {int}


def test_build_net_rejects_close_include():
    space = unit_line(11)
    with pytest.raises(nt.NetError, match="separation"):
        nt.build_net(space, 2.0, include=[0, 1])


def loop_net_members(space, epsilon, include=None):
    """The member loops build_net used to run, kept as its reference: the
    greedy members, or the NetError for the first close include pair."""
    include = sorted(set(include)) if include else []
    for a in range(len(include)):
        for b in range(a + 1, len(include)):
            if space.dist[include[a], include[b]] < epsilon:
                raise nt.NetError(
                    f"include set violates separation: points {include[a]} "
                    f"and {include[b]} are at distance "
                    f"{space.dist[include[a], include[b]]}"
                )
    members = list(include)
    for p in range(space.n):
        if p in members:
            continue
        if all(space.dist[p, q] >= epsilon for q in members):
            members.append(p)
    return members


def net_outcome(build, space, epsilon, include):
    try:
        out = build(space, epsilon, include)
    except nt.NetError as err:
        return str(err)
    return out if isinstance(out, list) else out.members


@given(st.sampled_from(["cloud", "line"]), st.integers(2, 25), st.integers(0, 10 ** 6),
       st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0]),
       st.lists(st.integers(0, 24), max_size=5))
@example("line", 11, 0, 2.0, [10, 1, 3, 2, 7])  # close pairs (1, 2) and (3, 10)
@settings(max_examples=150, deadline=None)
def test_build_net_matches_member_loop(kind, n, seed, eps, include):
    rng = np.random.default_rng(seed)
    if kind == "line":  # integer coordinates: distances tie with eps
        coords = rng.permutation(n).astype(float).tolist()
    else:
        coords = rng.uniform(0, 10, (n, 2)).tolist()
    space = sp.build_space({"type": "euclidean", "coords": coords})
    include = [i % n for i in include]
    assert (net_outcome(nt.build_net, space, eps, include)
            == net_outcome(loop_net_members, space, eps, include))


def close_pair_space(kind, n, seed):
    """A path or gasket graph space, or a line of integer coordinates in random
    order; on all three, distances tie with integer epsilons."""
    if kind == "line":
        coords = np.random.default_rng(seed).permutation(n).astype(float).tolist()
        return sp.build_space({"type": "euclidean", "coords": coords})
    return sp.space_from_graph(path_graph(n) if kind == "path" else sierpinski_gasket_graph(n % 4))


def loop_certify_error(space, epsilon, members):
    """The exhaustive pair loops of EpsilonNet.certify, kept as its reference:
    the first close pair in member order, else the covering failure at the
    point farthest from the members, else None."""
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            if space.dist[members[a], members[b]] < epsilon:
                return f"separation violated by members {members[a]} and {members[b]}"
    nearest = [min(space.dist[p, z] for z in members) for p in range(space.n)]
    if max(nearest) >= epsilon:
        return f"covering violated at point {int(np.argmax(nearest))}"
    return None


@given(st.sampled_from(["path", "gasket", "line"]), st.integers(2, 30), st.integers(0, 10 ** 6),
       st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 4.0]),
       st.one_of(st.none(), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=12)),
       st.integers(1, 64))
@example("line", 11, 0, 2.0, None, 1 << 17)  # one block, a certified net
@example("path", 12, 0, 3.0, [5], 64)  # a single member
@example("path", 12, 0, 3.0, [0, 1, 5, 2, 2, 11, 4], 1)  # one member row per block
@settings(max_examples=200, deadline=None)
def test_close_pairs_and_certify_match_the_pair_loops(kind, n, seed, eps, picks, block):
    # arbitrary member sets, repeats included (None: the greedy net, reversed);
    # a small BLOCK_ENTRIES splits the member rows into several blocks
    space = close_pair_space(kind, n, seed)
    if picks is None:
        members = nt.build_net(space, eps).members[::-1]
    else:
        members = [p % space.n for p in picks]
    net = nt.EpsilonNet(space=space, epsilon=eps, members=members)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(df, "BLOCK_ENTRIES", block)
        i, j = nt.close_pairs(space.dist, members, eps)
        try:
            net.certify()
            error = None
        except nt.NetError as err:
            error = str(err)
    assert list(zip(i.tolist(), j.tolist())) == [
        (a, b) for a in range(len(members)) for b in range(a + 1, len(members))
        if space.dist[members[a], members[b]] < eps]
    assert error == loop_certify_error(space, eps, members)


def test_voronoi_ties_to_smallest_id():
    space = unit_line(5)
    net = nt.build_net(space, 2.0)  # members 0, 2, 4
    # point 1 is equidistant from 0 and 2 -> owner 0; point 3 -> owner 2
    assert net.voronoi[1] == 0
    assert net.voronoi[3] == 2


def test_partition_of_unity_properties():
    space = sp.space_from_graph(path_graph(21))
    net = nt.build_net(space, 4.0)
    pou = nt.build_partition(net)
    pou.verify()
    assert sps.isspmatrix_csr(pou.psi)
    psi = pou.psi.toarray()
    assert pou.psi.nnz == np.count_nonzero(psi)  # only the supports are stored
    total = sum(psi)
    assert np.abs(total - 1.0).max() <= 1e-12
    for z, psi_z in zip(sorted(net.members), psi):
        assert psi_z[z] == pytest.approx(1.0)
        assert (psi_z >= 0).all() and (psi_z <= 1).all()


def loop_verify_error(net, psis):
    """The member loops PartitionOfUnity.verify used to run on {z: psi_z},
    kept as its reference: the first NetError message, or None."""
    eps, dist = net.epsilon, net.space.dist
    if np.abs(sum(psis.values()) - 1.0).max() > 1e-12:
        return "partition does not sum to one"
    for z, psi_z in psis.items():
        if (np.abs(psi_z[dist[z] < eps / 4] - 1.0) > 0).any():
            return f"psi_{z} is not identically 1 on B(z, eps/4)"
        if (psi_z[dist[z] >= 5 * eps / 4] != 0).any():
            return f"psi_{z} does not vanish outside B(z, 5 eps/4)"
    for z in psis:
        for w, psi_w in psis.items():
            if w != z and (psi_w[dist[z] < eps / 4] != 0).any():
                return f"psi_{w} does not vanish on B({z}, eps/4)"
    return None


@pytest.mark.parametrize("graph, eps", [("path-41", 8.0), ("gasket-4", 6.0)])
def test_partition_disjointness_matches_pairwise_loop(graph, eps):
    form = path_graph(41) if graph == "path-41" else sierpinski_gasket_graph(4)
    space = sp.space_from_graph(form)
    pou = nt.build_partition(nt.build_net(space, eps))
    members = sorted(pou.net.members)
    assert loop_verify_error(pou.net, dict(zip(members, pou.psi.toarray()))) is None
    rng = np.random.default_rng(5)
    tampered = 0
    for trial in range(40):
        psi = pou.psi.toarray()
        for _ in range(1 + trial % 2):
            z = int(rng.choice(members))
            v = int(rng.choice(np.flatnonzero(space.dist[z] < eps / 4)))
            # +1/2 and -1/2 on two members whose support reaches v keep the
            # sum, the plateaus and the supports intact
            near = [i for i, w in enumerate(members)
                    if w != z and space.dist[w, v] < 5 * eps / 4]
            if len(near) < 2:
                continue
            i1, i2 = rng.choice(near, 2, replace=False)
            psi[i1, v] += 0.5
            psi[i2, v] -= 0.5
        bad = nt.PartitionOfUnity(net=pou.net, psi=sps.csr_matrix(psi),
                                  energies=pou.energies)
        expected = loop_verify_error(pou.net, dict(zip(members, psi)))
        if expected is None:
            bad.verify()
            continue
        tampered += 1
        with pytest.raises(nt.NetError) as err:
            bad.verify()
        assert str(err.value) == expected
    assert tampered >= 20


def test_partition_requires_graph_backing():
    space = unit_line(9)
    net = nt.build_net(space, 2.0)
    with pytest.raises(nt.NetError, match="graph-backed"):
        nt.build_partition(net)


def test_partition_energy_report():
    space = sp.space_from_graph(path_graph(21))
    net = nt.build_net(space, 4.0)
    pou = nt.build_partition(net)
    constant = nt.partition_energy_report(pou, power_scale(2.0))
    assert type(constant) is float and constant > 0
    energies = dict(zip(sorted(net.members), pou.energies.tolist()))
    assert constant == loop_energy_report(space, net, energies, power_scale(2.0))


def test_partition_energy_report_equals_the_member_loop_across_blocks(monkeypatch):
    form, _ = replay_graph("gasket", 4, 11, True)  # random masses: sums depend on order
    space = sp.space_from_graph(form)
    net = nt.build_net(space, 1.0)
    pou = nt.build_partition(net)
    energies = dict(zip(sorted(net.members), pou.energies.tolist()))
    report = loop_energy_report(space, net, energies, power_scale(2.0))
    monkeypatch.setattr(df, "BLOCK_ENTRIES", 5 * space.n)  # blocks of 5 member rows
    assert len(df.row_blocks(len(net.members), space.n)) > 10
    assert nt.partition_energy_report(pou, power_scale(2.0)) == report


def test_proof_replay_frozen_values():
    space = sp.space_from_graph(path_graph(101))
    rep = nt.proof_replay(space, power_scale(2.0), 0, 100, 6.0)
    # hops at scale 6: ceil(100/5) = 20; net at eps' = 2 is {0, 2, ..., 100}
    assert rep.n_eps_xy == 20
    assert rep.u_hat[0] == 0 and rep.u_hat[100] == 20
    assert rep.lipschitz_ok
    # frozen from the first verified run: max M = 1/2, Psi(6) * 1/2 = 18
    assert rep.maximal_constant == pytest.approx(18.0, abs=1e-9)
    assert rep.recovered_constant == pytest.approx(1.44, abs=1e-12)
    assert rep.recovered_ok
    # u interpolates u_hat: endpoint values survive the blending
    assert rep.u[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.u[100] == pytest.approx(20.0, abs=1e-12)


def test_proof_replay_catches_a_hop_count_jump(monkeypatch, tmp_path, capsys):
    # two extra hops at member 50 make |u_hat(50) - u_hat(48)| = 2 although
    # d(48, 50) = 2 < eps: the replay reports it, and both commands exit 2
    shortest_paths = ch.ProximityIndex.shortest_paths

    def bumped(self, sources, weighted=True):
        dist, pred = shortest_paths(self, sources, weighted)
        dist[0, 50] += 2  # the one source's row of the replay's 2-D search
        return dist, pred

    monkeypatch.setattr(ch.ProximityIndex, "shortest_paths", bumped)
    space = sp.space_from_graph(path_graph(101))
    assert nt.proof_replay(space, power_scale(2.0), 0, 100, 6.0).lipschitz_ok is False
    graph = tmp_path / "p101.csv"
    df.save_graph_csv(path_graph(101), graph)
    assert main(["replay", "--graph", str(graph), "--psi", "power:2",
                 "--x", "0", "--y", "100", "--eps", "6"]) == 2
    assert json.loads(capsys.readouterr().out)["lipschitz_ok"] is False
    assert main(["--json-only", "verify-all", "--suite", "replay"]) == 2
    # the jump of u at 50 also lifts Psi(eps) * max M from 18 to 72
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == [
        "unit-Lipschitz chain counts on eps-close members",
        "Psi(eps) * max maximal function <= 50.0"]


def test_a_failed_plateau_check_exits_2(monkeypatch, tmp_path, capsys):
    # halve the last member's row after its own verify: u = u_hat(100) / 2
    # on that member's plateau
    build_partition = nt.build_partition

    def halved(net):
        pou = build_partition(net)
        lo, hi = pou.psi.indptr[-2:]
        pou.psi.data[lo:hi] /= 2
        return pou

    monkeypatch.setattr(nt, "build_partition", halved)
    graph = tmp_path / "p101.csv"
    df.save_graph_csv(path_graph(101), graph)
    assert main(["replay", "--graph", str(graph), "--psi", "power:2",
                 "--x", "0", "--y", "100", "--eps", "6"]) == 2
    assert capsys.readouterr().err == "check failed: u does not equal u_hat on the plateau\n"


@pytest.mark.parametrize("x, y, message", [(-1, 10, "unknown point id -1"),
                                            (0, 11, "unknown point id 11"),
                                            (4, 4, "x and y must differ")])
def test_proof_replay_checks_its_points_first(x, y, message):
    # -1 would read the last vertex, 11 is past the end of path-11
    space = sp.space_from_graph(path_graph(11))
    with pytest.raises(ValueError, match=message):
        nt.proof_replay(space, power_scale(2.0), x, y, 2.0)


def test_proof_replay_rejects_large_eps():
    space = sp.space_from_graph(path_graph(11))
    with pytest.raises(nt.NetError, match="eps"):
        nt.proof_replay(space, power_scale(2.0), 0, 10, 11.0)


def test_proof_replay_rejects_disconnected_scale():
    coords = [0.0, 1.0, 10.0, 11.0]
    space = sp.build_space({"type": "euclidean", "coords": coords})
    space.graph = path_graph(4)  # backing irrelevant; proximity check fires first
    with pytest.raises(nt.NetError, match="disconnected"):
        nt.proof_replay(space, power_scale(2.0), 0, 3, 2.0)


@given(st.integers(4, 20), st.floats(1.1, 5.0), st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_net_separation_and_covering_random(n, eps, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, size=(n, 2))
    space = sp.build_space({"type": "euclidean", "coords": pts.tolist()})
    net = nt.build_net(space, eps)
    mem = np.asarray(net.members)
    subs = space.dist[np.ix_(mem, mem)]
    off = subs[~np.eye(mem.size, dtype=bool)]
    if off.size:
        assert off.min() >= eps
    assert (space.dist[:, mem].min(axis=1) < eps).all()


def test_replay_computes_the_energy_measure_once(monkeypatch):
    calls = []
    original = df.energy_measure

    def counting(form, f):
        calls.append(f)
        return original(form, f)

    monkeypatch.setattr(df, "energy_measure", counting)
    space = sp.space_from_graph(path_graph(41))
    rep = nt.proof_replay(space, power_scale(2.0), 0, 40, 6.0)
    assert len(calls) == 1
    # the record built from the member maxima is the stand-alone check's
    assert rep.two_point == two_point_check(space, power_scale(2.0), rep.u, 0, 40, 80.0)


# The member loops the proof replay used to run, kept as its reference.  The
# array passes must reproduce them bit for bit, so every comparison is exact.

def loop_voronoi(net):
    mem = np.asarray(sorted(net.members))
    owner = mem[np.argmin(net.space.dist[:, mem], axis=1)]
    for z in mem:
        cell = owner == z
        dz = net.space.dist[z]
        if (cell & (dz > net.epsilon)).any():
            raise nt.NetError(f"Voronoi cell of {z} leaves the closed eps-ball")
        if ((dz < net.epsilon / 2) & ~cell).any():
            raise nt.NetError(f"Voronoi cell of {z} misses part of B(z, eps/2)")
    return owner


def loop_partition(space, net):
    """The per-member bumps, dict sum and energies of build_partition."""
    eps = net.epsilon
    phis = {}
    for z in sorted(net.members):
        d_cell = space.dist[:, np.flatnonzero(net.voronoi == z)].min(axis=1)
        phis[z] = np.clip(1.0 - d_cell / (eps / 4.0), 0.0, 1.0)
    denom = sum(phis.values())
    psis = {z: phi / denom for z, phi in phis.items()}
    return psis, {z: energy_by_tocoo(space.graph, psi) for z, psi in psis.items()}


def loop_energy_report(space, net, energies, psi_scale):
    """The partition constant as the member loop computed it."""
    eps = net.epsilon
    worst = 0.0
    for z, E in sorted(energies.items()):
        bound_core = sp.ball_volume(space, z, eps) / psi_scale(eps)
        worst = max(worst, E / bound_core if bound_core > 0 else float("inf"))
    return worst


def loop_replay(space, psi_scale, x, y, epsilon):
    """proof_replay as the member loops computed it: the report fields, the
    partition rows and energies by member, and the energy report."""
    d_xy = float(space.dist[x, y])
    hops, _ = ch.ProximityIndex.build(space, epsilon).shortest_paths(x, weighted=False)
    eps_prime = epsilon / 3.0
    net = nt.build_net(space, eps_prime, include={x, y})
    assert np.array_equal(net.voronoi, loop_voronoi(net))
    u_hat = {z: int(hops[z]) for z in net.members}
    psis, energies = loop_partition(space, net)
    assert loop_verify_error(net, psis) is None
    u = sum(u_hat[z] * psis[z] for z in net.members)
    gamma = df.energy_measure(space.graph, u).density
    for z in sorted(net.members):
        plateau = space.dist[z] < eps_prime / 4
        assert np.allclose(u[plateau], u_hat[z], rtol=0, atol=1e-9)
    R = 2.0 * d_xy
    M = {z: truncated_maximal_reference(space, gamma, z, R) for z in sorted(net.members)}
    n_eps_xy = u_hat[y]
    recovered = (n_eps_xy ** 2) * psi_scale(epsilon) / psi_scale(d_xy)
    report = loop_energy_report(space, net, energies, psi_scale)
    fields = dict(
        x=x, y=y, epsilon=epsilon, eps_prime=eps_prime, n_eps_xy=n_eps_xy, u_hat=u_hat,
        lipschitz_ok=True, max_maximal_function=max(M.values()),
        maximal_constant=psi_scale(epsilon) * max(M.values()),
        two_point=df._two_point(u, x, y, psi_scale(R), M[x], M[y]),
        recovered_constant=recovered,
        recovered_ok=(n_eps_xy ** 2
                      <= recovered * psi_scale(d_xy) / psi_scale(epsilon) * (1 + 1e-12)),
        partition_constant=report, u=u)
    return fields, psis, energies, report


def replay_graph(kind, size, seed, weighted):
    """A path, cycle or gasket, relabelled at random, with random conductances,
    vertex masses and edge lengths in [0.5, 1.4) when ``weighted``."""
    rng = np.random.default_rng(seed)
    form = {"path": lambda: path_graph(size), "cycle": lambda: df.cycle_graph(size),
            "gasket": lambda: sierpinski_gasket_graph(size)}[kind]()
    perm = rng.permutation(form.n)
    w = sps.triu(form.conductances).tocoo()
    c = rng.uniform(0.2, 3.0, w.nnz) if weighted else w.data
    i, j = perm[w.row], perm[w.col]
    ln = rng.uniform(0.5, 1.4, w.nnz) if weighted else np.ones(w.nnz)
    W, L = (sps.coo_matrix((np.r_[v, v], (np.r_[i, j], np.r_[j, i])), shape=w.shape).tocsr()
            for v in (c, ln))
    m = np.empty(form.n)
    m[perm] = rng.uniform(0.1, 5.0, form.n) if weighted else form.vertex_measure
    return df.GraphDirichletForm(W, m, L), int(perm[0])


@given(st.sampled_from(["path", "cycle", "gasket"]), st.integers(0, 10 ** 6),
       st.booleans(), st.sampled_from([1.5, 2.0, 3.0, 4.0, 5.0, 7.5]))
@example("path", 0, False, 30.0)  # path-1001, where a 2-D axis=1 sum of the energies differs
@settings(max_examples=60, deadline=None)
def test_proof_replay_equals_the_member_loops(kind, seed, weighted, eps):
    size = {"path": 1001 if eps == 30.0 else 8 + seed % 50, "cycle": 8 + seed % 50,
            "gasket": 3 + seed % 2}[kind]
    form, x = replay_graph(kind, size, seed, weighted)
    space = sp.space_from_graph(form)
    y = int(np.argmax(space.dist[x]))
    if eps > space.dist[x, y]:
        return
    psi = power_scale(2.0 + seed % 3 / 4)
    rep = nt.proof_replay(space, psi, x, y, eps)
    fields, psis, energies, report = loop_replay(space, psi, x, y, eps)
    for name, expected in fields.items():
        got = getattr(rep, name)
        if isinstance(expected, np.ndarray):
            assert np.array_equal(got, expected), name
        else:
            assert got == expected and type(got) is type(expected), name
    net = nt.build_net(space, eps / 3.0, include={x, y})
    pou = nt.build_partition(net)
    assert np.array_equal(pou.psi.toarray(), np.array(list(psis.values())))
    assert np.array_equal(pou.energies, list(energies.values()))
    assert nt.partition_energy_report(pou, psi) == report


@given(st.sampled_from(["path", "gasket"]), st.integers(0, 10 ** 6),
       st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_voronoi_certificate_raises_the_member_loops_message(kind, seed, eps, k):
    # arbitrary member sets: most are no nets, so the certificate fails
    form, _ = replay_graph(kind, 20 if kind == "path" else 3, seed, True)
    space = sp.space_from_graph(form)
    members = np.random.default_rng(seed).choice(space.n, min(k, space.n), replace=False)
    net = nt.EpsilonNet(space=space, epsilon=eps, members=members.tolist())
    assert net_outcome(lambda *a: nt.voronoi_assign(net).tolist(), space, eps, None) \
        == net_outcome(lambda *a: loop_voronoi(net).tolist(), space, eps, None)


@given(st.integers(0, 10 ** 6), st.integers(1, 3),
       st.sampled_from([0.5, -0.25, 2 ** -52, 1e-300, 0.0, np.nan]))
@example(59, 3, 0.5)  # unit lengths at eps 4: a change at distance exactly eps/4
@settings(max_examples=100, deadline=None)
def test_partition_verify_raises_the_member_loops_message(seed, changes, delta):
    # +delta on psi_z and -delta on another psi_w at a point v near z keep
    # most sums, so the plateau, support and disjointness checks are reached
    form, _ = replay_graph("gasket", 4, seed, seed // 4 % 2)
    space = sp.space_from_graph(form)
    eps = [1.0, 2.0, 3.0, 4.0][seed % 4]  # at 4, distances of eps/4 occur
    net = nt.build_net(space, eps)
    pou = nt.build_partition(net)
    members = sorted(net.members)
    rng = np.random.default_rng(seed)
    psi = pou.psi.toarray()
    for _ in range(changes):
        i, j = rng.choice(len(members), 2, replace=False)
        near = space.dist[members[i]] <= eps * rng.choice([0.25, 1.25, 3.0])
        v = rng.choice(np.flatnonzero(near))
        psi[i, v] += delta
        psi[j, v] -= delta
    bad = nt.PartitionOfUnity(net=net, psi=sps.csr_matrix(psi),
                              energies=pou.energies)
    expected = loop_verify_error(net, dict(zip(members, psi)))
    if expected is None:
        bad.verify()
    else:
        with pytest.raises(nt.NetError) as err:
            bad.verify()
        assert str(err.value) == expected


def has_ties(net):
    near = net.space.dist[sorted(net.members)]
    return ((near == near.min(axis=0)).sum(axis=0) > 1).any()


@pytest.mark.parametrize("case, eps, x", [
    ("path-41", 6.0, 0),
    # random masses, conductances and lengths; bumps overlap where another
    # order of the denominator's rows or of u's terms changes their bits
    ("gasket-4 masses", 12.0, 22),
    ("gasket-5", 3.0, 0),  # every vertex is a member
    ("ties", 6.0, 0)])
@pytest.mark.parametrize("block", [None, 3])
def test_sparse_partition_and_blocked_owner_equal_the_dense_references(
        monkeypatch, case, eps, x, block):
    form = {"path-41": lambda: path_graph(41),
            "gasket-4 masses": lambda: replay_graph("gasket", 4, 0, True)[0],
            "gasket-5": lambda: sierpinski_gasket_graph(5),
            "ties": lambda: sierpinski_gasket_graph(4)}[case]()
    space = sp.space_from_graph(form)
    if block:  # blocks of 3 rows
        monkeypatch.setattr(df, "BLOCK_ENTRIES", block * space.n)
    y = int(np.argmax(space.dist[x]))
    rep = nt.proof_replay(space, power_scale(2.0), x, y, eps)
    net = nt.build_net(space, eps / 3.0, include={x, y})
    assert np.array_equal(net.voronoi, loop_voronoi(net))
    assert np.array_equal(nt.voronoi_assign(net), net.voronoi)
    if case == "gasket-5":
        assert len(net.members) == space.n
    if case in ("path-41", "ties"):  # equidistant points go to the smallest member id
        assert has_ties(net)
    pou = nt.build_partition(net)
    psis, energies = loop_partition(space, net)
    psi = np.array(list(psis.values()))
    assert sps.isspmatrix_csr(pou.psi) and pou.psi.nnz == np.count_nonzero(psi)
    assert np.array_equal(pou.psi.toarray(), psi)
    assert np.array_equal(pou.energies, list(energies.values()))
    # the blend in net order, as loop_replay adds it
    assert np.array_equal(rep.u, sum(rep.u_hat[z] * psis[z] for z in net.members))


def test_proof_replay_on_gasket_6_keeps_to_the_supports():
    # every vertex is a member at eps 3; the 9.6 MB distance matrix is built
    # before tracing starts
    space = sp.space_from_graph(sierpinski_gasket_graph(6))
    y = int(np.argmax(space.dist[0]))
    tracemalloc.start()
    try:
        rep = nt.proof_replay(space, power_scale(2.0), 0, y, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.u_hat) == space.n
    assert peak < 6e6, peak
