import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import chainkit.chain as ch
import chainkit.dirichlet as df
import chainkit.net as nt
import chainkit.space as sp
from chainkit.dirichlet import path_graph
from chainkit.heat import sierpinski_gasket_graph
from chainkit.scale import power_scale


def unit_line(n=11):
    return sp.build_space({"type": "euclidean", "coords": np.arange(float(n)).tolist()})


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


def test_voronoi_ties_to_smallest_id():
    space = unit_line(5)
    net = nt.build_net(space, 2.0)  # members 0, 2, 4
    # point 1 is equidistant from 0 and 2 -> owner 0; point 3 -> owner 2
    assert net.voronoi[1] == 0
    assert net.voronoi[3] == 2


def test_partition_of_unity_properties():
    space = sp.space_from_graph(path_graph(21))
    net = nt.build_net(space, 4.0)
    pou = nt.build_partition(space, net)
    pou.verify()
    total = sum(pou.psi_values.values())
    assert np.abs(total - 1.0).max() <= 1e-12
    for z, psi_z in pou.psi_values.items():
        assert psi_z[z] == pytest.approx(1.0)
        assert (psi_z >= 0).all() and (psi_z <= 1).all()


def loop_disjointness_error(pou):
    """The pairwise (z, w) loop PartitionOfUnity.verify used to run, kept as
    its reference: the message for the first psi_w (w != z) that is nonzero
    on B(z, eps/4), or None."""
    eps = pou.net.epsilon
    for z in pou.psi_values:
        dz = pou.net.space.dist[z]
        for w, psi_w in pou.psi_values.items():
            if w != z and (psi_w[dz < eps / 4] != 0).any():
                return f"psi_{w} does not vanish on B({z}, eps/4)"
    return None


@pytest.mark.parametrize("graph, eps", [("path-41", 8.0), ("gasket-4", 6.0)])
def test_partition_disjointness_matches_pairwise_loop(graph, eps):
    form = path_graph(41) if graph == "path-41" else sierpinski_gasket_graph(4)
    space = sp.space_from_graph(form)
    pou = nt.build_partition(space, nt.build_net(space, eps))
    assert loop_disjointness_error(pou) is None
    rng = np.random.default_rng(5)
    tampered = 0
    for trial in range(40):
        psis = {z: psi.copy() for z, psi in pou.psi_values.items()}
        for _ in range(1 + trial % 2):
            z = int(rng.choice(list(psis)))
            v = int(rng.choice(np.flatnonzero(space.dist[z] < eps / 4)))
            # +1/2 and -1/2 on two members whose support reaches v keep the
            # sum, the plateaus and the supports intact
            near = [w for w in psis if w != z and space.dist[w, v] < 5 * eps / 4]
            if len(near) < 2:
                continue
            w1, w2 = rng.choice(near, 2, replace=False)
            psis[int(w1)][v] += 0.5
            psis[int(w2)][v] -= 0.5
        bad = nt.PartitionOfUnity(net=pou.net, form=form, psi_values=psis,
                                  energies=pou.energies)
        expected = loop_disjointness_error(bad)
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
        nt.build_partition(space, net)


def test_partition_energy_report():
    space = sp.space_from_graph(path_graph(21))
    net = nt.build_net(space, 4.0)
    pou = nt.build_partition(space, net)
    rep = nt.partition_energy_report(space, pou, power_scale(2.0))
    assert rep["constant"] > 0
    assert len(rep["table"]) == len(net.members)


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


def test_proof_replay_catches_a_hop_count_jump(monkeypatch):
    # two extra hops at member 50 make |u_hat(50) - u_hat(48)| = 2 although
    # d(48, 50) = 2 < eps
    shortest_paths = ch.ProximityIndex.shortest_paths

    def bumped(self, sources, weighted=True):
        dist, pred = shortest_paths(self, sources, weighted)
        dist[50] += 2
        return dist, pred

    monkeypatch.setattr(ch.ProximityIndex, "shortest_paths", bumped)
    space = sp.space_from_graph(path_graph(101))
    with pytest.raises(AssertionError, match="unit-Lipschitz"):
        nt.proof_replay(space, power_scale(2.0), 0, 100, 6.0)


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
    assert rep.two_point == df.two_point_check(space, power_scale(2.0), rep.u, 0, 40, 80.0)
