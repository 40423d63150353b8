import json
import math

import networkx as nx
import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph as csgraph
from hypothesis import example, given, settings, strategies as st

import chainkit.chain as ch
import chainkit.net as nt
import chainkit.space as sp
from chainkit._report import dumps
from chainkit.cli import main
from chainkit.dirichlet import path_graph
from chainkit.heat import sierpinski_gasket_graph
from chainkit.scale import ScaleError, piecewise_scale, power_scale, tabulated_scale
from oracles import unit_line


def snowflake_grid(beta=3.0, n=11):
    return sp.build_space({"type": "snowflake", "beta": beta,
                           "coords": np.linspace(0.0, 1.0, n).tolist()})


def test_proximity_edges_are_strict():
    space = unit_line(3)
    index = ch.ProximityIndex.build(space, 1.0)
    assert index.edges.nnz == 0  # d = 1 is not < 1
    index2 = ch.ProximityIndex.build(space, 1.0 + 1e-9)
    assert index2.edges.nnz == 4


@pytest.mark.parametrize("call, other_space", [
    (ch.analyze_pair, False),  # raised "witness hop at or above epsilon"
    (ch.analyze_pair, True),  # an equal line's index: not this space's own
])
def test_a_proximity_index_for_another_epsilon_or_space_is_an_error(call, other_space):
    line = unit_line(11)
    index = ch.ProximityIndex.build(unit_line(11), 1.5) if other_space else \
        ch.ProximityIndex.build(line, 2.5)
    with pytest.raises(ch.ChainError, match="another space or epsilon"):
        call(line, 1.5, 0, 10, index)
    assert call(line, 1.5, 0, 10, ch.ProximityIndex.build(line, 1.5)).n_eps == 10


def test_chain_metric_on_line_equals_distance():
    space = unit_line(11)
    for eps in (1.5, 2.5, 20.0):
        d_eps, witness = ch.chain_metric(space, eps, 0, 10)
        assert d_eps == 10.0
        assert witness[0] == 0 and witness[-1] == 10


def test_chain_metric_disconnected():
    space = unit_line(11)
    d_eps, witness = ch.chain_metric(space, 0.5, 0, 10)
    assert math.isinf(d_eps) and witness == []
    n_eps, wh = ch.min_chain_count(space, 0.5, 0, 10)
    assert math.isinf(n_eps) and wh == []


def test_chain_metric_same_point():
    space = unit_line(5)
    assert ch.chain_metric(space, 1.0, 3, 3) == (0.0, [3])
    assert ch.min_chain_count(space, 1.0, 3, 3) == (0, [3])


def test_snowflake_chain_metric_frozen_value():
    # 0.1-grid snowflake beta=3: hop length 0.1^(2/3); at eps=0.22 only
    # single-step hops are admissible, so d_eps(0, 1) = 10 * 0.1^(2/3)
    space = snowflake_grid(3.0, 11)
    d_eps, _ = ch.chain_metric(space, 0.22, 0, 10)
    assert d_eps == pytest.approx(10.0 * 0.1 ** (2.0 / 3.0), rel=1e-12)
    n_eps, _ = ch.min_chain_count(space, 0.22, 0, 10)
    assert n_eps == 10


def test_analyze_pair_witnesses_verify():
    space = snowflake_grid(3.0, 21)
    a = ch.analyze_pair(space, 0.3, 0, 20)
    a.verify(space)
    assert ch.chain_sandwich_check(a)


def test_sandwich_raises_on_disconnection():
    space = unit_line(4)
    a = ch.ChainAnalysis(x=0, y=3, epsilon=0.5, d_eps=math.inf,
                         n_eps=math.inf, witness_metric=[], witness_hops=[])
    with pytest.raises(ch.ChainError):
        ch.chain_sandwich_check(a)


def test_sandwich_violations_counts_each_failing_pair():
    # blocks ceil(d_eps / 1) = 0, 0, 3, 3, 3, inf: N_eps = 1 at x == y, 2 < 3
    # and 28 > 27 break the sandwich; the disconnected pair does not count
    d_eps = np.array([0.0, 0.0, 2.5, 2.5, 2.5, math.inf])
    n_eps = np.array([0, 1, 3, 2, 28, math.inf])
    assert ch.sandwich_violations(1.0, d_eps, n_eps) == 3
    assert [ch.sandwich_violations(1.0, d, n) for d, n in zip(d_eps, n_eps)] == [0, 1, 0, 1, 1, 0]
    same = ch.ChainAnalysis(x=2, y=2, epsilon=0.5, d_eps=0.0, n_eps=0,
                            witness_metric=[2], witness_hops=[2])
    assert ch.chain_sandwich_check(same)


def test_main_inequality_scan_reports_skips():
    space = unit_line(5)
    psi = power_scale(2.0)
    scan = ch.main_inequality_scan(space, psi, [(0, 1), (0, 4)], [2.0])
    # (0,1) has d < eps and is skipped
    assert scan["skipped"] == 1
    assert scan["worst_ratio"] > 0


@pytest.mark.parametrize("pairs, bad", [([(0, 1), (5, 0), (0, -1)], 5),
                                       ([(0, 1), (2, -1), (7, 3)], -1)])
def test_main_inequality_scan_names_the_first_id_outside_the_space(pairs, bad):
    # -1 would read the last point; 5 is past the end.  First in row-major order
    with pytest.raises(sp.SpaceError, match=f"unknown point id {bad}$"):
        ch.main_inequality_scan(unit_line(5), power_scale(2.0), pairs, [2.0])


@pytest.mark.parametrize("pairs, bad", [([(0, 1), (5, 0), (0, -1)], 5),
                                       ([(0, 1), (2, -1), (7, 3)], -1)])
def test_chain_condition_estimate_names_the_first_id_outside_the_space(pairs, bad):
    # 5 ended in an IndexError; -1 alone read the last point, and came back
    # as the argmax (eps, 0, -1) when its ratio was the largest
    with pytest.raises(sp.SpaceError, match=f"unknown point id {bad}$"):
        ch.chain_condition_estimate(unit_line(5), [2.0], pairs)


@pytest.mark.parametrize("call, bad", [
    # each was a quietly wrong answer or an unrelated error
    (lambda line: ch.main_inequality_scan(line, power_scale(2.0), [(0, 3.7)], [1.5]),
     "3.7"),  # a table row for pair (0, 3)
    (lambda line: ch.chain_condition_estimate(line, [1.5], pairs=[(0, 3.9)]), "3.9"),
    (lambda line: ch.chain_metric(line, 1.5, 0, 2.0), "2.0"),  # IndexError
    (lambda line: ch.chain_metric(line, 1.5, 0, True), "True"),  # ambiguous truth value
    (lambda line: ch.min_chain_count(line, 1.5, np.bool_(False), 3), "False"),
    (lambda line: nt.build_net(line, 1.5, include=[1.5]), "1.5"),  # IndexError
    (lambda line: list(ch.pair_analyses(line, [1.5], np.array([0.0, 1.0]),
                                        np.array([2.0, 4.0]))), "0.0"),  # IndexError
    (lambda line: sp.ball(line, 2.5, 1.0), "2.5"),  # IndexError
    # np.asarray turned the bool among ints into 1: a table row for pair (1, 3)
    (lambda line: ch.main_inequality_scan(line, power_scale(2.0), [(True, 3)], [1.5]), "True"),
    (lambda line: ch.chain_condition_estimate(line, [1.5], [[0, 4], [np.True_, 3]]), "True"),
], ids=["scan", "condition", "metric-float", "metric-bool", "count-numpy-bool", "net-include",
        "pair-analyses", "ball", "scan-bool-among-ints", "condition-bool-among-ints"])
def test_an_id_that_is_not_an_integer_is_an_error(call, bad):
    with pytest.raises(sp.SpaceError, match=f"^point id {bad} is not an integer$"):
        call(unit_line(5))


@pytest.mark.parametrize("pairs, message", [
    ([(0, 4, 2, 3)], "a pair must be a row of two point ids; got (0, 4, 2, 3)"),  # (0, 4), (2, 3)
    ([(0, 1, 2)], "a pair must be a row of two point ids; got (0, 1, 2)"),  # cannot reshape
    ([(0, 1), 3], "a pair must be a row of two point ids; got 3"),  # inhomogeneous shape
    (np.array([[0, 1, 2]]), "pairs must be a (k, 2) array of point ids; got shape (1, 3)"),
], ids=["row-of-four", "row-of-three", "an-int-row", "array-of-three-columns"])
@pytest.mark.parametrize("call", [
    lambda line, pairs: ch.main_inequality_scan(line, power_scale(2.0), pairs, [1.5]),
    lambda line, pairs: ch.chain_condition_estimate(line, [1.5], pairs),
], ids=["scan", "condition"])
def test_a_pair_list_that_is_not_rows_of_two_ids_is_an_error(call, pairs, message):
    with pytest.raises(sp.SpaceError) as err:
        call(unit_line(5), pairs)
    assert str(err.value) == message


def test_an_empty_pair_list_is_accepted():
    line = unit_line(5)
    assert ch.main_inequality_scan(line, power_scale(2.0), [], [1.5])["skipped"] == 0
    assert ch.chain_condition_estimate(line, [1.5], [])["K_hat"] == 1.0


@pytest.mark.parametrize("spec, beta, epsilons, message", [
    # psi(d) = d ** 300 overflows to inf: the ratios were NaN, worst_ratio 0, argmax None
    ({"type": "euclidean", "coords": [0.0, 10.0, 20.0, 30.0, 40.0]}, 300.0, [15.0, 25.0],
     "psi is not finite and positive at eps = 15.0"),
    # psi(eps) underflows to 0: the ratios were 0
    ({"type": "euclidean", "coords": [0.0, 1e-3, 2e-3, 3e-3, 4e-3]}, 300.0, [1.5e-3],
     "psi is not finite and positive at eps = 0.0015"),
    # eps ** 2 and d_eps ** 2 underflow to 0: NaN ratios, or ZeroDivisionError
    ({"type": "explicit", "matrix": [[abs(i - j) * 1e-170 for j in range(5)] for i in range(5)]},
     1.0, [1.5e-170], "the ratio is NaN at eps = 1.5e-170"),
])
@pytest.mark.parametrize("as_array", [False, True])
def test_main_inequality_scan_rejects_ratios_out_of_float_range(spec, beta, epsilons, message,
                                                                as_array):
    space = sp.build_space(spec)
    epsilons = np.array(epsilons) if as_array else epsilons
    with pytest.raises(ch.ChainError, match=message):
        ch.main_inequality_scan(space, power_scale(beta), [(0, 2), (0, 4), (1, 3)], epsilons)


def _scan_reference(space, psi, pairs, epsilons) -> dict:
    """``main_inequality_scan`` as a loop that builds one dict per row."""
    xs, ys = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    sources, rows = np.unique(xs, return_inverse=True)
    d = space.dist[xs, ys]
    worst = 0.0
    argmax = None
    table = []
    trend = []
    skipped = 0
    for eps in epsilons:
        index = ch.ProximityIndex.build(space, eps)
        d_eps = index.shortest_paths(sources, weighted=True)[0][rows, ys]
        keep = np.flatnonzero((d >= eps) & np.isfinite(d_eps))
        skipped += xs.size - keep.size
        if not keep.size:
            continue
        psi_eps, eps_f = psi(eps), float(eps)
        trend_max = 0.0
        for x, y, dist, chain, psi_d in zip(
                xs[keep].tolist(), ys[keep].tolist(), d[keep].tolist(),
                d_eps[keep].tolist(), psi(d[keep]).tolist()):
            ratio = (chain ** 2 / eps ** 2) / (psi_d / psi_eps)
            table.append({"x": x, "y": y, "eps": eps_f, "d": dist,
                          "d_eps": chain, "ratio": ratio})
            trend_max = max(trend_max, psi_eps * chain / eps)
            if ratio > worst:
                worst = ratio
                argmax = (eps_f, x, y)
        trend.append({"eps": eps_f, "max_vanishing_functional": trend_max})
    return {"worst_ratio": worst, "argmax": argmax, "table": table,
            "trend": trend, "skipped": skipped}


def _bits(v):
    """``v`` with every float as its float.hex, for bit-for-bit comparison."""
    if isinstance(v, dict):
        return {k: _bits(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_bits(x) for x in v]
    return float.hex(v) if isinstance(v, float) else v


@st.composite
def scan_cases(draw):
    """Spaces with exact distance ties, a snowflake line or a random cloud;
    pairs with x == y and pairs that some eps disconnects; eps as Python floats
    or np.geomspace; a power or a piecewise psi."""
    kind = draw(st.sampled_from(["ties", "snowflake", "cloud"]))
    if kind == "ties":
        space = draw(spaces_with_ties())[0]
    elif kind == "snowflake":
        space = snowflake_grid(draw(st.floats(2.0, 4.0)), draw(st.integers(2, 40)))
    else:
        coords = np.random.default_rng(draw(st.integers(0, 10 ** 6))).uniform(
            0, 1, (draw(st.integers(2, 40)), 2))
        space = sp.build_space({"type": "euclidean", "coords": coords.tolist()})
    ids = st.integers(0, space.n - 1)
    pairs = draw(st.just(list(np.ndindex(space.n, space.n)))
                 | st.lists(st.tuples(ids, ids), min_size=1, max_size=30))
    radii = space.critical_radii().tolist() or [1.0]
    if draw(st.booleans()):
        epsilons = [float(e) for e in draw(st.lists(
            st.sampled_from(radii) | st.floats(1e-3, 1.1 * max(radii)), min_size=1, max_size=4))]
    else:
        epsilons = np.geomspace(draw(st.floats(0.5, 1.0)) * min(radii), 1.1 * max(radii),
                                draw(st.integers(1, 5)))
    if draw(st.booleans()):
        psi = power_scale(draw(st.just(2.0) | st.floats(1.0, 4.0)))  # 2: ratio ties
    else:
        psi = piecewise_scale([draw(st.sampled_from(radii))],
                              draw(st.lists(st.floats(0.5, 4.0), min_size=2, max_size=2)))
    return space, psi, pairs, epsilons


@given(scan_cases())
# 12 of its d_eps have an array ** 2 one ulp off the Python float's
@example((snowflake_grid(3.0, 26), power_scale(3.0), list(np.ndindex(26, 26)), [0.3, 0.5]))
@settings(max_examples=200, deadline=None)
def test_main_inequality_scan_equals_the_row_loop(case):
    scan, ref = ch.main_inequality_scan(*case), _scan_reference(*case)
    assert _bits(list(scan["table"])) == _bits(ref["table"])
    for key in ("worst_ratio", "argmax", "trend", "skipped"):
        assert _bits(scan[key]) == _bits(ref[key]), key


def test_chain_condition_estimate_geodesic_is_one():
    space = unit_line(11)
    rep = ch.chain_condition_estimate(space, [1.5, 2.5])
    assert rep["K_hat"] == pytest.approx(1.0)


def test_chain_condition_estimate_disconnection():
    space = unit_line(11)
    rep = ch.chain_condition_estimate(space, [0.5])
    assert math.isinf(rep["K_hat"])
    assert rep["disconnected_at"] == 0.5


def reference_condition_estimate(space, epsilons, pairs=None):
    """The loop chain_condition_estimate ran before it skipped scales, kept as
    its reference: one all-pairs search per eps, in the given order."""
    if pairs is None:
        pairs = np.transpose(np.triu_indices(space.n, 1))
    xs, ys = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    xs, ys = xs[xs != ys], ys[xs != ys]
    sources, rows = np.unique(xs, return_inverse=True)
    d = space.dist[xs, ys]
    K_hat = 1.0
    argmax = None
    for eps in epsilons:
        index = ch.ProximityIndex.build(space, eps)
        ratio = index.shortest_paths(sources, weighted=True)[0][rows, ys] / d
        cut = np.flatnonzero(np.isinf(ratio))
        if cut.size:
            return {"K_hat": math.inf, "disconnected_at": float(eps),
                    "argmax": (float(eps), int(xs[cut[0]]), int(ys[cut[0]]))}
        if ratio.size and ratio.max() > K_hat:
            k = int(np.argmax(ratio))
            K_hat = float(ratio[k])
            argmax = (float(eps), int(xs[k]), int(ys[k]))
    return {"K_hat": K_hat, "disconnected_at": None, "argmax": argmax}


def drawn_space(kind, n, seed):
    """A random euclidean or snowflake cloud, or a permuted integer lattice
    (many tied distances), of n points."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        side = int(math.ceil(math.sqrt(n)))
        grid = np.array([(i % side, i // side) for i in range(n)], dtype=float)
        return sp.build_space({"type": "euclidean", "coords": grid[rng.permutation(n)].tolist()})
    spec = {"type": kind, "coords": rng.uniform(0, 2, (n, 2)).tolist()}
    if kind == "snowflake":
        spec["beta"] = 3.0
    return sp.build_space(spec)


@given(st.sampled_from(["euclidean", "snowflake", "lattice"]), st.integers(2, 12),
       st.integers(0, 10 ** 6), st.data())
@settings(max_examples=150, deadline=None)
def test_chain_condition_estimate_equals_the_full_loop(kind, n, seed, data):
    # shuffled scales with repeats, on breaks (ties at exactly eps), just
    # above them and between them, from below the smallest (disconnected) or
    # from the top half of the breaks (mostly connected)
    space = drawn_space(kind, n, seed)
    radii = space.critical_radii()
    radii = radii[data.draw(st.sampled_from([0, radii.size // 2])):]
    scales = st.sampled_from(radii.tolist()) | st.sampled_from(
        np.nextafter(radii, np.inf).tolist()) | st.floats(0.2 * radii[0], 1.1 * radii[-1])
    eps = data.draw(st.lists(scales, max_size=8))
    eps = data.draw(st.permutations(eps + data.draw(st.lists(st.sampled_from(eps or [1.0]),
                                                              max_size=3))))
    # at most one NaN, negative or zero eps mid-list: both raise there, unless
    # a disconnected eps before it returns first
    eps = data.draw(st.permutations(eps + data.draw(st.lists(
        st.sampled_from([math.nan, -radii[0], 0.0]), max_size=1))))
    ids = st.integers(0, n - 1)
    pairs = data.draw(st.none() | st.lists(st.tuples(ids, ids), min_size=1, max_size=20))
    assert (condition_outcome(ch.chain_condition_estimate, space, iter(eps), pairs)
            == condition_outcome(reference_condition_estimate, space, eps, pairs))


def condition_outcome(fn, space, epsilons, pairs):
    try:
        return fn(space, epsilons, pairs)
    except ch.ChainError as exc:
        return "ChainError", str(exc)


def counted_searches(monkeypatch):
    """The epsilons of every ProximityIndex.shortest_paths call from now on."""
    calls, search = [], ch.ProximityIndex.shortest_paths

    def counted(self, sources, weighted=True):
        calls.append(self.epsilon)
        return search(self, sources, weighted)

    monkeypatch.setattr(ch.ProximityIndex, "shortest_paths", counted)
    return calls


def counted_builds(monkeypatch):
    """The epsilons of every ProximityIndex.build call from now on."""
    built, build = [], ch.ProximityIndex.build.__func__

    def counted(cls, space, epsilon):
        built.append(epsilon)
        return build(cls, space, epsilon)

    monkeypatch.setattr(ch.ProximityIndex, "build", classmethod(counted))
    return built


def test_chain_report_reads_its_analyses_from_one_sweep_per_eps(monkeypatch, tmp_path,
                                                                 capsys):
    # a jittered 2-D cloud of 12 points: 66 pairs, of which the report analyses
    # 32 per eps; several share a source, and eps 0.7 disconnects some of them
    rng = np.random.default_rng(5)
    coords = np.column_stack([np.arange(12.0) % 4, np.arange(12.0) // 4])
    space = sp.build_space({"type": "euclidean",
                            "coords": (coords + rng.uniform(-0.2, 0.2, coords.shape)).tolist()})
    path = tmp_path / "cloud.json"
    sp.save_space(space, path)
    eps = [0.7, 1.3, 2.5]
    built, calls = counted_builds(monkeypatch), counted_searches(monkeypatch)
    assert main(["chain", "--space", str(path), "--eps", ",".join(map(str, eps))]) == 0
    assert (len(built), len(calls)) == (6, 9)  # the scan's sweep, then one for the analyses
    analyses = json.loads(capsys.readouterr().out)["analyses"]
    pairs = np.column_stack(np.triu_indices(space.n, 1))[:32].tolist()
    alone = [ch.analyze_pair(space, e, x, y) for e in eps for x, y in pairs]
    assert any(math.isinf(a.d_eps) for a in alone) and any(a.n_eps > 1 for a in alone)
    assert analyses == json.loads(dumps([
        {"x": a.x, "y": a.y, "eps": a.epsilon, "d_eps": a.d_eps, "n_eps": a.n_eps,
         "witness_metric": a.witness_metric, "witness_hops": a.witness_hops}
        for a in alone]))


def test_chain_condition_estimate_searches_only_below_the_smallest_connected_eps(monkeypatch):
    space = snowflake_grid(3.0, 11)  # hops of 0.1^(2/3) = 0.215: every eps connects
    grid = [0.25, 0.5, 1.0, 1.5]
    calls = counted_searches(monkeypatch)
    up = ch.chain_condition_estimate(space, grid)
    assert calls == [0.25]
    calls.clear()
    down = ch.chain_condition_estimate(space, grid[::-1])
    assert calls == grid[::-1]
    assert up["K_hat"] == down["K_hat"] > 1.0
    assert up == reference_condition_estimate(space, grid)
    assert down == reference_condition_estimate(space, grid[::-1])
    calls.clear()
    mixed = [0.5, 1.0, 0.25, 0.3, 1.5, 0.25]  # skipped once the smallest so far connects
    assert ch.chain_condition_estimate(space, mixed) == reference_condition_estimate(space, mixed)
    assert calls[:2] == [0.5, 0.25] and len(calls) == 2 + len(mixed)


@given(st.sampled_from(["euclidean", "snowflake", "lattice"]), st.integers(2, 12),
       st.integers(0, 10 ** 6), st.data())
@settings(max_examples=100, deadline=None)
def test_chain_sweep_reads_the_single_pair_chains(kind, n, seed, data):
    space = drawn_space(kind, n, seed)
    radii = space.critical_radii()
    scales = st.sampled_from(radii.tolist()) | st.sampled_from(
        np.nextafter(radii, np.inf).tolist()) | st.floats(0.2 * radii[0], 1.1 * radii[-1])
    eps = data.draw(st.permutations(data.draw(st.lists(scales, min_size=1, max_size=6))))
    few = st.integers(0, min(2, n - 1))  # sources that repeat
    ids = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(few | ids, ids), min_size=1, max_size=20))
    xs, ys = np.array(pairs).T
    sweep = list(ch.chain_sweep(space, eps, xs, ys))  # each reader keeps its own eps
    assert [e for e, _ in sweep] == eps
    for e, chains in sweep:
        (d_eps, metric), (hops, fewest) = chains(), chains(weighted=False)
        for k, (x, y) in enumerate(pairs):
            # witnesses from the sweep's own 2-D search: the same lists of ints
            assert (d_eps[k], metric(k)) == ch.chain_metric(space, e, x, y)
            assert (hops[k], fewest(k)) == ch.min_chain_count(space, e, x, y)
            assert {type(v) for v in metric(k) + fewest(k)} <= {int}
            # numpy ids give the same chains, of Python ints too
            wm = ch.chain_metric(space, e, np.int64(x), np.int64(y))[1]
            wh = ch.min_chain_count(space, e, np.int64(x), np.int64(y))[1]
            assert (wm, wh) == (metric(k), fewest(k))
            assert {type(v) for v in wm + wh} <= {int}


@pytest.mark.parametrize("suite, builds, searches", [
    ("geodesic", 20, 40), ("snowflake", 13, 23), ("gasket", 5, 10)])
def test_each_suite_builds_and_searches_as_often_as_before(suite, builds, searches,
                                                           monkeypatch):
    from chainkit.suites import SUITES

    built, calls = counted_builds(monkeypatch), counted_searches(monkeypatch)
    assert SUITES[suite]()["ok"]
    assert (len(built), len(calls)) == (builds, searches)


def reference_edges(space, eps):
    """The dense-to-sparse build ProximityIndex.build replaced."""
    adj = (space.dist < eps) & ~np.eye(space.n, dtype=bool)
    return scipy.sparse.csr_matrix(np.where(adj, space.dist, 0.0))


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@st.composite
def spaces_with_ties(draw):
    """Integer-coordinate lines and grids (exact distance ties), random clouds
    and a graph space, with an epsilon that is often exactly a distance."""
    kind = draw(st.sampled_from(["line", "grid", "cloud", "graph"]))
    if kind == "line":
        coords = sorted(set(draw(st.lists(st.integers(0, 30), min_size=1, max_size=14))))
        space = sp.build_space({"type": "euclidean", "coords": [float(c) for c in coords]})
    elif kind == "grid":
        a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        space = sp.build_space({"type": "euclidean",
                                "coords": [[i, j] for i in range(a) for j in range(b)]})
    elif kind == "cloud":
        rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
        space = sp.build_space({"type": "euclidean",
                                "coords": rng.uniform(0, 1, (draw(st.integers(1, 14)), 2)).tolist()})
    else:
        space = sp.space_from_graph(sierpinski_gasket_graph(2))
    radii = space.critical_radii().tolist() or [1.0]
    eps = draw(st.one_of(st.sampled_from(radii),  # pairs at exactly eps are no edges
                         st.sampled_from(radii).map(lambda r: np.nextafter(r, math.inf)),
                         st.floats(1e-3, 1.1 * max(radii))))
    return space, float(eps)


@given(spaces_with_ties())
@example((sp.build_space({"type": "euclidean", "coords": [0.0]}), 1.0))  # one point
@example((unit_line(5), 0.5))  # eps below every distance: no edge
@example((unit_line(5), 9.0))  # eps above the diameter: the complete graph
@settings(max_examples=150, deadline=None)
def test_build_equals_the_dense_reference(case):
    space, eps = case
    assert_same_csr(ch.ProximityIndex.build(space, eps).edges, reference_edges(space, eps))
    wider = ch.ProximityIndex.build(space, max(eps, 2.0 * space.diameter()))
    assert_same_csr(wider._narrowed(eps).edges, reference_edges(space, eps))


@given(spaces_with_ties(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_one_way_search_equals_the_undirected_one(case, weighted):
    space, eps = case
    index = ch.ProximityIndex.build(space, eps)
    for sources in (np.arange(space.n), space.n - 1):
        got = index.shortest_paths(sources, weighted=weighted)
        want = csgraph.dijkstra(index.edges, directed=False, indices=sources,
                                return_predecessors=True, unweighted=not weighted)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(spaces_with_ties(), st.data())
@settings(max_examples=150, deadline=None)
def test_each_narrowed_index_equals_a_fresh_build(case, data):
    space, _ = case
    x = data.draw(st.integers(0, space.n - 1))
    y = data.draw(st.integers(0, space.n - 1))
    narrowed = []
    narrow = ch.ProximityIndex._narrowed

    def kept_narrow(index, eps):
        narrowed.append(narrow(index, eps))
        return narrowed[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ch.ProximityIndex, "_narrowed", kept_narrow)
        ch.d_eps_step_function(space, x, y)
    for index in narrowed:
        assert_same_csr(index.edges, ch.ProximityIndex.build(space, index.epsilon).edges)
        assert_same_csr(index.edges, reference_edges(space, index.epsilon))


def _nx_proximity(space, eps):
    graph = nx.Graph()
    graph.add_nodes_from(range(space.n))
    i, j = np.nonzero(np.triu(space.dist < eps, 1))
    graph.add_weighted_edges_from((a, b, space.dist[a, b])
                                  for a, b in zip(i.tolist(), j.tolist()))
    return graph


def test_chain_engine_matches_networkx():
    rng = np.random.default_rng(1)
    space = sp.build_space({"type": "euclidean",
                            "coords": rng.uniform(0, 1, (30, 2)).tolist()})
    psi = power_scale(2.0)
    # repeated sources and both orientations of a pair
    pairs = [tuple(int(v) for v in rng.choice(10, 2, replace=False)) for _ in range(40)]
    connected, disconnected = 0.3, 0.2
    d_nx, hops_nx = {}, {}
    for eps in (connected, disconnected):
        graph = _nx_proximity(space, eps)
        assert nx.is_connected(graph) == (eps == connected)
        d_nx[eps] = np.full((space.n, space.n), math.inf)
        hops_nx[eps] = np.full((space.n, space.n), math.inf)
        for x, row in nx.all_pairs_dijkstra_path_length(graph):
            for y, v in row.items():
                d_nx[eps][x, y] = v
        for x, row in nx.all_pairs_shortest_path_length(graph):
            for y, v in row.items():
                hops_nx[eps][x, y] = v

        hops = ch.ProximityIndex.build(space, eps).shortest_paths(
            np.arange(space.n), weighted=False)[0]
        assert np.array_equal(hops, hops_nx[eps])

        scan = ch.main_inequality_scan(space, psi, pairs, [eps])
        expected = [(x, y) for x, y in pairs
                    if space.dist[x, y] >= eps and math.isfinite(d_nx[eps][x, y])]
        assert 0 < len(expected) < len(pairs)
        assert scan["skipped"] == len(pairs) - len(expected)
        assert [(r["x"], r["y"]) for r in scan["table"]] == expected
        for r in scan["table"]:
            d_eps = d_nx[eps][r["x"], r["y"]]
            assert r["d_eps"] == pytest.approx(d_eps, rel=1e-12)
            assert r["ratio"] == pytest.approx(
                (d_eps / eps) ** 2 / (r["d"] / eps) ** 2, rel=1e-12)

    ratio = {(x, y): d_nx[connected][x, y] / space.dist[x, y] for x, y in pairs}
    worst = max(ratio, key=ratio.get)
    rep = ch.chain_condition_estimate(space, [connected], pairs)
    assert rep["K_hat"] == pytest.approx(ratio[worst], rel=1e-12)
    assert rep["argmax"] == (connected, *worst)
    assert rep["disconnected_at"] is None

    rep = ch.chain_condition_estimate(space, [connected, disconnected], pairs)
    first_cut = next((x, y) for x, y in pairs if math.isinf(d_nx[disconnected][x, y]))
    assert math.isinf(rep["K_hat"])
    assert rep["disconnected_at"] == disconnected
    assert rep["argmax"] == (disconnected, *first_cut)


def _nx_d_eps(space, eps, x, y):
    try:
        return nx.dijkstra_path_length(_nx_proximity(space, eps), x, y)
    except nx.NetworkXNoPath:
        return math.inf


def test_d_eps_step_function_keeps_edges_at_each_break():
    # consecutive breaks 0.3419... are adjacent doubles: a midpoint between
    # them rounds down onto the lower break and drops its edges
    space = snowflake_grid(3.0, 11)
    breaks, values = ch.d_eps_step_function(space, 0, 10)
    assert breaks.size == 20
    expected = [_nx_d_eps(space, np.nextafter(b, np.inf), 0, 10) for b in breaks]
    assert values.tolist() == expected


@given(st.integers(2, 9), st.integers(0, 10 ** 6), st.sampled_from([None, 2.5, 3.0]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_d_eps_step_function_matches_networkx(n, seed, beta, data):
    rng = np.random.default_rng(seed)
    spec = {"type": "euclidean", "coords": rng.uniform(0, 1, (n, 2)).tolist()}
    if beta is not None:
        spec.update(type="snowflake", beta=beta)
    space = sp.build_space(spec)
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    builds = []
    build = ch.ProximityIndex.build

    def counted_build(space, eps):
        builds.append(eps)
        return build(space, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ch.ProximityIndex, "build", counted_build)
        breaks, values = ch.d_eps_step_function(space, x, y)
    assert len(builds) <= breaks.size
    expected = [_nx_d_eps(space, np.nextafter(b, np.inf), x, y) for b in breaks]
    assert values.tolist() == expected


def test_d_eps_step_function_on_line():
    space = unit_line(4)
    breaks, values = ch.d_eps_step_function(space, 0, 3)
    # eps <= 1: disconnected; 1 < eps: d_eps = 3 (values indexed by interval)
    assert breaks[0] == 1.0
    assert values[0] == 3.0
    assert (values[np.isfinite(values)] == 3.0).all()


def test_epsilon_of_t_closed_form_on_line():
    # geodesic line, psi = r^2: F(eps) = eps * d, so eps(t) = t / d
    space = unit_line(11)
    psi = power_scale(2.0)
    # finite d_eps needs eps > 1 on the unit lattice, i.e. t > d here
    for t in (15.0, 42.0, 77.0):
        eps = ch.epsilon_of_t(space, psi, 0, 10, t)
        assert eps == pytest.approx(min(t / 10.0, space.diameter()), rel=1e-9)


def test_epsilon_of_t_caps_at_diameter():
    space = unit_line(11)
    psi = power_scale(2.0)
    assert ch.epsilon_of_t(space, psi, 0, 10, 1e6) == pytest.approx(10.0)


def test_epsilon_of_t_below_resolution():
    space = unit_line(11)
    psi = power_scale(2.0)
    with pytest.raises(ch.ChainError, match="resolution"):
        ch.epsilon_of_t(space, psi, 0, 10, 1e-9)
    with pytest.raises(ch.ChainError):
        ch.epsilon_of_t(space, psi, 0, 0, 1.0)
    with pytest.raises(ch.ChainError, match="t must be positive"):
        ch.epsilon_of_t(space, psi, 0, 10, math.nan)


def full_walk_epsilon_of_t(space, psi, x, y, t):
    """epsilon_of_t before it skipped intervals, kept as its reference: every
    step of d_eps from the top, psi called on each step's merged points."""
    if not t > 0:
        raise ch.ChainError("t must be positive")
    if x == y:
        raise ch.ChainError("epsilon_of_t requires x != y")
    sp.check_ids(space, x, y)
    breaks = space.critical_radii()
    knots = psi.knots
    for j, k, L in ch._d_eps_steps(space, breaks, x, y):
        e = breaks[j:k + 2]  # interval i of the step is (e[i], e[i + 1]]
        e = np.union1d(e, knots[(knots > e[0]) & (knots < e[-1])])
        F = psi(e) / e * L
        hit = np.flatnonzero((F[1:] <= t) | (F[:-1] < t))
        if not hit.size:
            continue
        i = hit[-1]
        if F[i + 1] <= t:
            return float(e[i + 1])
        a, b = e[i], e[i + 1]
        for _ in range(200):
            mid = 0.5 * (a + b)
            if psi(mid) / mid * L <= t:
                a = mid
            else:
                b = mid
            if b - a <= 1e-15 * max(1.0, b):
                break
        return float(a)
    raise ch.ChainError("time below chain resolution: no eps satisfies the bound")


def eot_result(fn, space, psi, x, y, t):
    """The float, or the error's type and message."""
    try:
        return fn(space, psi, x, y, t)
    except (ch.ChainError, ScaleError) as err:
        return type(err).__name__, str(err)


PSIS = {"power-1.5": power_scale(1.5), "power-2": power_scale(2.0),
        "power-3": power_scale(3.0)}
# psi(r)/r falls on (0.5, 2]: F need not be monotone inside an interval of
# d_eps, which a scan of the intervals' ends alone misses
PIECEWISE = piecewise_scale([0.5, 2.0], [2.0, 0.6, 3.0])
# the same psi as a table: log-log interpolation is exact between its knots
TABLE_R = np.array([1e-9, 0.5, 2.0, 1e3])
KNOTTED = {"piecewise": PIECEWISE,
           "table": tabulated_scale(TABLE_R, PIECEWISE(TABLE_R), 0.6, 3.0, 1.0)}


def eot_times(space, psi, x, y, data):
    """Times exactly at F(lo) or F(hi) of a finite interval, and one between."""
    breaks, values = ch.d_eps_step_function(space, x, y)
    finite = np.flatnonzero(np.isfinite(values[:-1]))
    if not finite.size:
        return [1.0]
    k = int(data.draw(st.sampled_from(finite.tolist())))
    at_lo = psi(breaks[k]) / breaks[k] * values[k]
    at_hi = psi(breaks[k + 1]) / breaks[k + 1] * values[k]
    return [at_lo, at_hi, at_lo * data.draw(st.floats(0.25, 4.0))]


@given(st.sampled_from(["euclidean", "snowflake", "lattice"]), st.integers(2, 12),
       st.integers(0, 10 ** 6), st.sampled_from(sorted(PSIS)), st.data())
@settings(max_examples=150, deadline=None)
def test_epsilon_of_t_matches_interval_scan(kind, n, seed, psi_name, data):
    space = drawn_space(kind, n, seed)
    psi = PSIS[psi_name]
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1).filter(lambda v: v != x))
    for t in eot_times(space, psi, x, y, data):
        assert (eot_result(ch.epsilon_of_t, space, psi, x, y, t)
                == eot_result(full_walk_epsilon_of_t, space, psi, x, y, t))


def test_epsilon_of_t_matches_interval_scan_on_resistance_gasket():
    # effective resistance R = g_xx + g_yy - 2 g_xy from the Laplacian
    # pseudo-inverse: 123 points with thousands of distinct distances
    form = sierpinski_gasket_graph(4)
    g = np.linalg.pinv(form.laplacian().toarray())
    R = np.diag(g)[:, None] + np.diag(g)[None, :] - 2 * g
    R = np.maximum((R + R.T) / 2, 0.0)
    np.fill_diagonal(R, 0.0)
    space = sp.FiniteMetricMeasureSpace(R, np.ones(form.n))
    assert space.n == 123
    psi = power_scale(math.log(5) / math.log(5 / 3))
    for y, q in ((1, 0.3), (2, 0.7), (60, 0.5), (122, 0.9)):
        breaks, values = ch.d_eps_step_function(space, 0, y)
        k = np.flatnonzero(np.isfinite(values[:-1]))
        k = int(k[int(q * (k.size - 1))])
        at_lo = psi(breaks[k]) / breaks[k] * values[k]
        for t in (at_lo, at_lo * 1.37, at_lo * 1e-3):
            assert (eot_result(ch.epsilon_of_t, space, psi, 0, y, t)
                    == eot_result(full_walk_epsilon_of_t, space, psi, 0, y, t))


@given(st.sampled_from(["euclidean", "snowflake", "lattice"]), st.integers(2, 12),
       st.integers(0, 10 ** 6), st.sampled_from(sorted(PSIS) + sorted(KNOTTED) + ["short"]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_epsilon_of_t_equals_the_full_walk(kind, n, seed, psi_name, data):
    # "short" is r^2 tabulated from a point between breaks up: the walk must
    # raise the table's range error exactly when it reaches a step below it
    space = drawn_space(kind, n, seed)
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1).filter(lambda v: v != x))
    if psi_name == "short":
        breaks = space.critical_radii()
        lo = breaks[data.draw(st.integers(0, breaks.size - 1))] * data.draw(st.floats(1.0, 1.5))
        r = np.geomspace(lo, 1e3, 6)
        psi, times_psi = tabulated_scale(r, r ** 2, 2.0, 2.0, 1.0), power_scale(2.0)
    else:
        psi = times_psi = {**PSIS, **KNOTTED}[psi_name]
    times = eot_times(space, times_psi, x, y, data) + [data.draw(st.floats(1e-3, 1e3))]
    for t in times:
        assert (eot_result(ch.epsilon_of_t, space, psi, x, y, t)
                == eot_result(full_walk_epsilon_of_t, space, psi, x, y, t))


@pytest.mark.parametrize("seed", range(1, 11))
def test_epsilon_of_t_on_a_permuted_line_searches_at_most_three_times(seed, monkeypatch):
    # psi = r^2 and d_eps = d: t = e d (1 + 1e-6) is met just above e, and
    # the full walk searches once per witness of the tie-broken Dijkstra
    rng = np.random.default_rng(seed)
    line = sp.build_space({"type": "euclidean",
                           "coords": rng.permutation(np.arange(301.0)).tolist()})
    x, y = (int(v) for v in rng.choice(301, size=2, replace=False))
    e = float(np.geomspace(1.5, 300.0, 10)[rng.integers(2, 8)])
    psi, t = power_scale(2.0), e * line.dist[x, y] * (1 + 1e-6)
    calls = counted_searches(monkeypatch)
    eps = ch.epsilon_of_t(line, psi, x, y, t)
    assert len(calls) <= 3
    assert eps == full_walk_epsilon_of_t(line, psi, x, y, t)


@given(st.sampled_from(["euclidean", "snowflake"]), st.integers(2, 10),
       st.integers(0, 10 ** 6), st.sampled_from(sorted(PSIS) + sorted(KNOTTED)),
       st.floats(-3.0, 3.0))
@settings(max_examples=80, deadline=None)
def test_epsilon_of_t_is_the_supremum(kind, n, seed, psi_name, log_t):
    # F(e) = psi(e)/e d_e(x, y) with d_e from networkx
    rng = np.random.default_rng(seed)
    spec = {"type": kind, "coords": rng.uniform(0, 1, (n, 2)).tolist()}
    if kind == "snowflake":
        spec["beta"] = 3.0
    space = sp.build_space(spec)
    psi, t = {**PSIS, **KNOTTED}[psi_name], 10.0 ** log_t

    def F(e):
        return psi(e) / e * _nx_d_eps(space, e, 0, n - 1)

    try:
        eps = ch.epsilon_of_t(space, psi, 0, n - 1, t)
    except ch.ChainError:
        # then F > t on every scale up to the diameter; F is monotone between
        # consecutive breaks of d_eps and knots of psi, so its least value on
        # each interval is just above a break or at a knot
        breaks = space.critical_radii()
        assert all(F(np.nextafter(b, np.inf)) > t for b in breaks[:-1])
        assert all(F(k) > t for k in psi.knots if breaks[0] < k <= breaks[-1])
        return
    assert F(eps) <= t * (1 + 1e-12)
    above = eps * (1 + 1e-9)
    if above < space.diameter():
        assert F(above) > t


@pytest.mark.parametrize("kind", sorted(KNOTTED))
def test_epsilon_of_t_finds_the_supremum_past_a_dip_of_psi_over_r(kind):
    # breaks 1.295, 1.333, 2.366 and d_eps(0, 1) = d(0, 1) above the first;
    # t = F(1.333), and psi(e)/e falls up to the knot 2.0 and rises after it,
    # so F(2.0) = 0.372 < t inside (1.333, 2.366] though F >= t at both ends
    coords = np.random.default_rng(0).uniform(0, 2, (3, 2))
    space = sp.build_space({"type": "euclidean", "coords": coords.tolist()})
    psi, t = KNOTTED[kind], 0.437408377008045
    assert psi(2.0) / 2.0 * space.dist[0, 1] < t
    eps = ch.epsilon_of_t(space, psi, 0, 1, t)
    assert eps == pytest.approx(2.1689195236640018, rel=1e-9)
    assert psi(eps) / eps * space.dist[0, 1] <= t * (1 + 1e-12)


def test_epsilon_of_t_finds_a_time_met_only_at_a_knot():
    # line {0, 1, 3}: d_eps(0, 2) = 3 on (2, 3]; F falls to the knot 2.5 and
    # then rises, so t = 1.01 F(2.5) is met near 2.5 but at neither end
    space = sp.build_space({"type": "euclidean", "coords": [0.0, 1.0, 3.0]})
    psi = piecewise_scale([2.5], [0.5, 3.0])
    t = 1.01 * psi(2.5) / 2.5 * 3.0
    eps = ch.epsilon_of_t(space, psi, 0, 2, t)
    assert 2.5 < eps < 3.0
    assert psi(eps) / eps * 3.0 == pytest.approx(t, rel=1e-12)


@given(st.integers(2, 8), st.integers(0, 10 ** 6), st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_chain_metric_dominates_distance(n, seed, eps):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(n, 2))
    space = sp.build_space({"type": "euclidean", "coords": pts.tolist()})
    x, y = 0, n - 1
    d_eps, _ = ch.chain_metric(space, eps, x, y)
    assert d_eps >= space.dist[x, y] - 1e-12


@given(st.integers(3, 8), st.integers(0, 10 ** 6),
       st.floats(0.05, 1.0), st.floats(1.01, 3.0))
@settings(max_examples=60, deadline=None)
def test_chain_metric_monotone_in_eps(n, seed, eps, factor):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(n, 2))
    space = sp.build_space({"type": "euclidean", "coords": pts.tolist()})
    d_small, _ = ch.chain_metric(space, eps, 0, n - 1)
    d_large, _ = ch.chain_metric(space, eps * factor, 0, n - 1)
    assert d_large <= d_small + 1e-12


def test_chain_metric_on_graph_space():
    space = sp.space_from_graph(path_graph(6))
    d_eps, _ = ch.chain_metric(space, 1.5, 0, 5)
    assert d_eps == pytest.approx(5.0)
