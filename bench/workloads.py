"""The benchmark workloads: seeded inputs, a fixed job list, and oracles.

``setup(seed, workdir)`` makes every input from the seed and returns
``(inputs, record)``.  ``inputs`` holds the library objects the jobs take;
the worker copies them before every pass, so each pass starts from the state
set-up left.  ``record`` lists the input properties the work depends on.
``jobs(inputs)`` returns the fixed job list.  A job's ``run`` holds only
library calls and is what the benchmark times; its ``check`` is the oracle
and is not timed.  Graph inputs are relabelled by a seeded permutation, so
the seed changes the inputs but not the quantities the oracles bound.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from chainkit import chain as ch
from chainkit import dirichlet as df
from chainkit import heat as ht
from chainkit import net as nt
from chainkit import space as spc
from chainkit.cli import main as cli_main
from chainkit.scale import power_scale

from oracles import NxChains, check_d_eps, check_epsilon_of_t
from oracles import close, hop_count, kernel_reference, require

GASKET_BETA = math.log(5.0) / math.log(2.0)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def relabel(form: df.GraphDirichletForm, perm: np.ndarray) -> df.GraphDirichletForm:
    """The same weighted graph with vertex i renamed perm[i]."""
    def move(M):
        c = M.tocoo()
        return sp.coo_matrix((c.data, (perm[c.row], perm[c.col])), shape=c.shape).tocsr()

    measure = np.empty(form.n)
    measure[perm] = form.vertex_measure
    return df.GraphDirichletForm(move(form.conductances), measure, move(form.lengths))


def far_corner(form: df.GraphDirichletForm) -> int:
    """The vertex farthest from vertex 0 (the lowest id among ties)."""
    return int(np.argmax(dijkstra(form.lengths, directed=False, indices=0)))


def metric_record(dist: np.ndarray, epsilons) -> dict:
    upper = dist[np.triu_indices(dist.shape[0], 1)]
    return {
        "n": int(dist.shape[0]),
        "distinct_distances": int(np.unique(upper).size),
        "proximity_edges": {f"{e:.6g}": int(np.count_nonzero(upper < e))
                            for e in epsilons},
    }


class Workload:
    name = ""
    roadmap = ""  # the ROADMAP item the workload is meant to show

    def __init__(self):
        # oracle answers and report digests persist across the passes of a run
        self.memo: dict = {}

    def remember(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]


class WalkExponent(Workload):
    name = "walk-exponent"
    roadmap = "item 2: spectral data once, kernel entries on demand, vectorised fit"

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        inputs = {}
        for key, form in (("cycle-200", df.cycle_graph(200)),
                          ("gasket-6", ht.sierpinski_gasket_graph(6)),
                          ("gasket-5", ht.sierpinski_gasket_graph(5))):
            perm = rng.permutation(form.n)
            inputs[key] = relabel(form, perm)
            inputs[key + ".perm"] = perm
        inputs["cycle-200"].geodesic_distances()
        inputs["gasket-6"].geodesic_distances()
        # times per heat_kernel table; chaining also builds one kernel per (t, n)
        record = {
            "cycle-200": {"n": 200, "kernel_tables": [25, 3]},
            "gasket-6": {"n": inputs["gasket-6"].n, "kernel_tables": [25]},
            "gasket-5": {"n": inputs["gasket-5"].n, "kernel_tables": [4]},
        }
        return inputs, record

    def jobs(self, inputs):
        def walk(key, times, centers, radii, band):
            form, perm = inputs[key], inputs[key + ".perm"]

            def run():
                dist = form.geodesic_distances()
                x0 = int(perm[0])
                # the criterion-7 pair order: centre 0, targets by original id
                pairs = [(x0, int(perm[y])) for y in range(form.n)
                         if dist[x0, perm[y]] > 0]
                table = ht.heat_kernel(form, times, verify=False)
                fit = ht.sub_gaussian_fit(table, dist, pairs=pairs)
                exit_ = ht.exit_time_walk_dimension(form, [int(perm[c]) for c in centers],
                                                    radii)
                return fit.beta, exit_["beta_hat"]

            def check(out):
                beta, beta_exit = out
                lo, hi = band
                require(lo <= beta <= hi, f"{key}: fitted beta {beta} outside {band}")
                require(lo <= beta_exit <= hi, f"{key}: exit-time beta {beta_exit} outside {band}")
                require(abs(beta - beta_exit) <= 0.1 * beta_exit,
                        f"{key}: estimators disagree ({beta} vs {beta_exit})")

            return Job(f"{key}.walk_dimension", run, check)

        def verify_kernels():
            form = inputs["gasket-5"]
            times = [0.1, 1.0, 10.0, 100.0]

            def run():
                return ht.heat_kernel(form, times, verify=True)

            def check(table):
                for t in times:
                    ref = self.remember(("expm", t), lambda: kernel_reference(form, t))
                    err = float(np.abs(table.kernels[t] - ref).max())
                    require(err <= 1e-9, f"gasket-5: p_{t} differs from expm by {err}")

            return Job("gasket-5.kernel_verify", run, check)

        def chaining():
            form, perm = inputs["cycle-200"], inputs["cycle-200.perm"]
            x, y = int(perm[0]), int(perm[100])
            times = [1.0, 4.0, 16.0]

            def run():
                dist = form.geodesic_distances()
                table = ht.heat_kernel(form, times, verify=False)
                return {t: [ht.chaining_lower_bound(table, dist, x, y, t, n)
                            for n in range(1, 33)] for t in times}

            def check(bounds):
                gain = False
                for t, bs in bounds.items():
                    true = self.remember(("cycle-p", t),
                                         lambda: float(kernel_reference(form, t)[x, y]))
                    require(max(bs) <= true + 1e-12, f"cycle-200: chained bound above p_{t}")
                    gain |= max(bs) > 0 and max(bs) >= 2 * bs[0]
                require(gain, "cycle-200: chaining never beat the one-step bound")

            return Job("cycle-200.chaining", run, check)

        return [
            walk("cycle-200", np.geomspace(1.0, 400.0, 25), [0, 50, 100],
                 np.geomspace(2, 40, 8), (1.8, 2.2)),
            walk("gasket-6", np.geomspace(4.0, 4000.0, 25), [0],
                 np.geomspace(2, 32, 6), (2.09, 2.55)),
            verify_kernels(),
            chaining(),
        ]


class ChainScan(Workload):
    name = "chain-scan"
    roadmap = "item 3: one chain engine per epsilon, vectorised space diagnostics"

    # Sized to about nine seconds a pass, so that two or three passes fit in
    # one run: the snowflake scan takes the two smallest of the suite's ten
    # scales, the line's chain condition every third, the pair analyses
    # every other one.
    SCAN_EPS = 2
    PAIRS = 67  # analysed pairs per input, about 200 in all

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        grid = spc.build_space({"type": "snowflake", "beta": 3.0,
                                "coords": rng.permutation(np.linspace(0.0, 1.0, 301)).tolist()})
        line = spc.build_space({"type": "euclidean",
                                "coords": rng.permutation(np.arange(301.0)).tolist()})
        # one uniform point in each cell of an 8 x 10 grid on the unit square:
        # random, but with a seed-independent spread of distances, so every
        # seed asks for about the same work
        cells = np.stack(np.meshgrid(np.arange(8) / 8, np.arange(10) / 10), -1).reshape(-1, 2)
        jitter = rng.uniform(0.0, 1.0, (80, 2)) * [1 / 8, 1 / 10]
        cloud = spc.build_space({"type": "euclidean", "coords": (cells + jitter).tolist()})
        spaces = {
            "grid": (grid, 3.0, np.geomspace(0.05, 0.5, 10)),
            "line": (line, 2.0, np.geomspace(1.5, 300.0, 10)),
            # points of neighbouring cells are closer than 0.27, so every
            # scale keeps the cloud connected
            "cloud": (cloud, 2.0, np.geomspace(0.28, 1.4, 10)),
        }
        inputs, record = {}, {}
        for key, (space, beta, eps) in spaces.items():
            n = space.n
            pairs = []
            while len(pairs) < self.PAIRS:
                x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
                pairs.append((x, y))
            x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
            e = float(eps[rng.integers(2, 8)])
            adj = sp.csr_matrix(np.where(space.dist < e, space.dist, 0.0))
            d_e = float(dijkstra(adj, directed=False, indices=x)[y])
            inputs[key] = {"space": space, "beta": beta, "eps": eps, "pairs": pairs,
                           "eot": (x, y, e ** (beta - 1.0) * d_e * (1 + 1e-6)),
                           "sample_seed": int(rng.integers(2 ** 32))}
            record[key] = metric_record(space.dist, eps)
        return inputs, record

    def nx(self, key, space):
        return self.remember(("nx", key), lambda: NxChains(space.dist))

    def jobs(self, inputs):
        jobs = []
        for key in ("grid", "cloud"):
            jobs.append(self._scan(key, inputs[key]))
        jobs.append(self._condition("line", inputs["line"]))
        jobs.append(self._condition("cloud", inputs["cloud"]))
        for key in ("grid", "line", "cloud"):
            jobs.append(self._analyze(key, inputs[key]))
        for key in ("grid", "line", "cloud"):
            jobs.append(self._epsilon_of_t(key, inputs[key]))
        jobs += self._diagnostics(inputs["cloud"]["space"])
        return jobs

    def _scan(self, key, inp):
        space, beta = inp["space"], inp["beta"]
        eps = inp["eps"][: self.SCAN_EPS] if key == "grid" else inp["eps"]
        n = space.n
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

        def run():
            return ch.main_inequality_scan(space, power_scale(beta), pairs, eps)

        def check(scan):
            table = scan["table"]
            require(len(table) + scan["skipped"] == len(pairs) * len(eps),
                    f"{key}: scan lost pairs")
            worst = max(r["ratio"] for r in table)
            require(scan["worst_ratio"] == worst, f"{key}: worst ratio is not the table max")
            pick = np.random.default_rng(inp["sample_seed"]).choice(len(table), 4, replace=False)
            for k in pick:
                r = table[int(k)]
                check_d_eps(self.nx(key, space), r["eps"], r["x"], r["y"], r["d_eps"], key)
                ratio = (r["d_eps"] ** 2 / r["eps"] ** 2) / (r["d"] ** beta / r["eps"] ** beta)
                require(close(r["ratio"], ratio, 1e-9), f"{key}: ratio {r['ratio']} != {ratio}")
            if key == "grid":
                sharp = [r["ratio"] for r in table if r["d"] >= 10 * r["eps"]]
                require(sharp and 0.5 <= min(sharp) and max(sharp) <= 2.0,
                        "grid: snowflake sharpness ratio outside [0.5, 2]")

        return Job(f"{key}.inequality_scan", run, check)

    def _condition(self, key, inp):
        space = inp["space"]
        eps = inp["eps"][::3] if key == "line" else inp["eps"]

        def run():
            return ch.chain_condition_estimate(space, eps)

        def check(est):
            require(est["disconnected_at"] is None,
                    f"{key}: disconnected at {est['disconnected_at']}")
            if key == "line":
                require(est["K_hat"] == 1.0, f"line: K_hat {est['K_hat']} != 1")
                return
            e, x, y = est["argmax"]
            d_eps = self.nx(key, space).d_eps(e, x, y)
            require(close(est["K_hat"], d_eps / space.dist[x, y]),
                    f"{key}: K_hat {est['K_hat']} is not d_eps/d at its argmax")

        return Job(f"{key}.chain_condition", run, check)

    def _analyze(self, key, inp):
        space, eps, pairs = inp["space"], inp["eps"][::2], inp["pairs"]

        def run():
            out = []
            for e in eps:
                index = ch.ProximityIndex.build(space, float(e))
                for x, y in pairs:
                    a = ch.analyze_pair(space, float(e), x, y, index)
                    ok = ch.chain_sandwich_check(a) if math.isfinite(a.d_eps) else None
                    out.append((float(e), x, y, a.d_eps, a.n_eps, ok))
            return out

        def check(rows):
            require(len(rows) == len(eps) * len(pairs), f"{key}: missing analyses")
            bad = [r for r in rows if r[5] is False]
            require(not bad, f"{key}: {len(bad)} chain sandwich violations")
            if key == "line":
                wrong = [r for r in rows if r[3] != space.dist[r[1], r[2]]]
                require(not wrong, f"line: d_eps != d for {len(wrong)} pairs")
            nxc = self.nx(key, space)
            sample = np.random.default_rng(inp["sample_seed"]).choice(len(rows), 3, replace=False)
            for k in sample:
                e, x, y, d_eps, n_eps, _ = rows[int(k)]
                check_d_eps(nxc, e, x, y, d_eps, key)
                require(n_eps == nxc.n_eps(e, x, y), f"{key}: N_eps({x},{y}) at eps={e}")

        return Job(f"{key}.analyze_pairs", run, check)

    def _epsilon_of_t(self, key, inp):
        space, beta = inp["space"], inp["beta"]
        x, y, t = inp["eot"]

        def run():
            return ch.epsilon_of_t(space, power_scale(beta), x, y, t)

        def check(eps):
            check_epsilon_of_t(self.nx(key, space), beta, x, y, t, eps)

        return Job(f"{key}.epsilon_of_t", run, check)

    def _diagnostics(self, space):
        def doubling_ref():
            pos = np.unique(space.dist)
            pos = pos[pos > 0]
            radii = np.unique(np.concatenate([pos / 2.0, pos]))
            best = 1.0
            for x in range(space.n):
                order = np.argsort(space.dist[x])
                d, vol = space.dist[x][order], np.cumsum(space.measure[order])
                i_r = np.searchsorted(d, radii, side="right") - 1
                i_2r = np.searchsorted(d, 2 * radii, side="right") - 1
                best = max(best, float(np.max(vol[i_2r] / vol[i_r])))
            return best

        def perfectness_ref():
            # B(x, r) \ B(x, r/2) is empty for some proper ball iff two
            # consecutive distances from x differ by more than a factor 2
            worst_gap = 1.0
            for x in range(space.n):
                d = np.unique(space.dist[x])
                d = d[d > 0]
                worst_gap = max(worst_gap, float(np.max(d[1:] / d[:-1])))
            return worst_gap

        def check_doubling(value):
            ref = self.remember("doubling", doubling_ref)
            require(value == ref, f"cloud: doubling constant {value} != {ref}")

        def check_perfectness(out):
            gap = self.remember("perfectness", perfectness_ref)
            require(out["required_C"] == gap, f"cloud: required_C {out['required_C']} != {gap}")
            require(out["holds_at_2"] == (gap <= 2.0), "cloud: holds_at_2 disagrees")

        return [
            Job("cloud.doubling", lambda: spc.doubling_constant(space), check_doubling),
            Job("cloud.perfectness", lambda: spc.uniform_perfectness(space),
                check_perfectness),
        ]


class Replay(Workload):
    name = "replay"
    roadmap = "item 3 (net and partition cost) and aim 4 (replay margins)"

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        inputs, record = {}, {}
        for key, form, target, psi_beta, epsilons in (
                ("gasket-6", ht.sierpinski_gasket_graph(6), None, GASKET_BETA, (3.0, 6.0, 12.0)),
                ("path-1001", df.path_graph(1001), 1000, 2.0, (30.0,))):
            perm = rng.permutation(form.n)
            y = far_corner(form) if target is None else target
            space = spc.space_from_graph(relabel(form, perm))
            inputs[key] = {"space": space, "x": int(perm[0]), "y": int(perm[y]),
                           "beta": psi_beta, "eps": epsilons}
            record[key] = metric_record(space.dist, epsilons)
            record[key]["net_eps"] = [e / 3.0 for e in epsilons]
        return inputs, record

    def jobs(self, inputs):
        jobs = []
        for key, inp in inputs.items():
            for eps in inp["eps"]:
                jobs.append(self._replay(key, inp, eps))
        return jobs

    def _replay(self, key, inp, eps):
        space, x, y = inp["space"], inp["x"], inp["y"]

        def run():
            rep = nt.proof_replay(space, power_scale(inp["beta"]), x, y, eps)
            return {"lipschitz_ok": rep.lipschitz_ok, "u_x": rep.u_hat[x],
                    "u_y": rep.u_hat[y], "n_eps": rep.n_eps_xy,
                    "members": len(rep.u_hat), "maximal": rep.maximal_constant}

        def check(out):
            n_eps = self.remember(("n_eps", key, eps), lambda: hop_count(space.dist, eps, x, y))
            require(out["lipschitz_ok"], f"{key} eps={eps}: chain counts not 1-Lipschitz")
            require(out["u_x"] == 0, f"{key} eps={eps}: u_hat(x) = {out['u_x']}")
            require(out["u_y"] == n_eps == out["n_eps"],
                    f"{key} eps={eps}: u_hat(y) = {out['u_y']}, breadth-first N_eps = {n_eps}")
            require(math.isfinite(out["maximal"]), f"{key} eps={eps}: maximal constant")
            self.memo.setdefault("net_members", {})[f"{key}@{eps:g}"] = out["members"]

        return Job(f"{key}.replay_eps{eps:g}", run, check)


class CliReports(Workload):
    name = "cli-reports"
    roadmap = "aim 2 (byte-identical reports) and items 4-5 (report and CLI cost)"

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        os.makedirs(workdir, exist_ok=True)
        coords = rng.permutation(np.arange(300.0))
        line = spc.build_space({"type": "euclidean", "coords": coords.tolist()})
        g5 = ht.sierpinski_gasket_graph(5)
        perm = rng.permutation(g5.n)
        x, y = int(perm[0]), int(perm[far_corner(g5)])
        g5 = relabel(g5, perm)
        paths = {"line": f"{workdir}/line-300.json", "gasket": f"{workdir}/gasket-5.csv",
                 "kernels": f"{workdir}/heat-kernels.csv"}
        spc.save_space(line, paths["line"])
        df.save_graph_csv(g5, paths["gasket"])
        order = np.argsort(coords)
        include = [int(order[rng.integers(0, 100)]), int(order[rng.integers(200, 300)])]
        inputs = {"paths": paths, "workdir": workdir, "coords": coords, "x": x,
                  "y": y, "include": include, "gasket": g5}
        record = {"line-300": metric_record(line.dist, (1.5, 4.5, 20.0)),
                  "gasket-5": {"n": g5.n, "kernel_tables": [4]}}
        return inputs, record

    def jobs(self, inputs):
        p = inputs["paths"]
        x, y = inputs["x"], inputs["y"]
        inc = ",".join(str(i) for i in inputs["include"])
        runs = [
            ("chain", ["chain", "--space", p["line"], "--eps", "1.5,4.5,20",
                       "--pairs", "all", "--psi", "power:2"], self._check_chain),
            ("heat", ["heat", "--graph", p["gasket"], "--times", "0.1,1,10,100",
                      "--out", p["kernels"]], self._check_heat),
            ("replay", ["replay", "--graph", p["gasket"], "--x", str(x), "--y", str(y),
                        "--eps", "6", "--psi", f"power:{GASKET_BETA!r}"], self._check_replay),
            ("net", ["net", "--space", p["line"], "--eps", "7.5", "--include", inc,
                     "--certify"], self._check_net),
            ("dirichlet", ["dirichlet", "cap", "--graph", p["gasket"], "--A", str(x),
                           "--B", str(y)], self._check_capacity),
        ]
        runs += [(f"verify-all-{s}", ["verify-all", "--suite", s], self._check_suite)
                 for s in ("geodesic", "snowflake", "gasket", "replay")]
        return [self._cli(name, argv, check, inputs) for name, argv, check in runs]

    def _cli(self, name, argv, check, inputs):
        report = f"{inputs['workdir']}/{name}.json"
        argv = ["--json-only"] + argv + ["--report", report]
        outputs = [report] + ([inputs["paths"]["kernels"]] if name == "heat" else [])

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli_main(argv)

        def verify(code):
            require(code == 0, f"chainkit {argv[1]} exited with {code}")
            for path in outputs:
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                first = self.memo.setdefault(("digest", path), digest)
                require(first == digest, f"{path} differs from the first pass")
            with open(report) as fh:
                check(json.loads(fh.read()), inputs)

        return Job(f"cli.{name}", run, verify)

    @staticmethod
    def _check_chain(rep, inputs):
        c = inputs["coords"]
        for a in rep["analyses"]:
            require(a["d_eps"] == abs(c[a["x"]] - c[a["y"]]),
                    "chain report: d_eps != d on the line")
        require(rep["scan"]["worst_ratio"] > 0, "chain report: empty scan")

    def _check_heat(self, rep, inputs):
        n = inputs["gasket"].n
        with open(inputs["paths"]["kernels"]) as fh:
            rows = sum(1 for _ in fh)
        require(rows == 4 * n, f"heat --out wrote {rows} rows, expected {4 * n}")
        for t, diag in rep["diagonal"].items():
            ref = self.remember(("expm-diag", t), lambda: np.diag(
                kernel_reference(inputs["gasket"], float(t))))
            err = float(np.abs(np.asarray(diag) - ref).max())
            require(err <= 1e-9, f"heat report: diagonal at t={t} off by {err}")

    @staticmethod
    def _check_replay(rep, inputs):
        u = rep["u_hat"]
        require(rep["lipschitz_ok"], "replay report: not 1-Lipschitz")
        require(u[str(inputs["x"])] == 0 and u[str(inputs["y"])] == rep["n_eps"],
                "replay report: u_hat endpoints")

    @staticmethod
    def _check_net(rep, inputs):
        c = inputs["coords"]
        mem = np.asarray(rep["members"])
        require(set(inputs["include"]) <= set(rep["members"]), "net report: include set dropped")
        gaps = np.abs(c[mem][:, None] - c[mem][None, :]) + np.eye(mem.size) * 1e9
        require(gaps.min() >= 7.5, "net report: members closer than eps")
        require(np.abs(c[:, None] - c[mem][None, :]).min(axis=1).max() < 7.5,
                "net report: a point is not covered")

    def _check_capacity(self, rep, inputs):
        def resistance():
            import networkx as nx

            w = sp.triu(inputs["gasket"].conductances).tocoo()
            g = nx.Graph()
            g.add_weighted_edges_from(zip(w.row.tolist(), w.col.tolist(), w.data.tolist()))
            return nx.resistance_distance(g, inputs["x"], inputs["y"], weight="weight",
                                          invert_weight=False)

        r = self.remember("resistance", resistance)
        require(close(rep["capacity"] * r, 1.0, 1e-9),
                f"capacity {rep['capacity']} is not 1 / effective resistance {r}")

    @staticmethod
    def _check_suite(rep, inputs):
        require(rep["ok"] and all(c["ok"] for c in rep["checks"]),
                f"verify-all {rep['suite']} has a failing check")


WORKLOADS = {w.name: w for w in (WalkExponent, ChainScan, Replay, CliReports)}
