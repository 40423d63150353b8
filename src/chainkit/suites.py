"""Named verification suites bundling the headline inequality checks.

Each suite returns a report dict with an overall "ok" flag and a list of
per-check results; the CLI's verify-all subcommand maps a failed suite to
exit code 2.
"""

from __future__ import annotations

import math

import numpy as np

from . import chain as ch
from . import heat as ht
from . import net as nt
from . import space as sp
from .dirichlet import cycle_graph, path_graph
from .scale import power_scale


def _check(name, ok, **extra):
    return {"name": name, "ok": bool(ok), **extra}


def suite_geodesic() -> dict:
    """Chain metric equals the metric on geodesic-like spaces, all scales."""
    checks = []
    line = sp.build_space({"type": "euclidean",
                           "coords": np.arange(101.0).tolist()})
    graph_space = sp.space_from_graph(ht.sierpinski_gasket_graph(3))
    for label, space in (("unit-line-101", line), ("gasket-3-geodesic", graph_space)):
        xs, ys = np.indices(space.dist.shape).reshape(2, -1)  # all ordered pairs
        upper = xs < ys
        identity_ok = True
        sandwich_bad = 0
        for eps, chains in ch.chain_sweep(space, np.geomspace(1.5, space.diameter(), 10),
                                          xs, ys):
            d_eps, hops = chains()[0], chains(weighted=False)[0]
            identity_ok &= np.array_equal(d_eps, space.dist.ravel())
            sandwich_bad += ch.sandwich_violations(float(eps), d_eps[upper], hops[upper])
        checks.append(_check(f"{label}: d_eps == d for 10 eps values", identity_ok))
        checks.append(_check(f"{label}: chain sandwich", sandwich_bad == 0,
                             violations=sandwich_bad))
    return {"suite": "geodesic", "ok": all(c["ok"] for c in checks), "checks": checks}


def suite_snowflake() -> dict:
    """Sharpness of the chain-length bound on the grid snowflaked by beta = 3."""
    beta = 3.0
    space = sp.build_space({"type": "snowflake", "beta": beta,
                            "coords": np.linspace(0.0, 1.0, 101).tolist()})
    psi = power_scale(beta)
    i, j = np.triu_indices(space.n, 1)
    d = space.dist[i, j]
    checks = []
    ratios = []
    tested = 0
    sandwich_bad = 0
    for eps, chains in ch.chain_sweep(space, np.geomspace(0.05, 0.5, 10).tolist(), i, j):
        d_eps, hops = chains()[0], chains(weighted=False)[0]
        sandwich_bad += ch.sandwich_violations(eps, d_eps, hops)
        mask = (d >= 10 * eps) & np.isfinite(d_eps)
        if mask.any():
            r = (d_eps[mask] ** 2 / eps ** 2) / (psi(d[mask]) / psi(eps))
            ratios.extend([float(r.min()), float(r.max())])
            tested += int(mask.sum())
    lo, hi = (min(ratios), max(ratios)) if ratios else (math.nan, math.nan)
    checks.append(_check("sharpness ratio within [0.5, 2.0]",
                         tested > 0 and 0.5 <= lo and hi <= 2.0,
                         ratio_min=lo, ratio_max=hi, tested=tested))
    checks.append(_check("chain sandwich", sandwich_bad == 0,
                         violations=sandwich_bad))
    per_eps = [ch.chain_condition_estimate(space, [e], pairs=[(0, space.n - 1)])["K_hat"]
               for e in (0.5, 0.3, 0.22)]
    checks.append(_check("chain condition degrades as eps shrinks",
                         per_eps[0] < per_eps[1] < per_eps[2],
                         K_hat=per_eps, K_hat_overall=max(per_eps)))
    return {"suite": "snowflake", "ok": all(c["ok"] for c in checks), "checks": checks}


def suite_gasket() -> dict:
    """Heat-kernel invariants on the cycle and the gasket, plus chain checks."""
    checks = []
    times = [0.1, 1.0, 10.0, 100.0]
    for label, form in (("cycle-200", cycle_graph(200)),
                        ("gasket-5", ht.sierpinski_gasket_graph(5))):
        table = ht.heat_kernel(form, times, verify=False)
        defects = ht.kernel_defects(table, [(t, s) for t in times for s in times])
        sym, stoch, semi = defects["symmetry"], defects["stochasticity"], defects["semigroup"]
        pos = defects["min_entry"] > -1e-12
        checks.append(_check(f"{label}: symmetry <= 1e-10", sym <= 1e-10, defect=sym))
        checks.append(_check(f"{label}: m-stochastic <= 1e-10", stoch <= 1e-10,
                             defect=stoch))
        checks.append(_check(f"{label}: semigroup <= 1e-9", semi <= 1e-9, defect=semi))
        checks.append(_check(f"{label}: positivity up to roundoff", pos))
    gasket_space = sp.space_from_graph(ht.sierpinski_gasket_graph(4))
    sandwich_bad = 0
    for eps, chains in ch.chain_sweep(gasket_space, np.geomspace(1.5, gasket_space.diameter(), 5),
                                      *np.triu_indices(gasket_space.n, 1)):
        sandwich_bad += ch.sandwich_violations(float(eps), chains()[0],
                                              chains(weighted=False)[0])
    checks.append(_check("gasket-4 chain sandwich", sandwich_bad == 0,
                         violations=sandwich_bad))
    return {"suite": "gasket", "ok": all(c["ok"] for c in checks), "checks": checks}


def suite_replay() -> dict:
    """Proof replay on the 101-vertex path with the quadratic scale."""
    cap = 50.0
    space = sp.space_from_graph(path_graph(101))
    psi = power_scale(2.0)
    report = nt.proof_replay(space, psi, x=0, y=100, epsilon=6.0)
    checks = [
        _check("unit-Lipschitz chain counts on eps-close members",
               report.lipschitz_ok),
        _check(f"Psi(eps) * max maximal function <= {cap}",
               report.maximal_constant <= cap,
               value=report.maximal_constant),
        _check("recovered N_eps^2 <= C Psi(d)/Psi(eps)",
               report.recovered_ok, C=report.recovered_constant),
        _check("u_hat(x) == 0 and u_hat(y) == N_eps(x, y)",
               report.u_hat[0] == 0 and report.u_hat[100] == report.n_eps_xy,
               n_eps=report.n_eps_xy),
    ]
    return {"suite": "replay", "ok": all(c["ok"] for c in checks), "checks": checks,
            "two_point": report.two_point,
            "partition_constant": report.partition_constant}


SUITES = {
    "geodesic": suite_geodesic,
    "snowflake": suite_snowflake,
    "gasket": suite_gasket,
    "replay": suite_replay,
}
