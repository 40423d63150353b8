"""Command-line entry point exposing all analyses with deterministic reports.

Exit codes: 0 on success, 2 when a verification check fails (an inequality
did not hold), 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from . import chain as ch
from . import dirichlet as df
from . import heat as ht
from . import net as nt
from . import space as spc
from ._report import dumps, g17_cells, render_block, write_report
from .scale import PhiTransform, parse_psi_spec, verify_regularity
from .suites import SUITES


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _floats(text: str) -> list[float]:
    values = [float(v) for v in text.split(",") if v]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers; got {text!r}")
    return values


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _config_echo(args: argparse.Namespace) -> dict:
    # the report path is excluded so identical analyses written to different
    # destinations stay byte-identical
    skip = {"func", "report"}
    cfg = {k: v for k, v in vars(args).items()
           if k not in skip and v is not None}
    cfg["version"] = __version__
    return cfg


def _emit(args, payload: dict) -> None:
    report = getattr(args, "report", None)
    if report:
        write_report(payload, report)
        if not args.json_only:
            print(f"report written to {report}")
    else:
        print(dumps(payload))


def build_parser() -> _Parser:
    parser = _Parser(prog="chainkit")
    parser.add_argument("--json-only", action="store_true",
                        help="suppress human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    graph = argparse.ArgumentParser(add_help=False)  # every command that reads a graph
    graph.add_argument("--graph", required=True)
    graph.add_argument("--vertices")

    p = sub.add_parser("chain", help="chain metrics and inequality scans")
    p.add_argument("--space", required=True)
    p.add_argument("--eps", required=True, type=_floats)
    p.add_argument("--pairs", default="all")
    p.add_argument("--psi", default="power:2")
    p.add_argument("--report")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("net", help="epsilon-nets and Voronoi certificates")
    p.add_argument("--space", required=True)
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--include", type=_ints)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--report")
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("replay", parents=[graph], help="proof replay on a graph")
    p.add_argument("--psi", default="power:2")
    p.add_argument("--x", required=True, type=int)
    p.add_argument("--y", required=True, type=int)
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--report")
    p.set_defaults(func=cmd_replay)

    action = argparse.ArgumentParser(add_help=False)  # first, as config echoes in this order
    action.add_argument("action", choices=["cap", "energy"])
    p = sub.add_parser("dirichlet", parents=[action, graph],
                       help="capacity and energy computations")
    p.add_argument("--A", type=_ints)
    p.add_argument("--B", type=_ints)
    p.add_argument("--f", type=_floats)
    p.add_argument("--report")
    p.set_defaults(func=cmd_dirichlet)

    p = sub.add_parser("heat", parents=[graph], help="heat kernel tables")
    p.add_argument("--times", required=True, type=_floats)
    p.add_argument("--out", help="CSV output path for the kernel matrices")
    p.add_argument("--report")
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("gasket", help="pre-fractal gasket graph generator")
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gasket)

    p = sub.add_parser("scale", help="scale functions and their transform")
    p.add_argument("action", choices=["phi", "eval", "inverse", "regularity"])
    p.add_argument("--psi", required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--window", type=_floats)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("verify-all", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify_all)

    return parser


def cmd_chain(args) -> int:
    space = spc.load_space(args.space)
    psi = parse_psi_spec(args.psi)
    if args.pairs == "all":
        pairs = np.column_stack(np.triu_indices(space.n, 1))  # row-major, as (i, j > i) loops
    else:
        try:
            x, y = _ints(args.pairs)
        except ValueError:
            raise UsageError(f"--pairs takes all or x,y; got {args.pairs!r}") from None
        pairs = np.array([[x, y]])
    scan = ch.main_inequality_scan(space, psi, pairs, args.eps)
    analyses = [{"x": a.x, "y": a.y, "eps": a.epsilon, "d_eps": a.d_eps, "n_eps": a.n_eps,
                 "witness_metric": a.witness_metric, "witness_hops": a.witness_hops}
                for a in ch.pair_analyses(space, args.eps, *pairs[:32].T)]
    payload = {"config": _config_echo(args), "scan": scan, "analyses": analyses}
    _emit(args, payload)
    return 0


def cmd_net(args) -> int:
    space = spc.load_space(args.space)
    net = nt.build_net(space, args.eps, include=args.include)
    if args.certify:
        net.certify()  # raises on violation; construction also certifies
    payload = {
        "config": _config_echo(args),
        "members": list(net.members),
        "voronoi": [int(v) for v in net.voronoi],
        "certified": True,
    }
    _emit(args, payload)
    return 0


def cmd_replay(args) -> int:
    form = df.load_graph_csv(args.graph, args.vertices)
    space = spc.space_from_graph(form)
    psi = parse_psi_spec(args.psi)
    rep = nt.proof_replay(space, psi, args.x, args.y, args.eps)
    payload = {
        "config": _config_echo(args),
        "n_eps": rep.n_eps_xy,
        "u_hat": {str(k): v for k, v in rep.u_hat.items()},
        "lipschitz_ok": rep.lipschitz_ok,
        "maximal_constant": rep.maximal_constant,
        "two_point": rep.two_point,
        "recovered_constant": rep.recovered_constant,
        "partition_constant": rep.partition_constant,
    }
    _emit(args, payload)
    return 0 if rep.lipschitz_ok else 2


def cmd_dirichlet(args) -> int:
    form = df.load_graph_csv(args.graph, args.vertices)
    if args.action == "cap":
        if not args.A or not args.B:
            raise UsageError("cap requires --A and --B")
        cap, potential = df.capacity(form, args.A, args.B)
        payload = {"config": _config_echo(args), "capacity": cap,
                   "potential": list(potential)}
    else:
        if not args.f or len(args.f) != form.n:
            raise UsageError("energy requires --f with one value per vertex")
        f = np.asarray(args.f)
        if not np.isfinite(f).all():
            raise UsageError("energy requires finite --f values")
        em = df.energy_measure(form, f)
        payload = {"config": _config_echo(args), "energy": em.total,
                   "density": list(em.density)}
    _emit(args, payload)
    return 0


def cmd_heat(args) -> int:
    form = df.load_graph_csv(args.graph, args.vertices)
    table = ht.heat_kernel(form, args.times)
    if args.out:
        with open(args.out, "w") as fh:
            for t in sorted(table.kernels):
                for i in range(0, form.n, 32):  # 32 kernel rows of cells at a time
                    cells, _ = g17_cells(table.kernels[t][i:i + 32])
                    cells[..., -1] = np.r_[np.full(form.n - 1, ord(",")), ord("\n")]
                    heads = np.array([f"{t:.17g},{j},".encode() for j in range(i, i + len(cells))])
                    fh.write(render_block(heads, cells))
    payload = {
        "config": _config_echo(args),
        "times": list(table.times),
        "diagonal": {f"{t:.17g}": np.diag(P).tolist()
                     for t, P in table.kernels.items()},
    }
    _emit(args, payload)
    return 0


def cmd_gasket(args) -> int:
    form = ht.sierpinski_gasket_graph(args.level)
    df.save_graph_csv(form, args.out)
    if not args.json_only:
        print(f"gasket level {args.level}: {form.n} vertices, "
              f"{form.conductances.nnz // 2} edges -> {args.out}")
    return 0


def cmd_scale(args) -> int:
    psi = parse_psi_spec(args.psi)
    if args.action == "regularity":
        if args.window is not None and len(args.window) != 2:
            raise UsageError("--window takes r_min,r_max")
        cert = verify_regularity(psi, args.window or [1e-2, 1e2])
        print(dumps(cert))
        return 0 if cert["ok"] else 2
    flag, read = {"phi": ("s", PhiTransform(psi).value), "eval": ("r", psi.value),
                  "inverse": ("v", psi.inverse)}[args.action]
    if getattr(args, flag) is None:
        raise UsageError(f"{args.action} requires --{flag}")
    print(dumps(read(getattr(args, flag))))
    return 0


def cmd_verify_all(args) -> int:
    report = SUITES[args.suite]()
    payload = {"config": _config_echo(args), **report}
    _emit(args, payload)
    if not args.json_only:
        for c in report["checks"]:
            print(f"[{'PASS' if c['ok'] else 'FAIL'}] {args.suite}: {c['name']}")
    return 0 if report["ok"] else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # an internal check of the replay failed
        print(f"check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
