"""Spans and counters around chainkit's public functions, installed from outside.

The tracer wraps library functions by replacing every module-level alias of
them inside the ``chainkit`` package (and the entries of ``SUITES``), so the
library itself is unchanged.  Spans are kept in memory and written once, when
the worker ends.  Functions called more than about 10k times per pass are
counted (and, for shortest paths, timed) without a span record, so the
tracing cost stays small next to the work.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _proximity_built(counts, args, kwargs, out):
    counts["chain.proximity_builds"] += 1
    counts["chain.proximity_edges"] += out.edges.nnz // 2


def _kernels_built(counts, args, kwargs, out):
    n = out.form.n
    counts["heat.kernels_materialized"] += len(out.kernels)
    counts["heat.kernel_bytes"] += len(out.kernels) * n * n * 8


def _kernel_at(counts, args, kwargs, out):
    table, t = args[0], args[1]
    if float(t) not in table.kernels:
        n = table.form.n
        counts["heat.kernels_materialized"] += 1
        counts["heat.kernel_bytes"] += n * n * 8


def _eigh(counts, args, kwargs, out):
    counts["heat.eigh_calls"] += 1
    counts["heat.eigh_n"] += args[0].shape[0]


def _fit(counts, args, kwargs, out):
    counts["heat.fit_points"] += out.n_points


def _net(counts, args, kwargs, out):
    counts["net.members"] += len(out.members)


def _energy(counts, args, kwargs, out):
    counts["dirichlet.energy_calls"] += 1


def _serialized(counts, args, kwargs, out):
    counts["report.bytes_serialized"] += len(out)  # reports are ASCII


def _written(counts, args, kwargs, out):
    counts["report.bytes_written"] += os.path.getsize(args[1])


def _psi(counts, args, kwargs, out):
    counts["scale.psi_calls"] += 1


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module:qualname`` and how it is recorded.

    mode "span" records a span named ``name``; "timed" adds the call's
    duration to ``name + "_s"`` and counts it in ``calls``; "hook" only runs
    ``after``.  ``after(counts, args, kwargs, result)`` updates counters.
    """

    where: str
    name: str | None = None
    mode: str = "span"
    after: Callable | None = None
    calls: str | None = None
    aliases: bool = True  # also replace aliases in other chainkit modules


TARGETS = [
    Target("chainkit.space:build_space", "space.build"),
    Target("chainkit.space:space_from_graph", "space.build"),
    Target("chainkit.space:load_space", "space.build"),
    Target("chainkit.space:doubling_constant", "space.doubling"),
    Target("chainkit.space:uniform_perfectness", "space.perfectness"),
    Target("chainkit.scale:ScaleFunction.__call__", mode="hook", after=_psi),
    Target("chainkit.chain:ProximityIndex.build", "chain.proximity_build",
           after=_proximity_built),
    Target("chainkit.chain:ProximityIndex.shortest_paths", "chain.shortest_paths",
           mode="timed", calls="chain.shortest_path_calls"),
    Target("chainkit.chain:main_inequality_scan", "chain.scan"),
    Target("chainkit.chain:chain_condition_estimate", "chain.condition"),
    Target("chainkit.chain:d_eps_step_function", "chain.step_function"),
    Target("chainkit.chain:epsilon_of_t", "chain.epsilon_of_t"),
    Target("chainkit.chain:analyze_pair", "chain.analyze_pair"),
    Target("chainkit.net:build_net", "net.build_net", after=_net),
    Target("chainkit.net:build_partition", "net.partition"),
    Target("chainkit.net:PartitionOfUnity.verify", "net.verify"),
    Target("chainkit.net:proof_replay", "net.replay"),
    Target("chainkit.dirichlet:GraphDirichletForm.geodesic_distances",
           "dirichlet.geodesic"),
    Target("chainkit.dirichlet:energy", mode="hook", after=_energy),
    Target("chainkit.dirichlet:energy_measure", mode="hook", after=_energy),
    Target("chainkit.dirichlet:truncated_maximal", "dirichlet.maximal"),
    Target("chainkit.dirichlet:capacity", "dirichlet.capacity"),
    # scipy's eigh as bound in the heat module only; dirichlet has its own alias
    Target("chainkit.heat:eigh", "heat.eigh", after=_eigh, aliases=False),
    Target("chainkit.heat:heat_kernel", "heat.kernel", after=_kernels_built),
    Target("chainkit.heat:HeatKernelTable.kernel_at", mode="hook", after=_kernel_at),
    Target("chainkit.heat:HeatKernelTable.verify", "heat.verify"),
    Target("chainkit.heat:sub_gaussian_fit", "heat.fit", after=_fit),
    Target("chainkit.heat:exit_time_walk_dimension", "heat.exit_time"),
    Target("chainkit.heat:chaining_lower_bound", "heat.chaining"),
    Target("chainkit.suites:suite_geodesic", "suites.geodesic"),
    Target("chainkit.suites:suite_snowflake", "suites.snowflake"),
    Target("chainkit.suites:suite_gasket", "suites.gasket"),
    Target("chainkit.suites:suite_replay", "suites.replay"),
    Target("chainkit.cli:cmd_chain", "cli.chain"),
    Target("chainkit.cli:cmd_net", "cli.net"),
    Target("chainkit.cli:cmd_replay", "cli.replay"),
    Target("chainkit.cli:cmd_dirichlet", "cli.dirichlet"),
    Target("chainkit.cli:cmd_heat", "cli.heat"),
    Target("chainkit.cli:cmd_verify_all", "cli.verify-all"),
    Target("chainkit._report:dumps", "report.serialize", after=_serialized),
    Target("chainkit._report:write_report", "report.write", after=_written),
]


class Tracer:
    """In-memory spans ``[name, start, end, parent, run_id]`` and per-run counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, defaultdict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.begin("setup")

    def begin(self, run_id: str) -> None:
        self.run_id = run_id
        self.run_counts = self.counts.setdefault(run_id, defaultdict(float))

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, target: Target):
        tracer = self
        after = target.after

        if target.mode == "span":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = tracer.open(target.name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(rec)
                if after is not None:
                    after(tracer.run_counts, args, kwargs, out)
                return out
        elif target.mode == "timed":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts = tracer.run_counts
                    counts[target.name + "_s"] += time.perf_counter() - t0
                    counts[target.calls] += 1
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(tracer.run_counts, args, kwargs, out)
                return out
        return wrapper

    def install(self) -> None:
        """Wrap every target; every alias of a wrapped function is replaced."""
        modules = [m for k, m in sys.modules.items()
                   if k == "chainkit" or k.startswith("chainkit.")]
        suites = sys.modules["chainkit.suites"].SUITES
        for target in TARGETS:
            modname, qualname = target.where.split(":")
            owner = sys.modules[modname]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._set(owner, attr, wrapped)
            if path or not target.aliases:
                continue  # class attributes have a single home
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw and module is not owner:
                        self._set(module, key, wrapped)
            for key, value in list(suites.items()):
                if value is raw:
                    self._set(suites, key, wrapped, item=True)

    def _set(self, owner, key, value, item=False) -> None:
        old = owner[key] if item else vars(owner)[key]
        self._patches.append((owner, key, old, item))
        if item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, old, item = self._patches.pop()
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)

    def totals(self, run_id: str) -> dict[str, float]:
        """Counts plus inclusive span seconds per name for one run.

        A span nested inside a span of the same name is not added again, so
        ``load_space -> build_space`` counts once under ``space.build``.
        """
        out = dict(self.counts.get(run_id, {}))
        for rec in self.spans:
            if rec[4] != run_id or self._nested_in_same(rec):
                continue
            key = rec[0] + "_s"
            out[key] = out.get(key, 0.0) + rec[2] - rec[1]
        return out

    def _nested_in_same(self, rec) -> bool:
        parent = rec[3]
        while parent is not None:
            if self.spans[parent][0] == rec[0]:
                return True
            parent = self.spans[parent][3]
        return False

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per run and span name: inclusive and self seconds (span minus children)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] is not None:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict[str, float]] = {}
        for rec, c in zip(self.spans, child):
            row = out.setdefault(rec[4], {}).setdefault(
                rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += rec[2] - rec[1]
            row["self_s"] += rec[2] - rec[1] - c
        return out
