"""Self-test of the benchmark's correctness gate.

Run from the repository root:

    python3 bench/check_gate.py

For one job of each workload it runs the job once as it is, which must pass,
and once with a chainkit function wrapped so that its result is slightly
wrong, which the job's oracle must count as failed.  Exits 0 when every
case behaves so.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import chainkit.cli  # noqa: E402
from chainkit import chain, heat, net, space  # noqa: E402

from worker import run_jobs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@contextlib.contextmanager
def patched(module, name, make):
    """Replace module.name by make(original) for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def through(corrupt):
    """A replacement that passes the original's result through corrupt."""
    return lambda original: lambda *a, **k: corrupt(original(*a, **k))


def shift_kernel(table):
    t = float(table.times[-1])
    table.kernels[t] = table.kernels[t] + 1e-6
    return table


def longer_chain(analysis):
    return dataclasses.replace(analysis, d_eps=analysis.d_eps * (1 + 1e-9))


def longer_count(report):
    u_hat = dict(report.u_hat)
    u_hat[report.y] += 1
    return dataclasses.replace(report, u_hat=u_hat)


class TrailingSpace:
    """write_report that adds a byte on its second call only."""

    def __init__(self, original):
        self.original, self.calls = original, 0

    def __call__(self, payload, path):
        self.original(payload, path)
        self.calls += 1
        if self.calls > 1:
            with open(path, "a") as fh:
                fh.write(" ")


CASES = [
    # (workload, job, module, function, replacement, runs)
    ("walk-exponent", "gasket-5.kernel_verify", heat, "heat_kernel", through(shift_kernel), 1),
    ("chain-scan", "line.analyze_pairs", chain, "analyze_pair", through(longer_chain), 1),
    ("chain-scan", "cloud.doubling", space, "doubling_constant",
     through(lambda v: v * (1 + 1e-12)), 1),
    ("replay", "path-1001.replay_eps30", net, "proof_replay", through(longer_count), 1),
    ("cli-reports", "cli.net", chainkit.cli, "cmd_net", through(lambda code: 2), 1),
    # a report that changes between two identical runs breaks determinism
    ("cli-reports", "cli.replay", chainkit.cli, "write_report", TrailingSpace, 2),
]


def failures(workload_name, job_name, runs, context) -> int:
    workload = WORKLOADS[workload_name]()
    base, _ = workload.setup(7, f".bench_run/work/{workload_name}")
    failed = 0
    with context:
        for _ in range(runs):
            jobs = [j for j in workload.jobs(copy.deepcopy(base)) if j.name == job_name]
            failed += run_jobs(jobs)["failed"]
    return failed


def main() -> int:
    os.chdir(ROOT)
    ok = True
    for workload, job, module, name, make, runs in CASES:
        clean = failures(workload, job, runs, contextlib.nullcontext())
        bad = failures(workload, job, runs, patched(module, name, make))
        passed = clean == 0 and bad > 0
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {workload} {job}: "
              f"clean failed={clean}, corrupted failed={bad}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
