"""Print the sha256 of every output of the cli-reports benchmark workload.

Run from anywhere:

    python3 tools/report_digests.py [--checkout DIR] [--seed N] [--workdir DIR]

This runs the cli-reports command list of ``bench/workloads.py`` once, with
chainkit imported from the checkout's ``src/`` (default: this checkout), checks
each command with the workload's oracle, and prints one ``sha256  name`` line per
output: nine reports and the heat kernel CSV.  The checkout is only read.  The
outputs go to WORKDIR, where every command gets the same relative paths as in
a benchmark run (``.bench_run/work/cli-reports/...``), because a report's
``config`` echoes its input and output paths.  So two checkouts give comparable
digests, equal to the ones their benchmark runs write.  The heat outputs also
depend on the BLAS thread count (ROADMAP item 5).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RELATIVE = ".bench_run/work/cli-reports"  # the benchmark worker's work dir for this workload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", type=Path,
                        default=Path(tempfile.gettempdir()) / "chainkit-report-digests")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from workloads import CliReports

    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)
    workload = CliReports()
    inputs, _ = workload.setup(args.seed, RELATIVE)
    outputs = []
    for job in workload.jobs(inputs):
        job.check(job.run())
        outputs.append(f"{job.name.removeprefix('cli.')}.json")
        if job.name == "cli.heat":
            outputs.append(os.path.basename(inputs["paths"]["kernels"]))
    for name in outputs:
        digest = hashlib.sha256(Path(RELATIVE, name).read_bytes()).hexdigest()
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
