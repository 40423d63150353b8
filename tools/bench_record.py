"""Record benchmark results as one JSON file, for a BENCH_<n>.json trajectory.

Run from anywhere:

    python3 tools/bench_record.py --out BENCH_11.json --parent ../parent

For each workload of BENCHMARK.json this runs ``bench/run.py --seed 1
--trace 0`` RUNS times and keeps every result line (the last line of each
run), the machine record of the first line, and the median and quartiles
of each end-to-end metric.  It then times the tier-1 command (ROADMAP.md) RUNS
times and keeps each wall time, its pytest summary line and the median, with
the call seconds of each test (pytest ``--durations=0``, which hides calls
under 0.005 s) and their median per test.  It runs ``pytest -q -s
tests/test_acceptance.py`` RUNS times, keeping the seconds of each timed
``[PASS] criterion N: ... (x.xxs)`` line and their median per criterion (a
criterion that fails prints no line and gets no time).  With
``--parent DIR`` (a checkout of the commit to compare against) the runs
alternate between DIR and this checkout, and so does the side that runs first,
so both sides come from the same machine and the same minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the seed of every committed record, so records compare
CRITERION = re.compile(r"\[PASS\] criterion (\d+): .* \((\d+\.\d+)s\)$", re.M)
DURATION = re.compile(r"^(\d+\.\d+)s call +(\S.*)$", re.M)  # a parametrised id may hold spaces


def bench_once(checkout: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """One ``bench/run.py`` call in ``checkout``: its result line and machine record."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return lines[-1], lines[0]["machine"]


def pytest_once(checkout: Path, *args: str) -> tuple[float, str, str]:
    """Wall seconds of one pytest run in ``checkout``, its stdout and its summary line."""
    path = os.environ.get("PYTHONPATH")
    env = os.environ | {"PYTHONPATH": "src" + (os.pathsep + path if path else "")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", *args],
                          cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    return wall, proc.stdout, (proc.stdout.strip().splitlines() or [f"exit {proc.returncode}"])[-1]


def tier1_once(checkout: Path) -> tuple[float, str, dict]:
    """Wall seconds of one tier-1 run in ``checkout``, its summary line and the
    call seconds of each test."""
    wall, out, last = pytest_once(checkout, "--continue-on-collection-errors", "--durations=0")
    return wall, last, {test: float(s) for s, test in DURATION.findall(out)}


def acceptance_once(checkout: Path) -> tuple[dict, str]:
    """Seconds of each timed criterion in one acceptance run, and its summary line."""
    _, out, last = pytest_once(checkout, "-s", "tests/test_acceptance.py")
    return {int(n): float(s) for n, s in CRITERION.findall(out)}, last


def per_key(runs: list[dict]) -> tuple[dict, dict]:
    """Each key's values over the runs that have it, and their medians."""
    values = {k: [run[k] for run in runs if k in run] for k in sorted({k for r in runs for k in r})}
    return values, {k: statistics.median(v) for k, v in values.items()}


def alternate(sides: dict, runs: int, once) -> dict:
    """``once(checkout)`` RUNS times per side, alternating which side runs first."""
    results: dict[str, list] = {side: [] for side in sides}
    for k in range(runs):
        for side, checkout in list(sides.items())[::(-1) ** k]:
            results[side].append(once(checkout))
    return results


def summary(results: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over one side's runs."""
    out = {"median": {}, "quartiles": {}, "results": results,
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results)}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        out["median"][name] = statistics.median(values)
        out["quartiles"][name] = (statistics.quantiles(values, n=4, method="inclusive")[::2]
                                  if len(values) > 1 else values * 2)
    return out


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--parent", type=Path, help="checkout to compare against")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"change": ROOT} | ({"parent": args.parent.resolve()} if args.parent else {})
    record = {"seed": SEED, "seconds": args.seconds, "runs": args.runs,
              "machine": {}, "workloads": {}}
    for workload in workloads:
        results = alternate(sides, args.runs,
                            lambda checkout: bench_once(checkout, workload, args.seconds))
        for side, runs in results.items():
            record["machine"].setdefault(side, runs[0][1])
        record["workloads"][workload] = {side: summary([r for r, _ in runs])
                                         for side, runs in results.items()}
        print(workload, {side: s["median"] for side, s in
                         record["workloads"][workload].items()}, file=sys.stderr)
    results = alternate(sides, args.runs, tier1_once)
    record["tier1"] = {}
    for side, runs in results.items():
        test_s, test_median = per_key([tests for _, _, tests in runs])
        record["tier1"][side] = {"wall_s": [w for w, _, _ in runs],
                                 "summary": [s for _, s, _ in runs],
                                 "median": statistics.median(w for w, _, _ in runs),
                                 "test_s": test_s, "test_median": test_median}
    print("tier1", {side: t["median"] for side, t in record["tier1"].items()}, file=sys.stderr)
    results = alternate(sides, args.runs, acceptance_once)
    record["acceptance"] = {}
    for side, runs in results.items():
        seconds, median = per_key([times for times, _ in runs])
        record["acceptance"][side] = {"criterion_s": seconds, "median": median,
                                      "summary": [last for _, last in runs]}
    print("acceptance", {side: a["median"] for side, a in record["acceptance"].items()},
          file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
