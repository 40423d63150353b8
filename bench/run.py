"""chainkit benchmark: one workload per call, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload walk-exponent --seed 1 --seconds 30 --trace 0

Each worker is a fresh Python process that imports chainkit from ``src/``,
builds the workload's inputs from the seed, and then runs whole passes over
the workload's fixed job list, each job starting when the previous one has
returned.  Within ``--seconds`` the benchmark starts the workload several
times for set-up only, then once for the timed passes.  BLAS uses at most
``nproc`` threads.

Times are in seconds at a reference speed: every job is timed next to a
fixed reference (an interpreter loop and a loop of small numpy ops) and its
time is scaled by ``REF_NOMINAL_S`` over the reference's duration.  On a
shared host this cancels most of the minutes when everything runs slower;
the raw wall seconds of each pass are printed on the line before the result.

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s`` (median over the starts: process start to inputs ready),
``run_s`` and ``cpu_s`` (wall and CPU time of the job list's library calls,
oracles excluded: each job's median over the passes, summed) and
``peak_rss_mb`` (the worker's ``ru_maxrss``).  With ``--trace 1`` untraced
and traced passes alternate; the last line reports the per-layer metrics of
BENCHMARK.json, each the traced set-up's amount plus the median over traced
passes (raw seconds), and ``trace.overhead_s``, traced minus untraced
``run_s``.  Spans are written to ``.bench_run/trace/``.  A job that raises or
fails its oracle counts in ``failed``; ``failed / attempted`` is the failure
ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_STARTS = 2  # set-up-only starts, besides the timed worker's own
HARD_LIMIT_S = 170.0  # every call ends within 180 s
# Close to the worker's reference duration on a quiet 2-vCPU Intel Xeon VM
# (Python 3.11.7, numpy 2.4.6).  It fixes the unit of run_s and cpu_s:
# seconds at that speed.
REF_NOMINAL_S = 0.016


class BenchError(Exception):
    pass


def worker_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    # a fixed hash seed keeps str-keyed dicts laid out alike in every worker
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env.pop("CHAINKIT_THREADS", None)  # echoed into CLI reports
    return env


def start_worker(args, deadline: float, setup_only: bool = False,
                 budget: float = 0.0) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result line.

    The set-up time is rescaled like run_s, by the reference timed just
    before the worker starts.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--budget", f"{budget:.3f}"] + (["--setup-only"] if setup_only else [])
    ref = reference_s()
    t0 = time.perf_counter()
    ready = None
    data = b""
    with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE) as proc:
        try:
            fd = proc.stdout.fileno()
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not select.select([fd], [], [], left)[0]:
                    raise BenchError("worker did not finish in time")
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                data += chunk
                if ready is None and b"\n" in data:
                    ready = time.perf_counter()
            code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = data.decode().splitlines()
    if code != 0 or not lines or lines[0] != "READY" or ready is None:
        raise BenchError(f"worker exited with {code}")
    setup_s = (ready - t0) * REF_NOMINAL_S / ref
    return setup_s, None if setup_only else json.loads(lines[-1])


def job_medians(passes: list[dict], key: str = "job_s") -> float:
    """Speed-normalised seconds of the job list.

    Each job's time is scaled by REF_NOMINAL_S over the reference loop timed
    around it, which cancels the slow minutes of a shared host; the result
    is each job's median over the passes, summed over the job list.
    """
    def scaled(p):
        return [t * REF_NOMINAL_S / ref for t, ref in zip(p[key], p["job_ref_s"])]

    return sum(statistics.median(times) for times in zip(*map(scaled, passes)))


def layer_metrics(result: dict, spec: list[dict]) -> dict:
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    setup = result["setup_layers"]
    values = {}
    for m in spec:
        name = m["name"]
        values[name] = setup.get(name, 0.0) + statistics.median(
            p["layers"].get(name, 0.0) for p in traced)
    ser = values["report.bytes_serialized"]
    values["report.written_per_serialized"] = values["report.bytes_written"] / ser if ser else 0.0
    values["space.critical_radii"] = float(sum(
        r.get("distinct_distances", 0) for r in result["record"].values()
        if isinstance(r, dict)))
    values["trace.spans"] = float(statistics.median(p["spans"] for p in traced))
    values["trace.overhead_s"] = job_medians(traced) - job_medians(untraced)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chainkit" / "__init__.py").is_file():
        print("bench: src/chainkit not found; run from a chainkit checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    hard = start + HARD_LIMIT_S
    window_end = start + args.seconds
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_STARTS):
                setups.append(start_worker(args, hard, setup_only=True)[0])
        guess = statistics.median(setups) if setups else 1.0
        budget = max(window_end - time.perf_counter() - guess, 0.0)
        setup_s, result = start_worker(args, hard, budget=budget)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "why": next(w["why"] for w in spec["workloads"]
                                  if w["name"] == args.workload),
                      "roadmap": result["roadmap"],
                      "setup_s": setups, "pass_wall_s": [sum(p["job_s"]) for p in passes],
                      "pass_ref_s": [statistics.median(p["job_ref_s"]) for p in passes],
                      "inputs": result["record"],
                      "machine": result["machine"]}))
    if args.trace:
        metrics = layer_metrics(result, spec["per_layer"])
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": job_medians(passes),
            "cpu_s": job_medians(passes, "job_cpu_s"),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
