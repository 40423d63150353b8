"""One workload in one fresh process: set up, then timed passes of its jobs.

Started by ``run.py`` with the repository root as working directory.  Prints
``READY`` once set-up is done, then runs whole passes over the workload's
fixed job list while another pass of median length fits in the time budget
(at least one pass; with tracing, untraced and traced passes alternate) and
prints one JSON line with each job's time in each pass.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ".bench_run"  # relative to ROOT; ignored by git
REF_ITERATIONS = 100_000  # with REF_NUMPY_OPS about 15 ms
REF_NUMPY_OPS = 1000


def blas_record() -> dict:
    """OpenBLAS builds mapped into this process and their thread counts."""
    libs = {}
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.endswith(".so"):
                libs[path] = None
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and "threads" not in entry:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    entry["threads"] = getter()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    entry["config"] = config().decode()
        out.append(entry)
    return {
        "libraries": out,
        "method": ("openblas_get_num_threads() called through ctypes in each "
                   "OpenBLAS library mapped into the worker (threadpoolctl is "
                   "not installed)"),
    }


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def reference_s() -> float:
    """Wall seconds of a fixed interpreter loop and a loop of small numpy ops.

    Its duration tracks the host's current speed for the kinds of code the
    jobs run, so the jobs timed next to it can be rescaled.
    """
    values = np.arange(1000) * 0.618034 % 1.0
    weights = np.ones(1000)
    mask = np.empty(1000, dtype=bool)  # reused, so the loop allocates nothing
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    for r in np.linspace(0.1, 0.9, REF_NUMPY_OPS):
        np.less(values, r, out=mask)
        acc += np.sum(weights, where=mask)
    return time.perf_counter() - t0


def run_jobs(jobs, tracer=None, traced: bool = False) -> dict:
    """Time each job's library calls, then check its output.

    The reference runs before the first job and after each job's check, when
    the job's output is gone; each job is paired with the mean of the two
    references around it.  A job that raises or fails its oracle counts as
    failed, and its time is still recorded.
    """
    job_s, job_cpu_s, job_ref_s = [], [], []
    attempted = failed = 0
    ref_before = reference_s()
    for job in jobs:
        span = tracer.open("job." + job.name) if traced else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = job.run()
            ok = True
        except Exception:  # a failing job is counted, and the pass goes on
            traceback.print_exc()
            ok = False
        t1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.close(span)
        attempted += 1
        if ok:
            try:
                job.check(out)
            except Exception:
                print(f"job {job.name} failed its oracle:", file=sys.stderr)
                traceback.print_exc()
                ok = False
            del out
        failed += not ok
        ref_after = reference_s()
        job_s.append(t1 - t0)
        job_cpu_s.append(c1 - c0)
        job_ref_s.append(0.5 * (ref_before + ref_after))
        ref_before = ref_after
    return {"job_s": job_s, "job_cpu_s": job_cpu_s, "job_ref_s": job_ref_s,
            "attempted": attempted, "failed": failed, "traced": traced}


def run_pass(workload, base_inputs, tracer, traced: bool, label: str) -> dict:
    """Run the job list once on a fresh copy of the inputs."""
    inputs = copy.deepcopy(base_inputs)
    if traced:
        tracer.begin(label)
    result = run_jobs(workload.jobs(inputs), tracer, traced)
    if traced:
        result["layers"] = tracer.totals(label)
        result["spans"] = sum(1 for s in tracer.spans if s[4] == label)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=0.0,
                    help="seconds for passes after set-up")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import chainkit

    if Path(chainkit.__file__).resolve().parent != ROOT / "src" / "chainkit":
        print(f"chainkit imported from {chainkit.__file__}, not from src/",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]()
    workdir = f"{RUN_DIR}/work/{workload.name}"
    os.makedirs(workdir, exist_ok=True)
    inputs, record = workload.setup(args.seed, workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes, walls = [], []
    start = time.perf_counter()
    min_passes = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if tracer is not None and not traced:
            tracer.uninstall()
        t0 = time.perf_counter()
        passes.append(run_pass(workload, inputs, tracer, traced, f"pass{len(passes)}"))
        walls.append(time.perf_counter() - t0)
        if tracer is not None and not traced:
            tracer.install()
        if len(passes) >= min_passes and \
                time.perf_counter() - start + statistics.median(walls) > args.budget:
            break

    if "net_members" in workload.memo:
        record["net_members"] = workload.memo["net_members"]
    out = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record": record,
        "machine": machine_record(),
        "roadmap": workload.roadmap,
    }
    if tracer is not None:
        tracer.uninstall()
        out["setup_layers"] = tracer.totals("setup")
        os.makedirs(f"{RUN_DIR}/trace", exist_ok=True)
        path = f"{RUN_DIR}/trace/{workload.name}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "machine": out["machine"], "record": record,
                       "spans": tracer.spans, "counts": tracer.counts,
                       "span_totals": tracer.self_times()}, fh)
        out["trace_file"] = path
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
