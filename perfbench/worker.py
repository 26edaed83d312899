"""One benchmark pass in a fresh process.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the checkout's ``src`` directory, the workload, the seed and
the output directory.  The worker imports oamlink from that ``src``, does
the set-up (config validation, pilot generation), then times one pass,
optionally traced, and reads the outputs back.  It writes one JSON result
file when it ends.  A fresh process per pass means every pass pays the
same first-call costs a command-line run pays, and no cache survives from
one pass into the next.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def machine_info() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_job(job: dict) -> dict:
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import oamlink
    if src not in Path(oamlink.__file__).resolve().parents:
        raise RuntimeError(f"imported oamlink from {oamlink.__file__}, "
                           f"not from {src}")
    name, seed, smoke = job["workload"], job["seed"], job["smoke"]
    cfg = workloads.config(name, seed, smoke)
    full = workloads.setup(oamlink, cfg)
    result = {"ready": time.perf_counter(), "machine": machine_info()}
    out_dir = Path(job["out_dir"])
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(oamlink)
    try:
        t0 = time.perf_counter()
        value = workloads.run_pass(name, oamlink, cfg, full, out_dir)
        result["pass_s"] = time.perf_counter() - t0
    except oamlink.OamLinkError as e:
        result["error"] = f"{type(e).__name__}: {e}"
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["outputs"] = workloads.outputs(name, value, out_dir)
    if tracer is not None:
        result["spans"] = tracer.spans
        result["trace_own_s"] = tracer.own_s
        result["wrapped"] = tracer.names
    return result


def main(argv) -> int:
    job_path, result_path = argv[1], argv[2]
    with open(job_path) as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
