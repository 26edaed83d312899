"""oamlink benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout that holds ``src/oamlink``.  The metric
names and units come from ``BENCHMARK.json``; workloads are described in
``workloads.py``.

Every pass runs in a fresh worker process (``worker.py``), one at a time.
A pass is started while it would reach its midpoint within ``--seconds``,
so a run lasts ``--seconds`` give or take half a pass.

* ``--trace 0`` runs untraced passes.  ``run_s`` is the median pass wall
  time, measured inside the worker.  ``setup_s`` is the median time from
  spawning a worker until it has imported oamlink, validated the config
  and generated the pilot.  ``peak_rss_mb`` is the median peak resident
  memory of a pass's process.
* ``--trace 1`` runs traced passes.  Per-layer metrics are the medians
  over the passes of ``<module>.<function>.<stat>``, computed from the
  spans of each pass; ``bench.trace.run_s`` is the median traced pass time
  and ``bench.trace.overhead_s`` the median time the tracer's wrappers
  spent outside the calls they wrap.  The counts in ``EXACT_COUNTS`` must
  be identical across the passes.

Every pass's outputs are compared with the reference outputs recorded at
the seed commit (``reference/<workload>.json``) to 1e-9 relative; a pass
that raises ``OamLinkError``, crashes or mismatches counts as failed.  The
comparator checks itself on every run: a copy of the reference moved by
1e-8 relative must be flagged.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it, starting with
``#``, give the sample counts, the failed fraction and the machine.  A
record of the run (machine, commit, per-pass data, spans) is written to
``.perfbench_work/<workload>-seed<N>-trace<0|1>/record.json``.

``--smoke`` runs every workload on a 64^2 grid for two seeds, traced and
untraced, and checks that every metric named in ``BENCHMARK.json`` is
emitted, that traced and untraced passes give identical outputs and that
the comparator trips on perturbed outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_stats  # noqa: E402

# The simulator is single-threaded apart from numpy's BLAS calls
# (``np.vdot`` in the analysis, the receive chain's products).  On a 2-core
# x86-64 host, eight alternating pairs of 14 s matrix_default runs gave a
# median pass of 7.4 s with BLAS pinned to one thread and 8.7 s without,
# pinned faster in every pair; ten unpinned 55 s runs spread 0.13 of
# their median, pinned ones 0.06-0.07 while the host's speed held.  A
# thread count the caller sets is kept.
WORKER_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
# Every run must end within 180 s; no pass starts after this.
HARD_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 170.0

# Counts the program's control flow fixes; they repeat exactly on every
# traced pass and every seed, so a change may claim them as counts.
EXACT_COUNTS = ("propagation.propagate.calls", "propagation.propagate.cells",
                "propagation.propagate.key_repeat_frac",
                "rxchain.receive.calls", "rxchain.apply_channel.calls",
                "rxchain.apply_channel.redundant_frac")
LAYER_STATS = ("calls", "busy_s", "self_s", "ms_p50", "cells",
               "key_repeat_frac", "redundant_frac", "run_share")


class BenchError(Exception):
    """The benchmark cannot run here (missing source, reference or spec)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    with open(path) as fh:
        return json.load(fh)


def load_reference(name: str, seed: int):
    path = HERE / "reference" / f"{name}.json"
    with open(path) as fh:
        ref = json.load(fh)
    slot = str(workloads.noise_seed(seed))
    if slot not in ref["outputs"]:
        raise BenchError(f"{path.name} has no outputs for noise seed {slot}")
    return ref["outputs"][slot]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "oamlink").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def quartiles(values) -> dict:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives
    them, and the spread (q3 - q1) / median (None for a zero median)."""
    values = list(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


class Worker:
    """Spawns worker processes for one run and keeps their files in ``work``."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(WORKER_THREADS, **os.environ)

    def run(self, job: dict):
        """(wall seconds from spawn to exit, spawn time, result or None,
        error text or None)."""
        self.count += 1
        job_path = self.work / f"job{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        job_path.write_text(json.dumps(job))
        timeout = max(1.0, min(WORKER_TIMEOUT_S,
                               self.deadline - time.perf_counter()))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path),
                 str(result_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, t0, None, "worker timed out"
        wall = time.perf_counter() - t0
        job_path.unlink()
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            return wall, t0, None, f"worker exited {proc.returncode}: {tail[0]}"
        with open(result_path) as fh:
            result = json.load(fh)
        result_path.unlink()
        return wall, t0, result, None


def _layer_value(metric: str, stats: dict, pass_s: float) -> float:
    func, stat = metric.rsplit(".", 1)
    st = stats.get(func, {})
    if stat == "run_share":
        return st.get("busy_s", 0.0) / pass_s
    return st.get(stat, 0)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload; returns the result line plus the run record."""
    t_launch = time.perf_counter()
    spec = load_spec()
    if name not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {name!r}")
    if not (SRC / "oamlink" / "__init__.py").is_file():
        raise BenchError(f"no oamlink package under {SRC}")
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    units = {m["name"]: m["unit"] for m in spec[kind]}
    ref = None if smoke else load_reference(name, seed)

    work = WORK_ROOT / f"{name}-seed{seed}-trace{int(trace)}" \
        f"{'-smoke' if smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    worker = Worker(work, t_launch + HARD_LIMIT_S + 20.0)
    problems = []

    passes, walls = [], []
    t_begin = time.perf_counter()
    while True:
        out_dir = work / f"pass{len(passes)}"
        wall, spawned, result, err = worker.run(
            {"src": str(SRC), "workload": name, "seed": seed, "smoke": smoke,
             "trace": trace, "out_dir": str(out_dir)})
        shutil.rmtree(out_dir, ignore_errors=True)
        walls.append(wall)
        entry = {"wall_s": wall}
        if result is not None:
            err = result.get("error", err)
            entry["setup_s"] = result["ready"] - spawned
            entry.update({k: result[k] for k in ("pass_s", "rss_mb", "machine")
                          if k in result})
        if err is None:
            outputs = result["outputs"]
            if ref is None:
                ref = outputs
            bad = check.mismatches(ref, outputs)
            if bad:
                err = f"{len(bad)} outputs differ from the reference, " \
                      f"first {bad[0]}"
            entry["outputs"] = outputs
            if trace:
                entry["stats"] = layer_stats(result["spans"])
                entry.update({k: result[k] for k in
                              ("spans", "wrapped", "trace_own_s")})
        entry["error"] = err
        passes.append(entry)
        elapsed = time.perf_counter() - t_begin
        if time.perf_counter() - t_launch > HARD_LIMIT_S or \
                elapsed + statistics.median(walls) / 2 > seconds:
            break

    ok = [p for p in passes if p["error"] is None]
    failed = len(passes) - len(ok)
    for p in passes:
        if p["error"] is not None:
            problems.append(p["error"])
    if ref is not None:
        problems.extend(check.self_check(ref))
    if not ok:
        raise BenchError(f"every pass failed: {problems[0]}")

    metrics = {}
    if trace:
        for metric in names:
            if metric == "bench.trace.run_s":
                value = statistics.median(p["pass_s"] for p in ok)
            elif metric == "bench.trace.overhead_s":
                value = statistics.median(p["trace_own_s"] for p in ok)
            else:
                func, stat = metric.rsplit(".", 1)
                if func not in ok[0]["wrapped"] or stat not in LAYER_STATS:
                    raise BenchError(f"no rule computes metric {metric!r}")
                values = [_layer_value(metric, p["stats"], p["pass_s"])
                          for p in ok]
                if metric in EXACT_COUNTS and len(set(values)) > 1:
                    problems.append(f"{metric} differs across traced passes: "
                                    f"{values}")
                value = statistics.median(values)
            metrics[metric] = value
    else:
        rules = {
            "run_s": lambda: statistics.median(p["pass_s"] for p in ok),
            "setup_s": lambda: statistics.median(p["setup_s"] for p in ok),
            "peak_rss_mb": lambda: statistics.median(p["rss_mb"] for p in ok),
        }
        for metric in names:
            if metric not in rules:
                raise BenchError(f"no rule computes metric {metric!r}")
            metrics[metric] = rules[metric]()

    for metric, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{metric} is not finite")
    line = {"correct": not problems, "attempted": len(passes),
            "failed": failed,
            "metrics": {m: {"value": metrics[m], "unit": units[m]}
                        for m in names}}
    pass_times = [p["pass_s"] for p in ok]
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "noise_seed": workloads.noise_seed(seed),
        "commit": commit(), "src_sha256": src_digest(),
        "machine": next(p["machine"] for p in passes if "machine" in p),
        "setup_samples_s": [p["setup_s"] for p in ok],
        "run_s_samples": len(pass_times),
        "run_s_quartiles": quartiles(pass_times),
        "failed_frac": failed / len(passes),
        "problems": problems,
        "exact_counts": [m for m in EXACT_COUNTS if m in metrics],
        "result": line,
        "passes": passes,
    }
    with open(work / "record.json", "w") as fh:
        json.dump(record, fh)
    return record


def print_result(record: dict):
    line = record["result"]
    q = record["run_s_quartiles"]
    print(f"# {record['workload']} seed {record['seed']} (noise seed "
          f"{record['noise_seed']}), trace {int(record['trace'])}: "
          f"{line['attempted']} passes, {line['failed']} failed "
          f"(failed_frac {record['failed_frac']:g})")
    print(f"# {'traced' if record['trace'] else 'untraced'} pass time over "
          f"{record['run_s_samples']} samples: "
          f"median {q['median']:.4f} s, q1 {q['q1']:.4f} s, q3 {q['q3']:.4f} s")
    if record["setup_samples_s"]:
        print(f"# setup samples (s): "
              f"{', '.join(f'{v:.4f}' for v in record['setup_samples_s'])}")
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    print(f"# machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"# commit: {record['commit']}  src sha256: {record['src_sha256']}")
    print(json.dumps(line))


def smoke() -> int:
    spec = load_spec()
    failures = []
    for name in workloads.NAMES:
        for seed in (0, 1):
            by_trace = {}
            for trace in (False, True):
                record = run_workload(name, seed, 1.0, trace, smoke=True)
                line = record["result"]
                want = {m["name"] for m in
                        spec["per_layer" if trace else "end_to_end"]}
                tag = f"{name} seed {seed} trace {int(trace)}"
                if set(line["metrics"]) != want:
                    failures.append(f"{tag}: emitted metrics "
                                    f"{sorted(set(line['metrics']) ^ want)} "
                                    f"differ from BENCHMARK.json")
                if not line["correct"]:
                    failures.append(f"{tag}: {record['problems']}")
                by_trace[trace] = [p["outputs"] for p in record["passes"]
                                   if "outputs" in p]
                print(f"# smoke {tag}: {line['attempted']} passes, "
                      f"correct {line['correct']}")
            outs = by_trace[False] + by_trace[True]
            for other in outs[1:]:
                if check.mismatches(outs[0], other):
                    failures.append(f"{name} seed {seed}: traced and "
                                    f"untraced outputs differ")
        ref_path = HERE / "reference" / f"{name}.json"
        with open(ref_path) as fh:
            stored = json.load(fh)["outputs"]
        for slot in range(workloads.NOISE_SEED_SLOTS):
            ref = stored.get(str(workloads.noise_seed(slot)))
            if ref is None:
                failures.append(f"{ref_path.name}: slot {slot} missing")
            else:
                failures.extend(f"{ref_path.name}: {p}"
                                for p in check.self_check(ref))
    for failure in failures:
        print(f"# smoke failure: {failure}")
    print(f"# smoke {'passed' if not failures else 'FAILED'}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        print_result(run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace)))
    except (BenchError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
